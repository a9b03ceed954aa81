"""The quadtree partitioner."""

import pytest

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.io.datagen import clustered_points, uniform_points, world_events
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.quadtree import QuadTreePartitioner

from tests.partitioners import matching_partitions


def keys_of(points):
    return [STObject(p) for p in points]


class TestConstruction:
    def test_single_partition_under_budget(self):
        part = QuadTreePartitioner(keys_of(uniform_points(50, seed=1)), 100)
        assert part.num_partitions == 1

    def test_splits_when_over_budget(self):
        part = QuadTreePartitioner(keys_of(uniform_points(400, seed=2)), 100)
        assert part.num_partitions >= 4
        assert part.num_partitions % 3 == 1  # 4-way splits: 1 + 3k leaves

    def test_cost_respected_with_depth_headroom(self):
        keys = keys_of(uniform_points(1000, seed=3))
        part = QuadTreePartitioner(keys, 150)
        counts = [0] * part.num_partitions
        for key in keys:
            counts[part.get_partition(key)] += 1
        assert max(counts) <= 150

    def test_max_depth_stops_recursion(self):
        # identical points cannot be separated: depth cap must hold
        keys = keys_of([Point(5.0, 5.0) for _ in range(100)])
        part = QuadTreePartitioner(
            keys, 10, max_depth=3, universe=Envelope(0, 0, 10, 10)
        )
        assert part.num_partitions <= 1 + 3 * sum(4**d for d in range(3))

    def test_invalid_parameters(self):
        keys = keys_of([Point(0, 0)])
        with pytest.raises(ValueError):
            QuadTreePartitioner(keys, 0)
        with pytest.raises(ValueError):
            QuadTreePartitioner(keys, 1, max_depth=-1)

    def test_from_rdd(self, sc):
        rdd = sc.parallelize(
            [(STObject(p), i) for i, p in enumerate(uniform_points(300, seed=4))], 4
        )
        part = QuadTreePartitioner.from_rdd(rdd, 80)
        assert part.num_partitions > 1


class TestAssignment:
    def test_total_over_plane(self):
        part = QuadTreePartitioner(keys_of(clustered_points(500, seed=5)), 100)
        for probe in (Point(-1e5, -1e5), Point(1e5, 1e5), Point(0, 0)):
            assert 0 <= part.get_partition(STObject(probe)) < part.num_partitions

    def test_assignment_consistent_with_bounds(self):
        keys = keys_of(uniform_points(400, seed=6))
        part = QuadTreePartitioner(keys, 80)
        for key in keys:
            pid = part.get_partition(key)
            c = key.geo.centroid()
            assert part.partition_bounds(pid).buffer(1e-9).contains_point(c.x, c.y)

    def test_leaves_tile_universe(self):
        keys = keys_of(clustered_points(600, seed=7))
        part = QuadTreePartitioner(keys, 100)
        total = sum(
            part.partition_bounds(pid).area for pid in range(part.num_partitions)
        )
        assert total == pytest.approx(part.universe.area, rel=1e-9)

    def test_deterministic(self):
        keys = keys_of(clustered_points(300, seed=8))
        a = QuadTreePartitioner(keys, 60)
        b = QuadTreePartitioner(keys, 60)
        for key in keys:
            assert a.get_partition(key) == b.get_partition(key)


class TestQuality:
    def test_pruning_conservative(self, sc):
        keys = keys_of(clustered_points(500, seed=9))
        part = QuadTreePartitioner(keys, 100)
        query = Envelope(100, 100, 400, 400)
        keep = matching_partitions(sc, keys, part, query)
        for key in keys:
            if query.intersects(key.geo.envelope):
                assert part.get_partition(key) in keep

    def test_bsp_needs_no_more_partitions_for_same_budget(self):
        """The ablation claim: cost-balanced cuts reach the budget with
        fewer partitions than blind center splits on skewed data."""
        keys = keys_of(world_events(4000, seed=10))
        budget = 250
        quad = QuadTreePartitioner(keys, budget)
        bsp = BSPartitioner(keys, budget)
        assert bsp.num_partitions <= quad.num_partitions

    def test_filter_through_quadtree(self, sc):
        from repro.core import filter as filter_ops
        from repro.core.predicates import INTERSECTS

        keys = keys_of(clustered_points(500, seed=11))
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 4)
        part = QuadTreePartitioner.from_rdd(rdd, 100)
        partitioned = rdd.partition_by(part)
        query = STObject("POLYGON ((100 100, 300 100, 300 300, 100 300, 100 100))")
        got = sorted(
            v
            for _k, v in filter_ops.filter_no_index(
                partitioned, query, INTERSECTS
            ).collect()
        )
        want = sorted(i for i, k in enumerate(keys) if INTERSECTS.evaluate(k, query))
        assert got == want

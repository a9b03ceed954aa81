"""The cost-based binary space partitioner."""

import pytest

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.io.datagen import clustered_points, uniform_points, world_events
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner

from tests.partitioners import matching_partitions


def keys_of(points):
    return [STObject(p) for p in points]


class TestConstruction:
    def test_cost_threshold_respected(self):
        keys = keys_of(uniform_points(1000, seed=1))
        bsp = BSPartitioner(keys, max_cost_per_partition=200)
        counts = [0] * bsp.num_partitions
        for key in keys:
            counts[bsp.get_partition(key)] += 1
        # Only granularity-limited partitions may exceed the threshold;
        # with uniform data and default side length none should.
        assert max(counts) <= 200

    def test_single_partition_when_threshold_large(self):
        keys = keys_of(uniform_points(100, seed=2))
        bsp = BSPartitioner(keys, max_cost_per_partition=1000)
        assert bsp.num_partitions == 1

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError):
            BSPartitioner(keys_of([Point(0, 0)]), max_cost_per_partition=0)

    def test_invalid_side_length_rejected(self):
        with pytest.raises(ValueError):
            BSPartitioner(keys_of([Point(0, 0), Point(1, 1)]), 1, side_length=-1.0)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            BSPartitioner([], 10)

    def test_granularity_stops_recursion(self):
        # 1000 identical-ish points cannot be split below side_length.
        keys = keys_of([Point(50 + i * 1e-9, 50) for i in range(1000)])
        bsp = BSPartitioner(
            keys, max_cost_per_partition=10, side_length=1.0,
            universe=Envelope(0, 0, 100, 100),
        )
        counts = [0] * bsp.num_partitions
        for key in keys:
            counts[bsp.get_partition(key)] += 1
        assert max(counts) > 10  # threshold exceeded because cell can't split

    def test_from_rdd(self, sc):
        rdd = sc.parallelize(
            [(STObject(p), i) for i, p in enumerate(uniform_points(200))], 4
        )
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=50)
        assert bsp.num_partitions >= 4


class TestAssignment:
    def test_total_function_over_plane(self):
        keys = keys_of(clustered_points(500, seed=3))
        bsp = BSPartitioner(keys, max_cost_per_partition=100)
        for probe in [Point(-1e6, -1e6), Point(1e6, 1e6), Point(0, 0)]:
            assert 0 <= bsp.get_partition(STObject(probe)) < bsp.num_partitions

    def test_total_over_a_subnormal_universe(self):
        # The default side underflows to 0 and, given a subnormal side,
        # a far point's cell ratio overflows: neither may raise.
        thin = keys_of([Point(0.0, 0.0), Point(0.0, 5e-324 * 2**40)])
        for bsp in (
            BSPartitioner(keys_of([Point(0.0, 0.0), Point(0.0, 5e-324)]), 1),
            BSPartitioner(thin, 1, side_length=5e-324 * 2**38),
        ):
            for probe in [Point(0, 1e300), Point(0, -1e300), Point(0, 0)]:
                assert 0 <= bsp.get_partition(STObject(probe)) < bsp.num_partitions

    def test_assignment_matches_leaf_bounds(self):
        keys = keys_of(uniform_points(500, seed=4))
        bsp = BSPartitioner(keys, max_cost_per_partition=100)
        for key in keys:
            pid = bsp.get_partition(key)
            c = key.geo.centroid()
            # Bounds are closed; shared edges may belong to either side,
            # so containment check is on a slightly grown box.
            assert bsp.partition_bounds(pid).buffer(1e-9).contains_point(c.x, c.y)

    def test_leaves_tile_universe(self):
        keys = keys_of(clustered_points(800, seed=5))
        bsp = BSPartitioner(keys, max_cost_per_partition=150)
        total = sum(bsp.partition_bounds(i).area for i in range(bsp.num_partitions))
        assert total == pytest.approx(bsp.universe.area, rel=1e-9)

    def test_deterministic(self):
        keys = keys_of(clustered_points(300, seed=6))
        a = BSPartitioner(keys, max_cost_per_partition=60)
        b = BSPartitioner(keys, max_cost_per_partition=60)
        assert a.num_partitions == b.num_partitions
        for key in keys:
            assert a.get_partition(key) == b.get_partition(key)


class TestSkewHandling:
    """The paper's motivation: BSP beats the fixed grid on skewed data."""

    def test_bsp_balances_skewed_data_better_than_grid(self):
        keys = keys_of(world_events(3000, seed=7))
        bsp = BSPartitioner(keys, max_cost_per_partition=3000 // 16)
        grid = GridPartitioner(keys, 4)  # 16 cells, same order of partitions
        assert bsp.imbalance(keys) < grid.imbalance(keys)

    def test_grid_has_empty_cells_on_world_data_bsp_does_not(self):
        keys = keys_of(world_events(3000, seed=8))
        grid = GridPartitioner(keys, 6)
        bsp = BSPartitioner(keys, max_cost_per_partition=3000 // 30)

        def empty_fraction(part):
            counts = [0] * part.num_partitions
            for key in keys:
                counts[part.get_partition(key)] += 1
            return sum(1 for c in counts if c == 0) / part.num_partitions

        assert empty_fraction(grid) > 0.0
        assert empty_fraction(bsp) <= empty_fraction(grid)

    def test_dense_regions_get_smaller_partitions(self):
        # 90% of points in a small corner cluster: equal-cost splitting
        # must drill into the cluster, so the partition holding the
        # cluster center is far smaller than the sparse ones.
        dense = uniform_points(900, Envelope(0, 0, 10, 10), seed=9)
        sparse = uniform_points(100, Envelope(10, 10, 100, 100), seed=10)
        keys = keys_of(dense + sparse)
        bsp = BSPartitioner(
            keys, max_cost_per_partition=100, universe=Envelope(0, 0, 100, 100)
        )
        dense_pid = bsp.partition_of_point(5, 5)
        dense_area = bsp.partition_bounds(dense_pid).area
        largest = max(
            bsp.partition_bounds(pid).area for pid in range(bsp.num_partitions)
        )
        assert dense_area < largest / 10


class TestPruning:
    def test_extent_conservative(self, sc):
        keys = keys_of(clustered_points(500, seed=11))
        bsp = BSPartitioner(keys, max_cost_per_partition=100)
        query = Envelope(100, 100, 400, 400)
        keep = matching_partitions(sc, keys, bsp, query)
        for key in keys:
            if query.intersects(key.geo.envelope):
                assert bsp.get_partition(key) in keep

    def test_repr_mentions_parameters(self):
        keys = keys_of(uniform_points(100, seed=12))
        bsp = BSPartitioner(keys, max_cost_per_partition=40)
        assert "max_cost=40" in repr(bsp)

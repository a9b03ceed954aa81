"""Spatial join: correctness against brute force, pair pruning, no duplicates."""

import pytest

from repro.core.join import candidate_partition_pairs, spatial_join
from repro.core.predicates import CONTAINED_BY, CONTAINS, INTERSECTS, within_distance_predicate
from repro.core.stobject import STObject
from repro.core.summaries import partition_summaries
from repro.geometry.envelope import Envelope
from repro.index.rtree import STRTree
from repro.io.datagen import clustered_points, random_polygons, uniform_points
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner


def brute_join(left_rows, right_rows, predicate):
    return sorted(
        (lv, rv)
        for lk, lv in left_rows
        for rk, rv in right_rows
        if predicate.evaluate(lk, rk)
    )


def result_pairs(join_rdd):
    return sorted((l[1], r[1]) for l, r in join_rdd.collect())


@pytest.fixture
def points_rdd(sc):
    pts = clustered_points(300, seed=31)
    return sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 6)


@pytest.fixture
def polys_rdd(sc):
    polys = random_polygons(80, seed=32, mean_radius_fraction=0.03)
    return sc.parallelize([(STObject(p), 1000 + i) for i, p in enumerate(polys)], 4)


class TestCorrectness:
    def test_point_polygon_containedby(self, sc, points_rdd, polys_rdd):
        got = result_pairs(spatial_join(points_rdd, polys_rdd, CONTAINED_BY))
        want = brute_join(points_rdd.collect(), polys_rdd.collect(), CONTAINED_BY)
        assert got == want
        assert len(got) > 0  # non-vacuous

    def test_polygon_point_contains(self, sc, points_rdd, polys_rdd):
        got = result_pairs(spatial_join(polys_rdd, points_rdd, CONTAINS))
        want = brute_join(polys_rdd.collect(), points_rdd.collect(), CONTAINS)
        assert got == want

    def test_polygon_polygon_intersects(self, sc, polys_rdd):
        got = result_pairs(spatial_join(polys_rdd, polys_rdd, INTERSECTS))
        rows = polys_rdd.collect()
        assert got == brute_join(rows, rows, INTERSECTS)

    def test_within_distance_join(self, sc, points_rdd):
        predicate = within_distance_predicate(25.0)
        got = result_pairs(spatial_join(points_rdd, points_rdd, predicate))
        rows = points_rdd.collect()
        assert got == brute_join(rows, rows, predicate)

    def test_nested_loop_equals_indexed(self, sc, points_rdd, polys_rdd):
        indexed = result_pairs(
            spatial_join(points_rdd, polys_rdd, CONTAINED_BY, index_order=8)
        )
        nested = result_pairs(
            spatial_join(points_rdd, polys_rdd, CONTAINED_BY, index_order=None)
        )
        assert indexed == nested

    def test_temporal_semantics_in_join(self, sc):
        left = sc.parallelize(
            [(STObject(f"POINT ({i} 0)", i * 10), i) for i in range(10)], 2
        )
        right = sc.parallelize(
            [(STObject("POLYGON ((-1 -1, 20 -1, 20 1, -1 1, -1 -1))", (0, 45)), "q")], 1
        )
        got = result_pairs(spatial_join(left, right, INTERSECTS))
        # only items with time <= 45 match temporally
        assert got == [(i, "q") for i in range(5)]

    def test_empty_side_yields_empty(self, sc, points_rdd):
        empty = sc.parallelize([], 3)
        assert spatial_join(points_rdd, empty, INTERSECTS).count() == 0
        assert spatial_join(empty, points_rdd, INTERSECTS).count() == 0


class TestSelfJoinNoDuplicates:
    """STARK's single-assignment partitioning needs no dedup step."""

    def test_point_self_join_identity_only(self, sc):
        pts = uniform_points(200, seed=33)  # distinct with probability ~1
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 4)
        got = result_pairs(spatial_join(rdd, rdd, INTERSECTS))
        assert got == [(i, i) for i in range(200)]

    def test_partitioned_self_join_no_duplicates(self, sc):
        pts = clustered_points(400, seed=34)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=80)
        partitioned = rdd.partition_by(bsp)
        results = result_pairs(spatial_join(partitioned, partitioned, INTERSECTS))
        assert len(results) == len(set(results))

    def test_polygon_self_join_no_duplicates_even_when_spanning(self, sc):
        polys = random_polygons(100, seed=35, mean_radius_fraction=0.06)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(polys)], 4)
        grid = GridPartitioner.from_rdd(rdd, 3)
        partitioned = rdd.partition_by(grid)
        results = result_pairs(spatial_join(partitioned, partitioned, INTERSECTS))
        assert len(results) == len(set(results))
        assert results == brute_join(rdd.collect(), rdd.collect(), INTERSECTS)


class TestPairPruning:
    def test_partitioned_join_evaluates_fewer_pairs(self, sc):
        pts = clustered_points(500, seed=36)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=80)
        partitioned = rdd.partition_by(bsp).persist()
        partitioned.count()
        join = spatial_join(partitioned, partitioned, INTERSECTS)
        assert join.num_partitions < partitioned.num_partitions ** 2

    def test_unpartitioned_join_evaluates_all_pairs(self, sc, points_rdd):
        join = spatial_join(points_rdd, points_rdd, INTERSECTS, prune_pairs=False)
        assert join.num_partitions == points_rdd.num_partitions ** 2

    def test_a_region_missing_the_trees_bounds_skips_its_probe(self, sc, monkeypatch):
        rows = lambda sign: [(STObject(f"POINT ({x} {x})"), sign * x) for x in (1, 2, 101, 102)]
        left, right = sc.parallelize(rows(1), 2), sc.parallelize(rows(-1), 2)
        probes = []
        query = STRTree.query
        monkeypatch.setattr(
            STRTree, "query", lambda tree, region: probes.append(region) or query(tree, region)
        )
        got = result_pairs(spatial_join(left, right, INTERSECTS, prune_pairs=False))
        assert got == [(1, -1), (2, -2), (101, -101), (102, -102)]
        # 4 partition pairs x 2 left items; only a point's own tree is probed.
        assert len(probes) == 4

    def test_pruning_preserves_results(self, sc, points_rdd, polys_rdd):
        pruned = result_pairs(spatial_join(points_rdd, polys_rdd, CONTAINED_BY))
        unpruned = result_pairs(
            spatial_join(points_rdd, polys_rdd, CONTAINED_BY, prune_pairs=False)
        )
        assert pruned == unpruned

    def test_extents_computed_per_side(self, sc):
        left = sc.parallelize([(STObject("POINT (0 0)"), 1)], 2)
        summaries = partition_summaries(left)
        assert len(summaries) == 2
        assert sorted(s.count for s in summaries) == [0, 1]
        assert sum(0 if s.envelope.is_empty else 1 for s in summaries) == 1

    def test_candidate_pairs_skip_empty_partitions(self):
        left = [Envelope(0, 0, 1, 1), Envelope.empty()]
        right = [Envelope(0.5, 0.5, 2, 2), Envelope(50, 50, 60, 60)]
        pairs = candidate_partition_pairs(left, right, INTERSECTS)
        assert pairs == [(0, 0)]

    def test_candidate_pairs_buffer_for_distance(self):
        left = [Envelope(0, 0, 1, 1)]
        right = [Envelope(3, 0, 4, 1)]
        near = within_distance_predicate(2.5)
        far = within_distance_predicate(1.0)
        assert candidate_partition_pairs(left, right, near) == [(0, 0)]
        assert candidate_partition_pairs(left, right, far) == []

"""Filter execution: all index modes agree, pruning is real and lossless."""

import pytest

from repro.core import filter as filter_ops
from repro.core.predicates import CONTAINED_BY, CONTAINS, INTERSECTS, within_distance_predicate
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.core.summaries import partition_summaries
from repro.io.datagen import clustered_points, random_polygons, timed_stobjects, uniform_points
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner

QUERY = STObject("POLYGON ((200 200, 600 200, 600 600, 200 600, 200 200))", 0, 500_000)


@pytest.fixture
def events(sc):
    objs = list(timed_stobjects(uniform_points(600, seed=21), seed=21))
    return sc.parallelize([(o, i) for i, o in enumerate(objs)], 8)


def ids(rdd):
    return sorted(v for _k, v in rdd.collect())


def brute(rdd, predicate, query):
    return sorted(v for k, v in rdd.collect() if predicate.evaluate(k, query))


class TestNoIndex:
    @pytest.mark.parametrize("predicate", [INTERSECTS, CONTAINS, CONTAINED_BY])
    def test_matches_brute_force(self, events, predicate):
        got = ids(filter_ops.filter_no_index(events, QUERY, predicate))
        assert got == brute(events, predicate, QUERY)

    def test_within_distance_matches_brute_force(self, events):
        predicate = within_distance_predicate(80.0)
        query = STObject("POINT (500 500)", (0, 1_000_000))
        got = ids(filter_ops.filter_no_index(events, query, predicate))
        assert got == brute(events, predicate, query)

    def test_no_partitioner_means_no_pruning(self, sc, events):
        sc.metrics.reset()
        filter_ops.filter_no_index(events, QUERY, INTERSECTS).collect()
        assert sc.metrics.partitions_pruned == 0


class TestLiveIndex:
    @pytest.mark.parametrize("predicate", [INTERSECTS, CONTAINS, CONTAINED_BY])
    @pytest.mark.parametrize("order", [2, 5, 25])
    def test_equals_no_index_path(self, events, predicate, order):
        live = ids(filter_ops.filter_live_index(events, QUERY, predicate, order))
        plain = ids(filter_ops.filter_no_index(events, QUERY, predicate))
        assert live == plain

    def test_within_distance_live(self, events):
        predicate = within_distance_predicate(80.0)
        query = STObject("POINT (500 500)", (0, 1_000_000))
        assert ids(
            filter_ops.filter_live_index(events, query, predicate)
        ) == brute(events, predicate, query)

    def test_temporal_predicate_enforced_in_refinement(self, sc):
        # All spatial matches, but only half the timestamps qualify.
        objs = [STObject(f"POINT (5 {i})", i * 100) for i in range(10)]
        rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 2)
        query = STObject("POLYGON ((0 -1, 10 -1, 10 11, 0 11, 0 -1))", 0, 449)
        got = ids(filter_ops.filter_live_index(rdd, query, INTERSECTS))
        assert got == [0, 1, 2, 3, 4]


class TestPolygonWorkloads:
    def test_polygon_items_contained_by(self, sc):
        polys = random_polygons(200, seed=22)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(polys)], 4)
        query = STObject("POLYGON ((100 100, 700 100, 700 700, 100 700, 100 100))")
        got = ids(filter_ops.filter_no_index(rdd, query, CONTAINED_BY))
        assert got == brute(rdd, CONTAINED_BY, query)
        assert ids(filter_ops.filter_live_index(rdd, query, CONTAINED_BY)) == got

    def test_contains_point_query(self, sc):
        polys = random_polygons(200, seed=23, mean_radius_fraction=0.05)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(polys)], 4)
        query = STObject("POINT (500 500)")
        got = ids(filter_ops.filter_no_index(rdd, query, CONTAINS))
        assert got == brute(rdd, CONTAINS, query)
        assert ids(filter_ops.filter_live_index(rdd, query, CONTAINS)) == got


class TestPartitionPruning:
    @pytest.fixture
    def partitioned(self, sc):
        objs = list(timed_stobjects(clustered_points(800, seed=24), seed=24))
        rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 8)
        grid = GridPartitioner.from_rdd(rdd, 4)
        return rdd.partition_by(grid)

    def test_pruning_preserves_results(self, partitioned):
        pruned = ids(filter_ops.filter_no_index(partitioned, QUERY, INTERSECTS))
        unpruned = ids(
            filter_ops.filter_no_index(partitioned, QUERY, INTERSECTS, prune=False)
        )
        assert pruned == unpruned

    def test_pruning_skips_partitions(self, sc, partitioned):
        small_query = STObject("POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))", 0, 10**9)
        sc.metrics.reset()
        filter_ops.filter_no_index(partitioned, small_query, INTERSECTS).collect()
        assert sc.metrics.partitions_pruned > 0

    def test_pruned_tasks_not_launched(self, sc, partitioned):
        small_query = STObject("POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))", 0, 10**9)
        base = filter_ops.prune_partitions(partitioned, small_query, INTERSECTS)
        sc.metrics.reset()
        base.count()
        assert sc.metrics.tasks_launched == base.num_partitions
        assert base.num_partitions < partitioned.num_partitions

    def test_bsp_pruning_equivalent(self, sc):
        objs = list(timed_stobjects(clustered_points(800, seed=25), seed=25))
        rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 8)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=150)
        partitioned = rdd.partition_by(bsp)
        assert ids(filter_ops.filter_no_index(partitioned, QUERY, INTERSECTS)) == ids(
            filter_ops.filter_no_index(rdd, QUERY, INTERSECTS)
        )

    def test_within_distance_pruning_lossless(self, sc, partitioned):
        predicate = within_distance_predicate(30.0)
        query = STObject("POINT (500 500)", (0, 10**9))
        assert ids(filter_ops.filter_no_index(partitioned, query, predicate)) == ids(
            filter_ops.filter_no_index(partitioned, query, predicate, prune=False)
        )


class TestIndexedFilter:
    def test_indexed_matches_plain(self, sc, events):
        from repro.core.spatial_rdd import spatial

        indexed = spatial(events).index(order=8)
        assert ids(indexed.intersects(QUERY)) == ids(
            filter_ops.filter_no_index(events, QUERY, INTERSECTS)
        )

    def test_indexed_with_partitioner_prunes(self, sc):
        from repro.core.spatial_rdd import spatial

        objs = list(timed_stobjects(clustered_points(500, seed=26), seed=26))
        rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 8)
        grid = GridPartitioner.from_rdd(rdd, 4)
        indexed = spatial(rdd).index(order=8, partitioner=grid)
        small_query = STObject("POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))", 0, 10**9)
        sc.metrics.reset()
        got = ids(indexed.intersects(small_query))
        assert sc.metrics.partitions_pruned > 0
        assert got == brute(rdd, INTERSECTS, small_query)


class TestPartitionerBuiltFromOtherData:
    """Pruning reads what the partitions hold, not what the partitioner saw."""

    def test_no_index_keeps_the_overhanging_polygon(self, overhang):
        got = ids(spatial(overhang.rdd).intersects(overhang.query))
        assert got == brute(overhang.rdd, INTERSECTS, overhang.query) == overhang.hit

    def test_live_index_keeps_the_overhanging_polygon(self, overhang):
        live = spatial(overhang.rdd).live_index(order=4)
        assert ids(live.intersects(overhang.query)) == overhang.hit

    def test_summaries_cover_every_member(self, overhang):
        summaries = partition_summaries(overhang.rdd)
        by_partition = overhang.rdd.map_partitions_with_index(
            lambda split, it: ((split, kv[0]) for kv in it)
        ).collect()
        assert sum(s.count for s in summaries) == len(by_partition)
        for pid, key in by_partition:
            assert summaries[pid].envelope.contains(key.geo.envelope)

"""k-nearest-neighbour search: scan, two-phase pruned, indexed variants."""

import math

import pytest

from repro.core.knn import knn, knn_indexed
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.geometry.distance import manhattan
from repro.io.datagen import clustered_points, uniform_points
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner

QUERY = STObject("POINT (500 500)")


def brute_knn(rows, query, k, fn=None):
    import heapq

    fn = fn or (lambda g1, g2: g1.distance(g2))
    scored = [(fn(key.geo, query.geo), value) for key, value in rows]
    return heapq.nsmallest(k, scored, key=lambda p: p[0])


@pytest.fixture
def rdd(sc):
    pts = uniform_points(500, seed=41)
    return sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)


class TestScan:
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_matches_brute_force(self, rdd, k):
        got = knn(rdd, QUERY, k)
        want = brute_knn(rdd.collect(), QUERY, k)
        assert [v for _d, (_k, v) in got] == [v for _d, v in want]
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_distances_ascending(self, rdd):
        distances = [d for d, _ in knn(rdd, QUERY, 20)]
        assert distances == sorted(distances)

    def test_k_larger_than_dataset(self, sc):
        small = sc.parallelize([(STObject("POINT (0 0)"), 1)], 2)
        assert len(knn(small, QUERY, 10)) == 1

    def test_k_zero_rejected(self, rdd):
        with pytest.raises(ValueError):
            knn(rdd, QUERY, 0)

    def test_custom_distance_function(self, rdd):
        got = knn(rdd, QUERY, 5, distance_fn=manhattan)
        want = brute_knn(rdd.collect(), QUERY, 5, fn=manhattan)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_named_distance_function(self, rdd):
        assert [d for d, _ in knn(rdd, QUERY, 3, distance_fn="manhattan")] == [
            d for d, _ in knn(rdd, QUERY, 3, distance_fn=manhattan)
        ]


class TestTwoPhasePruned:
    @pytest.fixture
    def partitioned(self, sc):
        pts = clustered_points(800, seed=42)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        grid = GridPartitioner.from_rdd(rdd, 4)
        return rdd.partition_by(grid).persist()

    @pytest.mark.parametrize("k", [1, 10, 30])
    def test_matches_full_scan(self, partitioned, k):
        got = knn(partitioned, QUERY, k)
        want = brute_knn(partitioned.collect(), QUERY, k)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_query_far_outside_universe(self, partitioned):
        far = STObject("POINT (10000 10000)")
        got = knn(partitioned, far, 5)
        want = brute_knn(partitioned.collect(), far, 5)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_bsp_partitioner(self, sc):
        pts = clustered_points(600, seed=43)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=120)
        partitioned = rdd.partition_by(bsp).persist()
        got = knn(partitioned, QUERY, 15)
        want = brute_knn(partitioned.collect(), QUERY, 15)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_custom_metric_falls_back_to_scan(self, partitioned):
        # envelope bounds are not admissible for manhattan: must still be exact
        got = knn(partitioned, QUERY, 10, distance_fn=manhattan)
        want = brute_knn(partitioned.collect(), QUERY, 10, fn=manhattan)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])


class TestIndexedKnn:
    def test_matches_scan(self, sc, rdd):
        indexed = spatial(rdd).index(order=8)
        got = knn_indexed(indexed.tree_rdd, QUERY, 10, indexed.partitioner)
        want = brute_knn(rdd.collect(), QUERY, 10)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_with_partitioner(self, sc):
        pts = clustered_points(500, seed=44)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        grid = GridPartitioner.from_rdd(rdd, 3)
        indexed = spatial(rdd).index(order=8, partitioner=grid)
        got = indexed.knn(QUERY, 10)
        want = brute_knn(rdd.collect(), QUERY, 10)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_k_zero_rejected(self, sc, rdd):
        indexed = spatial(rdd).index(order=8)
        with pytest.raises(ValueError):
            indexed.knn(QUERY, 0)

    def test_polygon_query_uses_exact_geometry_distance(self, sc):
        rows = [
            (STObject("POINT (10 0)"), "near-in-envelope"),
            (STObject("POINT (0 11)"), "near-exact"),
        ]
        rdd = sc.parallelize(rows, 1)
        # Query polygon stretches toward (0, 10): exact distance to the
        # second point is 1, to the first is 10.
        query = STObject("POLYGON ((0 0, -10 0, -10 10, 0 10, 0 0))")
        indexed = spatial(rdd).index(order=4)
        result = indexed.knn(query, 1)
        assert result[0][1][1] == "near-exact"


class TestExtendedQueryPruningBound:
    """Regression: the centroid-anchored pruning bound must stay admissible
    for extended query geometries (long linestrings, polygons).

    Layout (universe [0,100]^2, 5x5 grid, 20-unit cells): the query line
    runs along y=5 from x=4 to x=96, so its centroid (50, 5) lands in the
    middle bottom cell, which holds two points at distance 1.  The true
    nearest neighbour (5, 4.5), at distance 0.5, lives in the south-west
    cell -- 45 units away from the centroid.  An unslackened bound of 1
    prunes that cell and silently returns the wrong answer.
    """

    QUERY_LINE = STObject("LINESTRING (4 5, 96 5)")

    @pytest.fixture
    def lopsided(self, sc):
        rows = [
            (STObject("POINT (0 0)"), "corner-sw"),
            (STObject("POINT (100 100)"), "corner-ne"),
            (STObject("POINT (5 4.5)"), "true-nearest"),
            (STObject("POINT (50 6)"), "home-a"),
            (STObject("POINT (51 6)"), "home-b"),
        ]
        rdd = sc.parallelize(rows, 4)
        grid = GridPartitioner.from_rdd(rdd, 5)
        return rdd.partition_by(grid).persist()

    def test_linestring_query_crosses_partitions(self, lopsided):
        got = knn(lopsided, self.QUERY_LINE, 2)
        want = brute_knn(lopsided.collect(), self.QUERY_LINE, 2)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])
        assert got[0][1][1] == "true-nearest"

    def test_polygon_query_crosses_partitions(self, lopsided):
        query = STObject("POLYGON ((4 4, 96 4, 96 6, 4 6, 4 4))")
        got = knn(lopsided, query, 2)
        want = brute_knn(lopsided.collect(), query, 2)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_indexed_linestring_query_crosses_partitions(self, sc, lopsided):
        grid = lopsided.partitioner
        indexed = spatial(lopsided).index(order=4, partitioner=grid)
        got = indexed.knn(self.QUERY_LINE, 2)
        want = brute_knn(lopsided.collect(), self.QUERY_LINE, 2)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])
        assert got[0][1][1] == "true-nearest"

    def test_unslackened_bound_would_miss_the_neighbour(self, lopsided, monkeypatch):
        # Demonstrates the pre-fix defect: with the radius slack removed
        # the pruning bound is inadmissible and the 0.5-away neighbour
        # in the far cell is lost.
        import repro.core.knn as knn_module

        monkeypatch.setattr(knn_module, "query_radius", lambda geom: 0.0)
        got = knn(lopsided, self.QUERY_LINE, 2)
        assert got[0][0] == pytest.approx(1.0)  # wrong: true nearest is 0.5 away


class TestFallbackReusesHomePartition:
    """When the home partition holds fewer than k items, the rest-scan
    must skip the home partition instead of rescanning everything."""

    @pytest.fixture
    def sparse(self, sc):
        rows = [
            (STObject("POINT (0 0)"), 0),
            (STObject("POINT (10 10)"), 1),
            (STObject("POINT (12 10)"), 2),
            (STObject("POINT (60 10)"), 3),
            (STObject("POINT (10 60)"), 4),
            (STObject("POINT (60 60)"), 5),
            (STObject("POINT (100 100)"), 6),
        ]
        rdd = sc.parallelize(rows, 4)
        grid = GridPartitioner.from_rdd(rdd, 2)
        part = rdd.partition_by(grid).persist()
        part.count()  # materialize shuffle + cache before measuring
        return part

    QUERY_HOME = STObject("POINT (11 10)")  # home cell holds 3 points, k=5

    def test_scan_fallback_computes_each_partition_once(self, sc, sparse):
        sc.metrics.reset()
        got = knn(sparse, self.QUERY_HOME, 5)
        # one home task plus one task per remaining partition: nothing twice
        assert sc.metrics.tasks_launched == sparse.num_partitions
        assert sc.metrics.jobs_run == 2
        want = brute_knn(sparse.collect(), self.QUERY_HOME, 5)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])

    def test_indexed_fallback_computes_each_partition_once(self, sc, sparse):
        grid = sparse.partitioner
        indexed = spatial(sparse).index(order=4, partitioner=grid)
        indexed.tree_rdd.count()  # build and cache the trees up front
        sc.metrics.reset()
        got = indexed.knn(self.QUERY_HOME, 5)
        assert sc.metrics.tasks_launched == indexed.tree_rdd.num_partitions
        assert sc.metrics.jobs_run == 2
        want = brute_knn(sparse.collect(), self.QUERY_HOME, 5)
        assert [d for d, _ in got] == pytest.approx([d for d, _ in want])


class TestPartitionerBuiltFromOtherData:
    """The bound phase reads the partitions' measured extents: a polygon
    reaching in from a neighbouring cell is the true nearest neighbour
    (distance 0.0; the nearest point is 2.5 away)."""

    def test_two_phase_scan_finds_the_overhanging_polygon(self, overhang):
        got = spatial(overhang.rdd).knn(overhang.query, 1)
        want = brute_knn(overhang.rows, overhang.query, 1)
        assert [(d, kv[1]) for d, kv in got] == want
        assert got[0][0] == 0.0 and [got[0][1][1]] == overhang.hit

    def test_indexed_knn_finds_the_overhanging_polygon(self, overhang):
        got = spatial(overhang.rdd).index(order=4).knn(overhang.query, 1)
        assert got[0][0] == 0.0 and [got[0][1][1]] == overhang.hit

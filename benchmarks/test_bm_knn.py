"""spatialbm: k-nearest-neighbour benchmark (k sweep x execution mode)."""

from __future__ import annotations

import pytest

from repro.core.knn import knn, knn_indexed
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.evaluation import bsp_budget
from repro.io.datagen import clustered_points
from repro.partitioners.bsp import BSPartitioner

ROUNDS = 3
QUERY = STObject("POINT (500 500)")


@pytest.fixture(scope="module")
def knn_rdd(sc, sizes):
    pts = clustered_points(sizes["knn_points"], num_clusters=10, seed=1707)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def knn_partitioned(knn_rdd, sizes):
    bsp = BSPartitioner.from_rdd(
        knn_rdd, max_cost_per_partition=bsp_budget(sizes["knn_points"])
    )
    rdd = knn_rdd.partition_by(bsp).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def knn_indexed_rdd(knn_partitioned):
    handle = spatial(knn_partitioned).index(order=10)
    handle.knn(QUERY, 1)  # materialize trees
    return handle


@pytest.mark.parametrize("k", [1, 10, 100])
class TestKnnModes:
    def test_full_scan(self, benchmark, knn_rdd, k):
        result = benchmark.pedantic(lambda: knn(knn_rdd, QUERY, k), rounds=ROUNDS)
        assert len(result) == k

    def test_partitioned_two_phase(self, benchmark, knn_partitioned, knn_rdd, k):
        result = benchmark.pedantic(
            lambda: knn(knn_partitioned, QUERY, k), rounds=ROUNDS
        )
        reference = knn(knn_rdd, QUERY, k)
        assert [d for d, _ in result] == pytest.approx([d for d, _ in reference])

    def test_persistent_index(self, benchmark, knn_indexed_rdd, knn_rdd, k):
        result = benchmark.pedantic(
            lambda: knn_indexed_rdd.knn(QUERY, k), rounds=ROUNDS
        )
        reference = knn(knn_rdd, QUERY, k)
        assert [d for d, _ in result] == pytest.approx([d for d, _ in reference])


class TestKnnShape:
    def test_partitioned_knn_beats_scan(self, best_pair, knn_rdd, knn_partitioned):
        pruned, scan = best_pair(
            lambda: knn(knn_partitioned, QUERY, 10), lambda: knn(knn_rdd, QUERY, 10), rounds=3
        )
        assert pruned < scan

    def test_indexed_knn_beats_partitioned_scan(
        self, best_pair, knn_partitioned, knn_indexed_rdd
    ):
        indexed, scan = best_pair(
            lambda: knn_indexed_rdd.knn(QUERY, 10),
            lambda: knn(knn_partitioned, QUERY, 10),
            rounds=3,
        )
        assert indexed < scan * 1.5  # at minimum competitive; usually faster

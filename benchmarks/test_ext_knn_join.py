"""Extension benchmark: the kNN join (extent-bounded vs exhaustive)."""

from __future__ import annotations

import heapq

import pytest

from repro.core.knn_join import knn_join
from repro.core.stobject import STObject
from repro.evaluation import bsp_budget
from repro.io.datagen import clustered_points, uniform_points
from repro.partitioners.bsp import BSPartitioner

ROUNDS = 3


@pytest.fixture(scope="module")
def probe_rdd(sc, sizes):
    pts = uniform_points(max(100, sizes["join_points"] // 20), seed=1712)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 4).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def target_rdd(sc, sizes):
    pts = clustered_points(sizes["join_points"], num_clusters=10, seed=1713)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def target_partitioned(target_rdd, sizes):
    bsp = BSPartitioner.from_rdd(
        target_rdd, max_cost_per_partition=bsp_budget(sizes["join_points"])
    )
    rdd = target_rdd.partition_by(bsp).persist()
    rdd.count()
    return rdd


@pytest.mark.parametrize("k", [1, 10])
class TestKnnJoin:
    def test_knn_join_unpartitioned_target(self, benchmark, probe_rdd, target_rdd, k):
        rows = benchmark.pedantic(
            lambda: knn_join(probe_rdd, target_rdd, k).collect(), rounds=ROUNDS
        )
        assert all(len(nearest) == k for _left, nearest in rows)

    def test_knn_join_bsp_target(self, benchmark, probe_rdd, target_partitioned, k):
        rows = benchmark.pedantic(
            lambda: knn_join(probe_rdd, target_partitioned, k).collect(),
            rounds=ROUNDS,
        )
        assert all(len(nearest) == k for _left, nearest in rows)


class TestKnnJoinShape:
    def test_correct_against_brute_force(self, benchmark, probe_rdd, target_rdd):
        rows = benchmark.pedantic(
            lambda: knn_join(probe_rdd, target_rdd, 5).collect(), rounds=1
        )
        targets = target_rdd.collect()
        for (lk, _lv), nearest in rows[:10]:
            expected = heapq.nsmallest(
                5, (rk.geo.distance(lk.geo) for rk, _rv in targets)
            )
            assert [d for d, _ in nearest] == pytest.approx(expected)

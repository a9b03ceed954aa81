"""Every executor backend must produce identical operator results.

The backends differ in mechanism -- inline calls on the driver thread,
or a thread pool -- but they implement one contract: ``run_job``
returns the same per-partition values in the same order.  This suite runs the paper's operator mix (filter, join,
kNN, kNN-join, DBSCAN) once per backend over the same data and compares
sorted results, plus one chaos round per backend to pin down that fault
injection behaves identically under each executor.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector
from repro.core.clustering import dbscan
from repro.core.filter import filter_live_index
from repro.core.join import spatial_join
from repro.core.knn import knn
from repro.core.knn_join import knn_join
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.io.datagen import clustered_points, random_polygons
from repro.partitioners.grid import GridPartitioner
from repro.spark.context import SparkContext

BACKENDS = ["sequential", "threads"]

POINTS = 600
POLYGONS = 40


def _run_operator_mix(executor: str) -> dict:
    """The full operator mix on one backend, reduced to comparable values."""
    with SparkContext(
        f"equality-{executor}",
        parallelism=4,
        executor=executor,
        retry_backoff=0.0,
    ) as sc:
        pts = clustered_points(POINTS, num_clusters=6, seed=1704)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 6)
        grid = GridPartitioner.from_rdd(rdd, 3)
        partitioned = rdd.partition_by(grid).persist()

        window = STObject("POLYGON ((300 300, 700 300, 700 700, 300 700, 300 300))")
        polys = random_polygons(POLYGONS, mean_radius_fraction=0.05, seed=1704)
        polys_rdd = sc.parallelize(
            [(STObject(p), i) for i, p in enumerate(polys)], 3
        )
        query = STObject("POINT (500 500)")

        filtered = sorted(
            i for _st, i in filter_live_index(partitioned, window, INTERSECTS).collect()
        )
        joined = sorted(
            (li, ri)
            for (_lk, li), (_rk, ri) in spatial_join(
                partitioned, polys_rdd, INTERSECTS
            ).collect()
        )
        nearest = [i for _d, (_st, i) in knn(partitioned, query, 10)]
        kj = sorted(
            (li, tuple(ri for _d, (_rk, ri) in neighbours))
            for (_lk, li), neighbours in knn_join(polys_rdd, polys_rdd, 3).collect()
        )
        labelled = dbscan(partitioned, 12.0, 5).collect()
        # Cluster labels are assignment-order dependent; compare the
        # *partition of points into clusters*, which must be identical.
        clusters: dict[int, list[int]] = {}
        noise = []
        for _st, (i, label) in labelled:
            if label < 0:
                noise.append(i)
            else:
                clusters.setdefault(label, []).append(i)
        cluster_sets = sorted(tuple(sorted(members)) for members in clusters.values())
        return {
            "filter": filtered,
            "join": joined,
            "knn": nearest,
            "knn_join": kj,
            "dbscan": (sorted(noise), cluster_sets),
            "metrics": sc.metrics.snapshot(),
        }


@pytest.fixture(scope="module")
def per_backend_results():
    return {executor: _run_operator_mix(executor) for executor in BACKENDS}


@pytest.mark.parametrize("executor", [b for b in BACKENDS if b != "sequential"])
@pytest.mark.parametrize("operator", ["filter", "join", "knn", "knn_join", "dbscan"])
def test_backend_matches_sequential(per_backend_results, executor, operator):
    expected = per_backend_results["sequential"][operator]
    assert per_backend_results[executor][operator] == expected


def test_counters_match_across_pools(per_backend_results):
    """Every counter, cache hits included, is a function of the job and
    not of the transport: the pool may reorder attempts, never add any."""
    sequential = per_backend_results["sequential"]["metrics"]
    threads = per_backend_results["threads"]["metrics"]
    assert threads == sequential
    assert threads["tasks_launched"] > 0 and threads["shuffles_executed"] > 0
    assert threads["cache_hits"] > 0


def test_filter_finds_something(per_backend_results):
    # Guard against the suite passing vacuously on empty results.
    assert len(per_backend_results["sequential"]["filter"]) > 0
    assert len(per_backend_results["sequential"]["join"]) > 0
    assert len(per_backend_results["sequential"]["knn"]) == 10


@pytest.mark.parametrize("executor", BACKENDS)
def test_chaos_retry_equivalence(executor):
    """One injected failure per task: retried everywhere, same answer."""
    injector = FaultInjector(seed=11).fail("task.compute", times=1)
    with SparkContext(
        f"chaos-{executor}",
        parallelism=4,
        executor=executor,
        retry_backoff=0.0,
        fault_injector=injector,
    ) as sc:
        rdd = sc.parallelize(range(40), 4).map(lambda x: x * x)
        assert sorted(rdd.collect()) == sorted(x * x for x in range(40))
        assert sc.metrics.tasks_failed == 4
        assert sc.metrics.tasks_retried == 4
    summary = injector.summary()["task.compute"]
    assert summary["injected"] == 4

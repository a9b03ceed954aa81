"""Shared fixtures and workload sizes for the benchmark suite.

Every benchmark regenerates a row/series of the paper's evaluation (see
DESIGN.md, "Per-experiment index").  Sizes are laptop-scale by default;
set ``REPRO_BENCH_SCALE=large`` to get closer to paper-scale inputs, or
``small`` for a quick smoke run.

Set ``REPRO_BENCH_TRACE=1`` to run the whole suite under the execution
tracer: each benchmark's spans are grouped under a span named after the
test, and the full trace is exported as JSON on shutdown
(``REPRO_BENCH_TRACE_PATH``, default ``bench_trace.json``).

Set ``REPRO_CHAOS_SITES`` to run the suite under deterministic fault
injection — e.g. ``REPRO_CHAOS_SITES="task.compute=1x" pytest benchmarks``
measures the retry overhead of every task failing once, and
``REPRO_CHAOS_SITES="cache.get=0.05" REPRO_CHAOS_SEED=7`` simulates a
flaky cache.  The injector's per-site checked/injected counts are
printed on shutdown.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import FaultInjector
from repro.core.stobject import STObject
from repro.evaluation.report import SCALES as FIG4_POINTS
from repro.io.datagen import clustered_points, random_polygons, timed_stobjects
from repro.spark.context import SparkContext

SCALES = {
    "small": {
        "fig4_points": FIG4_POINTS["small"],
        "filter_points": 5_000,
        "join_points": 3_000,
        "join_polygons": 150,
        "knn_points": 5_000,
        "cluster_points": 1_500,
    },
    "medium": {
        "fig4_points": FIG4_POINTS["medium"],
        "filter_points": 20_000,
        "join_points": 10_000,
        "join_polygons": 400,
        "knn_points": 20_000,
        "cluster_points": 4_000,
    },
    "large": {
        "fig4_points": FIG4_POINTS["large"],
        "filter_points": 100_000,
        "join_points": 50_000,
        "join_polygons": 2_000,
        "knn_points": 100_000,
        "cluster_points": 20_000,
    },
}


@pytest.fixture(scope="session")
def sizes() -> dict[str, int]:
    scale = os.environ.get("REPRO_BENCH_SCALE", "medium")
    if scale not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}")
    return SCALES[scale]


@pytest.fixture(scope="session")
def sc():
    tracing = bool(os.environ.get("REPRO_BENCH_TRACE"))
    injector = FaultInjector.from_env()
    context = SparkContext(
        app_name="bench",
        parallelism=4,
        executor="threads",
        tracing=tracing,
        fault_injector=injector,
    )
    yield context
    if tracing:
        path = os.environ.get("REPRO_BENCH_TRACE_PATH", "bench_trace.json")
        context.tracer.export(path)
        print(f"\nbenchmark trace written to {path}")
    if injector is not None:
        print(f"\nchaos injection summary: {injector.summary()}")
    context.stop()


@pytest.fixture
def best_pair(benchmark):
    """``best_pair(measured, other, rounds)``: the best seconds of both
    callables, for a shape test that compares them.

    pytest-benchmark times *measured* and ``time_call`` the other side;
    under ``--benchmark-disable`` the benchmark keeps no stats, so
    :func:`~repro.evaluation.harness.time_pair` times the two together.
    """
    from repro.evaluation.harness import time_call, time_pair

    def pair(measured, other, rounds: int = 2) -> tuple[float, float]:
        benchmark.pedantic(measured, rounds=rounds)
        if benchmark.stats is None:
            return time_pair(measured, other)
        return benchmark.stats.stats.min, time_call(other, repeats=rounds).best

    return pair


@pytest.fixture(autouse=True)
def _bench_trace_span(request, sc):
    """Group each benchmark's spans under a span named after the test."""
    if not sc.tracer.enabled:
        yield
        return
    with sc.tracer.span(request.node.nodeid, kind="benchmark"):
        yield


@pytest.fixture(scope="session")
def filter_events_rdd(sc, sizes):
    """Timed events for the filter benchmarks."""
    objs = list(
        timed_stobjects(
            clustered_points(sizes["filter_points"], num_clusters=12, seed=1705),
            time_range=(0, 1_000_000),
            seed=1705,
        )
    )
    rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 8).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="session")
def join_inputs(sc, sizes):
    """(points, polygons) for the point-in-polygon join benchmarks."""
    pts = clustered_points(sizes["join_points"], num_clusters=8, seed=1706)
    polys = random_polygons(
        sizes["join_polygons"], mean_radius_fraction=0.03, seed=1706
    )
    points_rdd = sc.parallelize(
        [(STObject(p), i) for i, p in enumerate(pts)], 8
    ).persist()
    polys_rdd = sc.parallelize(
        [(STObject(p), i) for i, p in enumerate(polys)], 4
    ).persist()
    points_rdd.count()
    polys_rdd.count()
    return points_rdd, polys_rdd

"""The one-shot evaluation report: the feature table, Figure 4 and the
streaming robustness drives, in one run.

:func:`figure4` is the one definition of the paper's Figure 4: its
input, partitioners, timed joins and checks.  ``benchmarks/run_fig4.py``
prints its table and ``benchmarks/test_fig4_selfjoin.py`` asserts the
paper's shape on its bars.  The spatialbm micro benchmarks and the
ablations are timed by ``benchmarks/`` alone.

Entry point: ``python benchmarks/run_report.py [--scale small|medium]``.
"""

from __future__ import annotations

import os

from repro.baselines import GeoSparkStyle, SpatialSparkStyle
from repro.baselines.geospark import UnsupportedOperation
from repro.core import filter as filter_ops
from repro.core.join import spatial_join
from repro.core.knn import knn
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.evaluation.features import render_feature_table
from repro.evaluation.harness import bsp_budget, render_table, time_call
from repro.io.datagen import clustered_points, self_join_pairs
from repro.partitioners.bsp import BSPartitioner
from repro.spark.context import SparkContext

#: Figure 4's point count per scale; the benchmark suite's
#: ``fig4_points`` reads the same table.
SCALES = {"small": 2_000, "medium": 8_000, "large": 50_000}

#: One Figure-4 bar: ``(system, partitioner)``, the partitioner None
#: for the system's un-partitioned join.
Bar = tuple[str, str | None]


def figure4(sc: SparkContext, n: int, repeats: int) -> dict[Bar, float | None]:
    """Time the paper's Figure 4: the self-join on *n* clustered points,
    per system without spatial partitioning and with its best
    partitioner (GeoSpark's Voronoi, SpatialSpark's Tile, STARK's BSP).

    Returns each bar's best-of-*repeats* seconds, or None where the
    system raised :class:`~repro.baselines.geospark.UnsupportedOperation`
    (the paper's N/A).  Every join is warmed up once and must return the
    :func:`~repro.io.datagen.self_join_pairs` count (*n* unless points
    coincide), and GeoSpark's un-partitioned join must be the one N/A
    bar; anything else raises ``AssertionError``.
    """
    points = clustered_points(n, num_clusters=10, seed=1704)
    pairs = self_join_pairs(points)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(points)], 8).persist()
    rdd.count()
    bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=bsp_budget(n))
    partitioned = rdd.partition_by(bsp).persist()
    partitioned.count()
    # Unpersisted views: like the baselines', every STARK join builds.
    live, live_partitioned = rdd.map(lambda kv: kv), partitioned.map(lambda kv: kv)
    geospark, spatialspark = GeoSparkStyle(), SpatialSparkStyle()
    joins = {
        ("GeoSpark", None): lambda: geospark.spatial_join(rdd, rdd, INTERSECTS, partitioning=None),
        ("GeoSpark", "Voronoi"): lambda: geospark.spatial_join(rdd, rdd, INTERSECTS, "voronoi", 16),
        ("SpatialSpark", None): lambda: spatialspark.broadcast_join(rdd, rdd, INTERSECTS),
        ("SpatialSpark", "Tile"): lambda: spatialspark.tile_join(rdd, rdd, INTERSECTS, 16),
        ("STARK", None): lambda: spatial_join(rdd, live, INTERSECTS),
        ("STARK", "BSP"): lambda: spatial_join(partitioned, live_partitioned, INTERSECTS),
    }

    def measure(bar: Bar, join) -> float | None:
        try:
            result = time_call(lambda: join().count(), repeats=repeats, warmup=1)
        except UnsupportedOperation:
            return None
        if result.payload != pairs:
            raise AssertionError(f"{bar}: {result.payload} pairs, expected {pairs}")
        return result.best

    bars = {bar: measure(bar, join) for bar, join in joins.items()}
    unsupported = [bar for bar, seconds in bars.items() if seconds is None]
    if unsupported != [("GeoSpark", None)]:
        raise AssertionError(
            f"N/A bars {unsupported}; the paper's only one is GeoSpark's un-partitioned join"
        )
    return bars


def render_figure4(n: int, bars: dict[Bar, float | None]) -> str:
    """The :func:`figure4` bars of an *n*-point run as the paper's table."""

    def cell(bar: Bar) -> str:
        seconds = bars[bar]
        text = "N/A" if seconds is None else f"{seconds:.3f}s"
        return text if bar[1] is None else f"{text} ({bar[1]})"

    rows = [
        [system, cell((system, None)), cell((system, best))]
        for system, best in bars
        if best is not None
    ]
    return render_table(
        ["system", "no partitioning", "best partitioner"],
        rows,
        title=f"Figure 4 reproduction: self-join on {n:,} clustered points "
        "(paper, 1,000,000 points on a cluster: GeoSpark N/A / 51.9s; "
        "SpatialSpark 31.1 / 95.9s; STARK 19.8 / 6.3s)",
    )


def streaming_drives() -> tuple[dict, dict]:
    """Two short 2x-overload drives; returns their metrics snapshots.

    Both run the one admission policy, a blocking bounded queue, and get
    one fully late record.  The second also carries a poison record
    (quarantined to the dead-letter queue) and writes its windows to a
    file sink that fails twice under injected ``sink.write`` chaos, so
    its circuit breaker opens and whole windows are dead-lettered.
    Both drives are seeded and synchronous, so the counters are
    deterministic.
    """
    import tempfile

    from repro.chaos import FaultInjector
    from repro.streaming import CircuitBreaker, EventFileSink, StreamingContext

    def make_batches(degraded: bool):
        batches = []
        for b in range(10):
            rows = []
            for i in range(8):
                rid = 8 * b + i
                category = "poison" if degraded and rid == 18 else "cat"
                # One record arrives long after its windows closed.
                t = 0.5 if (b, i) == (9, 0) else float(b)
                rows.append(
                    (
                        STObject(f"POINT ({(7 * rid) % 50} {(11 * rid) % 50})", t),
                        (rid, category),
                    )
                )
            batches.append(rows)
        return batches

    def reject_poison(record):
        _st, (rid, category) = record
        if category == "poison":
            raise ValueError(f"poison record {rid}")
        return record

    def drive(work: str | None) -> dict:
        degraded = work is not None
        injector = (
            FaultInjector(seed=7).fail("sink.write", times=2, per_key=False)
            if degraded
            else None
        )
        with SparkContext(
            "report-overload",
            parallelism=2,
            executor="sequential",
            retry_backoff=0.0,
            fault_injector=injector,
        ) as sc:
            ssc = StreamingContext(
                sc,
                max_pending_batches=2,
                dlq_dir=os.path.join(work, "dlq") if degraded else None,
            )
            _source, events = ssc.queue_stream(make_batches(degraded))
            checked = events.map(reject_poison) if degraded else events
            win = checked.window(length=4.0, slide=2.0)
            win.count_windows()
            if degraded:
                win.for_each_window(
                    EventFileSink(
                        os.path.join(work, "out"),
                        retries=0,
                        breaker=CircuitBreaker(failure_threshold=2, cooldown_windows=1),
                        name="events",
                    )
                )
            # Ingest at twice the processing rate: sustained overload.
            for b in range(10):
                ssc.poll_once(batch_time=float(b))
                if b % 2:
                    ssc.process_pending(max_batches=1)
            ssc.process_pending()
            ssc.stop()
            return ssc.metrics.snapshot()

    with tempfile.TemporaryDirectory(prefix="report-overload-") as work:
        return drive(None), drive(work)


def _streaming_robustness() -> str:
    """The :func:`streaming_drives` counters side by side."""
    blocked, degraded = streaming_drives()
    counters = [
        ("records ingested", "records_ingested"),
        ("records processed", "records_processed"),
        ("records quarantined", "records_quarantined"),
        ("records failed", "records_failed"),
        ("backpressure waits", "backpressure_waits"),
        ("late records dropped", "late_records_dropped"),
        ("late window drops", "late_window_drops"),
        ("windows dead-lettered", "windows_dead_lettered"),
        ("sink breaker opens", "sink_breaker_opens"),
    ]
    rows = [[label, blocked[key], degraded[key]] for label, key in counters]
    return render_table(
        ["counter", "block", "block + poison + failing sink"],
        rows,
        title="streaming robustness: 10-batch 2x-overload drives "
        "(80 records, seeded; see repro.streaming.sinks)",
    )


def _traced_example(n: int) -> str:
    """One Figure-4-style query mix under the execution tracer.

    Runs in its own traced context so the span tree covers exactly the
    example queries; the rendered tree is the report's worked example
    of reading a trace (operator tags, per-task records, pruning).
    """
    with SparkContext(
        "report-trace", parallelism=4, executor="sequential", tracing=True
    ) as sc:
        pts = clustered_points(n, num_clusters=10, seed=1704)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=bsp_budget(n))
        partitioned = rdd.partition_by(bsp).persist()
        partitioned.count()
        sc.tracer.reset()  # scope the trace to the example queries
        window = STObject("POLYGON ((100 100, 350 100, 350 350, 100 350, 100 100))")
        filter_ops.filter_live_index(partitioned, window, INTERSECTS).count()
        knn(partitioned, STObject("POINT (500 500)"), 10)
        tree = sc.tracer.render()
    return "\n".join(
        [
            f"traced example: live-index filter + kNN over {n:,} points (BSP)",
            "-" * 60,
            tree,
        ]
    )


def generate_report(scale: str = "small", repeats: int = 2, trace: bool = False) -> str:
    """Run the report's experiments once and render the full text report.

    With ``trace=True`` a traced example query mix is appended, showing
    the execution-span tree of one filter + kNN run.
    """
    n = SCALES.get(scale)
    if n is None:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    sections = [
        "STARK reproduction -- evaluation report",
        "=" * 44,
        "",
        render_feature_table(),
    ]
    with SparkContext("report", parallelism=4) as sc:
        sections += ["", render_figure4(n, figure4(sc, n, repeats))]
    sections += ["", _streaming_robustness()]
    if trace:
        sections += ["", _traced_example(n)]
    return "\n".join(sections)

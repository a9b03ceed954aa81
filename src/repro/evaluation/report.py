"""The one-shot evaluation report: every reproduced experiment, one run.

:func:`generate_report` executes a compact version of the full
benchmark suite (Figure 4, the feature table, the spatialbm micro
benchmarks and the ablations) and renders the results as plain text --
the "More results of the performance evaluation" companion the paper
keeps in its GitHub repository.

Entry point: ``python benchmarks/run_report.py [--scale small|medium]``.
"""

from __future__ import annotations

import os

from repro.baselines import GeoSparkStyle, SpatialSparkStyle
from repro.core import filter as filter_ops
from repro.core.clustering import dbscan, local_dbscan
from repro.core.join import spatial_join
from repro.core.knn import knn
from repro.core.predicates import CONTAINED_BY, INTERSECTS
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.evaluation.features import render_feature_table
from repro.evaluation.harness import render_table, time_call
from repro.io.datagen import (
    clustered_points,
    self_join_pairs,
    timed_stobjects,
    world_events,
)
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner
from repro.spark.context import SparkContext

SCALES = {
    "small": {"join": 3_000, "filter": 8_000, "cluster": 1_500},
    "medium": {"join": 10_000, "filter": 20_000, "cluster": 4_000},
    "large": {"join": 40_000, "filter": 80_000, "cluster": 15_000},
}


def _fmt(result) -> str:
    return f"{result.best:.3f}s"


def figure4(sc: SparkContext, n: int, repeats: int) -> str:
    """The paper's Figure 4 as a table: the self-join on *n* clustered
    points, per system without spatial partitioning and with that
    system's best partitioner.  Every timed join is warmed up once and
    must return the pairs :func:`~repro.io.datagen.self_join_pairs`
    counts -- *n* when no two points coincide.
    """
    points = clustered_points(n, num_clusters=10, seed=1704)
    pairs = self_join_pairs(points)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(points)], 8).persist()
    rdd.count()
    bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=max(64, n // 16))
    partitioned = rdd.partition_by(bsp).persist()
    partitioned.count()
    # Unpersisted views: like the baselines', every STARK join builds.
    live, live_partitioned = rdd.map(lambda kv: kv), partitioned.map(lambda kv: kv)

    def measure(join) -> str:
        result = time_call(lambda: join().count(), repeats=repeats, warmup=1)
        assert result.payload == pairs, f"wrong result count {result.payload}"
        return _fmt(result)

    geospark, spatialspark = GeoSparkStyle(), SpatialSparkStyle()
    rows = [
        [
            "GeoSpark",
            "N/A",
            measure(lambda: geospark.spatial_join(rdd, rdd, INTERSECTS, "voronoi", 16))
            + " (Voronoi)",
        ],
        [
            "SpatialSpark",
            measure(lambda: spatialspark.broadcast_join(rdd, rdd, INTERSECTS)),
            measure(lambda: spatialspark.tile_join(rdd, rdd, INTERSECTS, 16))
            + " (Tile)",
        ],
        [
            "STARK",
            measure(lambda: spatial_join(rdd, live, INTERSECTS)),
            measure(lambda: spatial_join(partitioned, live_partitioned, INTERSECTS))
            + " (BSP)",
        ],
    ]
    return render_table(
        ["system", "no partitioning", "best partitioner"],
        rows,
        title=f"Figure 4 reproduction: self-join on {n:,} clustered points "
        "(paper, 1,000,000 points on a cluster: GeoSpark N/A / 51.9s; "
        "SpatialSpark 31.1 / 95.9s; STARK 19.8 / 6.3s)",
    )


def _filter_suite(sc: SparkContext, n: int, repeats: int) -> str:
    objs = list(
        timed_stobjects(clustered_points(n, num_clusters=12, seed=1705), seed=1705)
    )
    rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 8).persist()
    rdd.count()
    query = STObject(
        "POLYGON ((100 100, 350 100, 350 350, 100 350, 100 100))", 0, 1_000_000
    )
    bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=max(64, n // 16))
    partitioned = rdd.partition_by(bsp).persist()
    partitioned.count()
    indexed = spatial(partitioned).index(order=10)
    indexed.intersects(query).count()
    # Live mode as in the paper: an unpersisted view builds per query.
    live = partitioned.map_values(lambda v: v)
    filter_ops.filter_live_index(live, query, CONTAINED_BY).count()

    rows = [
        [
            "scan, no partitioning",
            _fmt(time_call(lambda: filter_ops.filter_no_index(rdd, query, CONTAINED_BY).count(), repeats=repeats)),
        ],
        [
            "scan, BSP (pruned)",
            _fmt(time_call(lambda: filter_ops.filter_no_index(partitioned, query, CONTAINED_BY).count(), repeats=repeats)),
        ],
        [
            "live index, BSP",
            _fmt(time_call(lambda: filter_ops.filter_live_index(live, query, CONTAINED_BY).count(), repeats=repeats)),
        ],
        [
            "live index, BSP, persisted RDD (reused)",
            _fmt(time_call(lambda: filter_ops.filter_live_index(partitioned, query, CONTAINED_BY).count(), repeats=repeats)),
        ],
        [
            "persistent index, BSP",
            _fmt(time_call(lambda: indexed.contained_by(query).count(), repeats=repeats)),
        ],
    ]
    return render_table(
        ["configuration", "time"],
        rows,
        title=f"spatialbm filter: containedBy window over {n:,} timed events",
    )


def _knn_suite(sc: SparkContext, n: int, repeats: int) -> str:
    pts = clustered_points(n, num_clusters=10, seed=1707)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8).persist()
    rdd.count()
    bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=max(64, n // 16))
    partitioned = rdd.partition_by(bsp).persist()
    partitioned.count()
    query = STObject("POINT (500 500)")
    rows = []
    for k in (1, 10, 100):
        rows.append(
            [
                str(k),
                _fmt(time_call(lambda: knn(rdd, query, k), repeats=repeats)),
                _fmt(time_call(lambda: knn(partitioned, query, k), repeats=repeats)),
            ]
        )
    return render_table(
        ["k", "full scan", "two-phase (BSP)"],
        rows,
        title=f"spatialbm kNN over {n:,} points",
    )


def _clustering_suite(sc: SparkContext, n: int, repeats: int) -> str:
    pts = clustered_points(n, num_clusters=6, seed=1708, noise_fraction=0.05)
    coords = [(p.x, p.y) for p in pts]
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8).persist()
    rdd.count()
    eps, min_pts = 12.0, 5
    rows = [
        [
            "sequential reference",
            _fmt(time_call(lambda: local_dbscan(coords, eps, min_pts), repeats=repeats)),
        ],
        [
            "MR-DBSCAN (BSP)",
            _fmt(time_call(lambda: dbscan(rdd, eps, min_pts).collect(), repeats=repeats)),
        ],
    ]
    return render_table(
        ["mode", "time"],
        rows,
        title=f"spatialbm clustering: DBSCAN eps={eps} minPts={min_pts} on {n:,} points",
    )


def _partitioning_ablation(sc: SparkContext, n: int) -> str:
    keys = [STObject(p) for p in world_events(n, seed=1709)]
    grid = GridPartitioner(keys, 4)
    bsp = BSPartitioner(keys, max_cost_per_partition=max(64, n // 16))
    rows = [
        ["grid 4x4", "16", f"{grid.imbalance(keys):.2f}"],
        [
            "cost-based BSP",
            str(bsp.num_partitions),
            f"{bsp.imbalance(keys):.2f}",
        ],
    ]
    return render_table(
        ["partitioner", "partitions", "imbalance (max/mean)"],
        rows,
        title=f"partitioning ablation on skewed world data ({n:,} events)",
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
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=max(64, n // 16))
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
    """Run every experiment once and render the full text report.

    With ``trace=True`` a traced example query mix is appended, showing
    the execution-span tree of one filter + kNN run.
    """
    sizes = SCALES.get(scale)
    if sizes is None:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    sections = [
        "STARK reproduction -- evaluation report",
        "=" * 44,
        "",
        render_feature_table(),
    ]
    with SparkContext("report", parallelism=4) as sc:
        sections += ["", figure4(sc, sizes["join"], repeats)]
        sections += ["", _filter_suite(sc, sizes["filter"], repeats)]
        sections += ["", _knn_suite(sc, sizes["filter"], repeats)]
        sections += ["", _clustering_suite(sc, sizes["cluster"], repeats)]
        sections += ["", _partitioning_ablation(sc, sizes["filter"])]
    sections += ["", _streaming_robustness()]
    if trace:
        sections += ["", _traced_example(sizes["join"])]
    return "\n".join(sections)

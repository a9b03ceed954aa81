#!/usr/bin/env python3
"""Streaming throughput and batch-latency benchmark; machine-readable JSON.

Drives a :class:`~repro.streaming.context.StreamingContext` over a
seeded :class:`~repro.streaming.sources.GeneratorSource` with a
representative operator mix -- per-batch stream-static join plus a
windowed DBSCAN hotspot pipeline -- and reports sustained throughput
(records/s over the whole run) and batch-latency percentiles::

    python benchmarks/run_stream.py --batches 40 --rate 500
    python benchmarks/run_stream.py --executors sequential,threads --out BENCH_streaming.json

Two drive modes are measured per executor backend:

- ``drain`` -- batches are processed back-to-back with no pacing, the
  sustained-throughput number (how fast the engine can go);
- ``paced`` -- the threaded poll/process loop at ``--interval``, which
  exercises the bounded queue and reports the latency a steady
  producer would see (queueing time included).

``--mode incremental`` instead measures the keyed-state layer: the
same seeded stream is run twice over sliding windows (4x overlap by
default), once through the ``window()`` path that recomputes every
closing window with the batch operators, and once through the
``continuous()`` path answering from the incrementally maintained
per-cell indexes.  Window membership is the same store-backed state on
both sides, so the comparison is batch operators vs store queries over
the same store.  The two result sets are asserted identical (the
correctness gate) and the report carries ``speedup = recompute_wall /
incremental_wall`` plus the store's bookkeeping counters.

``--mode recovery`` measures the crash-recovery path end to end: the
same seeded stream runs once uninterrupted (the reference), once with
WAL + checkpointing enabled and abandoned at ``--crash-batch``, and is
then restored into a fresh context that finishes the run.  The union of
per-window results across crash and resume must equal the reference
exactly -- divergence is a hard failure (non-zero exit) -- and the
report carries the durability overhead (WAL append cost per batch,
checkpoint write cost) plus the time-to-recover wall.

``--mode cep`` measures the pattern layer: the same seeded stream is
matched once through the incremental NFA path (``patterns()`` with all
four rule types live) and once by the brute-force comparator that
re-scans the full accepted event prefix after every batch with the
oracle (:func:`repro.streaming.cep.brute_force_matches`).  The two
match multisets must be identical per rule (the correctness gate) and
the report carries ``speedup = rescan_wall / nfa_wall`` -- the paper's
motivation for incremental matching -- under the
``bench.streaming_cep/v1`` schema (canonical artifact
``BENCH_cep.json``).  The re-scan comparator is quadratic by design,
so cep mode defaults to a smaller stream unless ``--batches`` /
``--rate`` are given explicitly.

``--mode overload`` measures graceful degradation under sustained
``--overload-factor``x ingest pressure: a seeded generator (with a
deterministic sprinkling of poison records) is polled several times per
processed batch, so the pending queue overflows and the shed policy
engages; keyed state runs under a ``--memory-budget`` so cold cells
spill; the window sink fails probabilistically (the ``sink.write``
chaos site), tripping its circuit breaker and routing windows to the
dead-letter queue.  The run gates hard (non-zero exit) on zero silent
loss: ingested records must equal processed + shed + quarantined +
failed, sheds must be byte-identical across two runs, the in-memory
state bytes must stay under budget, and after ``dlq_replay`` against
the healed sink the output directory must equal a reference run whose
sink never failed.

The JSON schema is ``bench.streaming/v1`` (``bench.streaming_recovery/
v1`` for recovery mode, ``bench.streaming_overload/v1`` for overload
mode) -- stable keys, suitable for CI artifact diffing
(``benchmarks/check_bench_schema.py`` validates a report against any
of them).

The ``processes`` backend spawns workers that re-import ``__main__``,
so this script must be run as a file (as shown above), not piped to
stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.core.knn import knn
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import GeneratorSource, StreamingContext
from repro.streaming.operators import relax_static

DEFAULT_EXECUTORS = ("sequential", "threads")

#: The standing queries for the incremental-vs-recompute comparison:
#: a central range box and a central kNN probe over the generator's
#: default 1000x1000 extent.
INC_RANGE_QUERY = "POLYGON ((300 300, 700 300, 700 700, 300 700, 300 300))"
INC_KNN_QUERY = "POINT (500 500)"
INC_K = 10

#: Reference polygons for the stream-static join: a coarse grid of
#: square "districts" over the generator's default bounds.
def reference_grid(cells: int = 4, extent: float = 1000.0):
    size = extent / cells
    rows = []
    for i in range(cells):
        for j in range(cells):
            x0, y0 = i * size, j * size
            wkt = (
                f"POLYGON (({x0} {y0}, {x0 + size} {y0}, "
                f"{x0 + size} {y0 + size}, {x0} {y0 + size}, {x0} {y0}))"
            )
            rows.append((STObject(wkt), f"district-{i}-{j}"))
    return rows


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile; None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def build_pipeline(ssc: StreamingContext, args) -> None:
    """The benchmarked operator mix over a seeded generator stream."""
    events = ssc.generator_stream(
        rate=args.rate,
        time_step=1.0,
        seed=args.seed,
        limit=args.rate * args.batches,
    )
    joined = events.join_static(reference_grid())
    joined.for_each_rdd(lambda _b, rdd: rdd.count())
    window = events.window(length=float(args.window))
    window.hotspots(eps=30.0, min_pts=5)


def bench_drain(executor: str, args) -> dict:
    """Back-to-back batches: sustained engine throughput."""
    with SparkContext(
        f"stream-bench-{executor}",
        parallelism=args.parallelism,
        executor=executor,
    ) as sc:
        ssc = StreamingContext(sc, batch_interval=args.interval)
        build_pipeline(ssc, args)
        start = time.perf_counter()
        completed = ssc.run_batches(args.batches, batch_times=[0.0] * args.batches)
        wall = time.perf_counter() - start
        ssc.stop()
        return summarize(ssc, wall, completed)


def bench_paced(executor: str, args) -> dict:
    """The threaded loop at the configured interval (queueing included)."""
    with SparkContext(
        f"stream-bench-{executor}-paced",
        parallelism=args.parallelism,
        executor=executor,
    ) as sc:
        ssc = StreamingContext(
            sc,
            batch_interval=args.interval,
            max_pending_batches=args.max_pending,
        )
        build_pipeline(ssc, args)
        start = time.perf_counter()
        ssc.start()
        deadline = start + args.batches * args.interval * 10 + 10.0
        while (
            ssc.metrics.records_ingested < args.rate * args.batches
            and time.perf_counter() < deadline
        ):
            time.sleep(args.interval / 2)
        ssc.stop()
        wall = time.perf_counter() - start
        return summarize(ssc, wall, ssc.metrics.batches_run)


def canon_window_results(range_sink, knn_sink) -> dict:
    """Order-insensitive canonical form of the two query sinks, keyed
    by window bounds -- the equality gate between the two paths."""
    out: dict = {}
    for window, rows in range_sink.results():
        key = (window.start, window.end)
        out.setdefault(key, {})["range"] = sorted(v for _st, v in rows)
    for window, rows in knn_sink.results():
        key = (window.start, window.end)
        out.setdefault(key, {})["knn"] = sorted(
            (round(d, 9), v) for d, (_st, v) in rows
        )
    return out


def bench_incremental(args) -> dict:
    """Sliding-window recompute vs keyed incremental state, same stream.

    Both runs drain the same seeded generator on the sequential
    executor (no scheduling noise), fire the same windows, and answer
    the same standing range + kNN queries; results must match exactly.
    """
    length = float(args.window)
    slide = float(args.slide) if args.slide else length / 4.0
    query = STObject(INC_RANGE_QUERY)
    probe = STObject(INC_KNN_QUERY)
    predicate = relax_static(INTERSECTS)

    def drive(build):
        with SparkContext(
            "stream-bench-incremental",
            parallelism=args.parallelism,
            executor="sequential",
        ) as sc:
            ssc = StreamingContext(sc, batch_interval=args.interval)
            events = ssc.generator_stream(
                rate=args.rate,
                time_step=1.0,
                seed=args.seed,
                limit=args.rate * args.batches,
            )
            sinks = build(events)
            start = time.perf_counter()
            ssc.run_batches(args.batches, batch_times=[0.0] * args.batches)
            ssc.stop()
            wall = time.perf_counter() - start
            return wall, sinks, ssc

    def build_recompute(events):
        win = events.window(length=length, slide=slide)
        range_sink = win.apply(
            lambda _w, rdd: [
                (st, v) for st, v in rdd.collect() if predicate.evaluate(st, query)
            ]
        )
        return {"range": range_sink, "knn": win.knn(probe, INC_K)}

    def build_incremental(events):
        cont = events.continuous(length=length, slide=slide)
        return {
            "range": cont.range(query),
            "knn": cont.knn(probe, INC_K),
            "consumer": cont.consumer,
        }

    recompute_wall, rec_sinks, _ = drive(build_recompute)
    incremental_wall, inc_sinks, _ = drive(build_incremental)

    rec_canon = canon_window_results(rec_sinks["range"], rec_sinks["knn"])
    inc_canon = canon_window_results(inc_sinks["range"], inc_sinks["knn"])
    if rec_canon != inc_canon:
        raise SystemExit(
            "incremental results diverge from window recomputation: "
            f"{len(rec_canon)} vs {len(inc_canon)} windows"
        )

    store = inc_sinks["consumer"].store
    return {
        "window_length": length,
        "window_slide": slide,
        "windows_fired": len(inc_canon),
        "records": args.rate * args.batches,
        "recompute_wall_s": recompute_wall,
        "incremental_wall_s": incremental_wall,
        "speedup": recompute_wall / incremental_wall if incremental_wall > 0 else None,
        "results_equal": True,
        "store": {
            "inserts": store.inserts if store else 0,
            "removes": store.removes if store else 0,
            "cell_rebuilds": store.cell_rebuilds if store else 0,
        },
    }


def bench_recovery(args) -> dict:
    """Crash at ``--crash-batch``, restore, finish; gate on equality.

    Three measured runs over the identical seeded stream on the
    sequential executor: *reference* (no checkpointing), *journaled*
    (WAL + checkpoints, abandoned mid-run without ``stop()``, as a
    crash would), and *resumed* (fresh context, ``restore()``, the
    remaining batches).  The reference also runs once with journaling
    on to isolate the WAL/checkpoint overhead on an uninterrupted run.
    """
    import shutil
    import tempfile

    length = float(args.window)
    slide = float(args.slide) if args.slide else length / 4.0
    crash_at = args.crash_batch if args.crash_batch is not None else args.batches // 2
    if not 0 < crash_at < args.batches:
        raise SystemExit(f"--crash-batch must be in (0, {args.batches})")
    times = [float(b) for b in range(args.batches)]

    def build(sc, checkpoint_dir):
        ssc = StreamingContext(
            sc,
            batch_interval=args.interval,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
        )
        events = ssc.generator_stream(rate=args.rate, time_step=1.0, seed=args.seed)
        sinks = {
            "counts": events.window(length=length, slide=slide).count_windows(),
            "range": events.continuous(length=length, slide=slide).range(
                INC_RANGE_QUERY
            ),
        }
        return ssc, sinks

    def canon(sinks):
        out = {}
        for name, sink in sinks.items():
            for window, value in sink.results():
                out[(name, window.start, window.end)] = (
                    sorted(v for _st, v in value) if isinstance(value, list) else value
                )
        return out

    def drive(checkpoint_dir, n, start_batch=0, restore=False, abandon=False):
        with SparkContext(
            "stream-bench-recovery",
            parallelism=args.parallelism,
            executor="sequential",
        ) as sc:
            ssc, sinks = build(sc, checkpoint_dir)
            recover_wall = report = None
            if restore:
                t0 = time.perf_counter()
                report = ssc.restore(checkpoint_dir)
                recover_wall = time.perf_counter() - t0
                start_batch = report.resumed_batch_id
                n = args.batches - start_batch
            t0 = time.perf_counter()
            if n > 0:
                ssc.run_batches(n, batch_times=times[start_batch : start_batch + n])
            wall = time.perf_counter() - t0
            stats = ssc.checkpoint_manager.stats() if checkpoint_dir else {}
            if not abandon:  # the crash run dies without stop(), as a crash would
                ssc.stop(flush=False)
            return wall, canon(sinks), ssc.metrics, stats, report, recover_wall

    reference_wall, reference, _, _, _, _ = drive(None, args.batches)
    ckpt_dir = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        # Uninterrupted journaled run: the pure durability overhead.
        overhead_wall, _, _, overhead_stats, _, _ = drive(
            os.path.join(ckpt_dir, "overhead"), args.batches
        )
        crash_dir = os.path.join(ckpt_dir, "crash")
        crashed_wall, crashed, _, _, _, _ = drive(crash_dir, crash_at, abandon=True)
        resumed_wall, resumed, metrics, _, report, recover_wall = drive(
            crash_dir, 0, restore=True
        )
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    overlap = set(crashed) & set(resumed)
    union = {**crashed, **resumed}
    if union != reference or any(crashed[k] != resumed[k] for k in overlap):
        raise SystemExit(
            "recovery results diverge from the uninterrupted run: "
            f"{len(union)} windows vs {len(reference)} reference "
            f"({len(overlap)} overlapping)"
        )

    batches = args.batches
    return {
        "window_length": length,
        "window_slide": slide,
        "crash_batch": crash_at,
        "checkpoint_interval": args.checkpoint_interval,
        "windows_total": len(reference),
        "windows_before_crash": len(crashed),
        "windows_after_restore": len(resumed),
        "windows_suppressed": metrics.windows_suppressed,
        "batches_replayed": report.batches_replayed,
        "resumed_batch_id": report.resumed_batch_id,
        "restored_epoch": report.epoch,
        "results_equal": True,
        "reference_wall_s": reference_wall,
        "journaled_wall_s": overhead_wall,
        "journaling_overhead": (
            overhead_wall / reference_wall if reference_wall > 0 else None
        ),
        "time_to_recover_s": recover_wall,
        "crashed_wall_s": crashed_wall,
        "resumed_wall_s": resumed_wall,
        "wal": {
            "appends": overhead_stats["wal_appends"],
            "bytes": overhead_stats["wal_bytes"],
            "append_seconds": overhead_stats["wal_append_seconds"],
            "append_s_per_batch": (
                overhead_stats["wal_append_seconds"] / batches if batches else None
            ),
        },
        "checkpoints": {
            "written": overhead_stats["checkpoints_written"],
            "seconds": overhead_stats["checkpoint_seconds"],
            "segments_pruned": overhead_stats["segments_pruned"],
        },
    }


#: The CEP geofence for the entered/exited sequence rule: a central
#: district of the generator's default 1000x1000 extent.
CEP_FENCE = "POLYGON ((350 350, 650 350, 650 650, 350 650, 350 350))"

#: Event-time lateness bound for cep mode: the generator emits batches
#: in time order, so one step of slack never drops a record.
CEP_LATENESS = 1.0


def cep_rules(args):
    """All four rule types over the generator's (id, category) values.

    Selective category guards keep the brute-force comparator's DFS
    bounded; the thresholds scale with ``--rate`` so the windowed rules
    stay discriminative instead of firing on every window.
    """
    from repro.streaming import absence, aggregate, count, sequence, step

    return [
        sequence(
            "escalation",
            steps=[step(category="accident"), step(category="protest")],
            within=1.0,
        ),
        sequence(
            "fence-visit",
            steps=[step(entered=CEP_FENCE), step(exited=CEP_FENCE)],
            within=4.0,
            group_by=lambda st, value: value[1],
        ),
        absence(
            "sports-gap",
            expect=step(category="sports"),
            within=0.15,
        ),
        count(
            "burst",
            step(),
            within=2.0,
            threshold=max(1, args.rate // 4),
            group_by=lambda st, value: value[1],
        ),
        aggregate(
            "eastward",
            step(),
            field=lambda st, value: st.geo.centroid().x,
            within=2.0,
            threshold=500.0,
            agg="avg",
        ),
    ]


def bench_cep(args) -> dict:
    """Incremental NFA matching vs brute-force re-scan; gate on equality.

    Two measured passes over the identical seeded stream on the
    sequential executor: the *NFA* pass drives the real streaming
    pipeline through ``patterns()``; the *re-scan* pass replays the
    same batches and, after each one, re-runs the oracle over the
    entire accepted prefix at the engine's watermark -- what a system
    without partial-match state would have to do.  The final multisets
    of canonical matches must agree per rule, else hard failure.
    """
    from collections import Counter

    from repro.streaming.cep import brute_force_matches, canonical

    rules = cep_rules(args)
    limit = args.rate * args.batches
    times = [float(b) for b in range(args.batches)]

    def make_stream(ssc):
        return ssc.generator_stream(
            rate=args.rate, time_step=1.0, seed=args.seed, limit=limit
        )

    # -- NFA pass: the real pipeline, matches emitted incrementally.
    with SparkContext(
        "stream-bench-cep", parallelism=args.parallelism, executor="sequential"
    ) as sc:
        ssc = StreamingContext(sc, batch_interval=args.interval)
        stream = make_stream(ssc).patterns(*rules, lateness=CEP_LATENESS)
        sink = stream.matches()
        start = time.perf_counter()
        ssc.run_batches(args.batches, batch_times=times)
        nfa_wall = time.perf_counter() - start
        ssc.stop(flush=False)
        consumer = stream.consumer
        store = consumer.store
        nfa_metrics = ssc.metrics

    nfa_matches: dict[str, Counter] = {rule.name: Counter() for rule in rules}
    for rule_name, match in sink.results():
        nfa_matches[rule_name][canonical(match)] += 1

    # -- Re-scan pass: same batches (collected untimed), then the
    # quadratic comparator, timed over pure matching work only.
    batches: list[list] = []
    with SparkContext(
        "stream-bench-cep-collect",
        parallelism=args.parallelism,
        executor="sequential",
    ) as sc:
        ssc = StreamingContext(sc, batch_interval=args.interval)
        make_stream(ssc).for_each_rdd(
            lambda _b, rdd: batches.append(rdd.collect())
        )
        ssc.run_batches(args.batches, batch_times=times)
        ssc.stop(flush=False)

    prefix: list = []
    rescan_matches: dict[str, Counter] = {}
    scans = 0
    start = time.perf_counter()
    for batch in batches:
        prefix.extend(batch)
        if not prefix:
            continue
        watermark = max(st.time.start for st, _v in prefix) - CEP_LATENESS
        for rule in rules:
            found = brute_force_matches(prefix, rule, watermark=watermark)
            rescan_matches[rule.name] = Counter(canonical(m) for m in found)
            scans += 1
    rescan_wall = time.perf_counter() - start

    if nfa_matches != rescan_matches:
        diverged = sorted(
            name
            for name in nfa_matches
            if nfa_matches[name] != rescan_matches.get(name, Counter())
        )
        raise SystemExit(
            f"NFA matches diverge from the brute-force re-scan: {diverged}"
        )

    total = sum(sum(c.values()) for c in nfa_matches.values())
    return {
        "rules": [rule.name for rule in rules],
        "events": limit,
        "lateness": CEP_LATENESS,
        "late_dropped": consumer.late_dropped,
        "matches_total": total,
        "matches": {name: sum(c.values()) for name, c in nfa_matches.items()},
        "matches_emitted": nfa_metrics.matches_emitted,
        "nfa_wall_s": nfa_wall,
        "rescan_wall_s": rescan_wall,
        "rescan_scans": scans,
        "speedup": rescan_wall / nfa_wall if nfa_wall > 0 else None,
        "results_equal": True,
        "store": {
            "inserts": store.inserts if store else 0,
            "removes": store.removes if store else 0,
            "cells_spilled": store.cells_spilled if store else 0,
        },
    }


#: The generator category that marks a record as poison in overload mode.
POISON_CATEGORY = "__poison__"


def explode_on_poison(record):
    """The overload pipeline's tripwire map: crash on the poison sentinel."""
    _st, (event_id, category) = record
    if category == POISON_CATEGORY:
        raise ValueError(f"poison record {event_id}")
    return record


def read_window_files(directory: str) -> dict[str, str]:
    """``{file name: contents}`` for a sink's committed window targets."""
    out: dict[str, str] = {}
    if not os.path.isdir(directory):
        return out
    for name in sorted(os.listdir(directory)):
        if name.endswith("._tmp"):
            continue
        with open(os.path.join(directory, name)) as fh:
            out[name] = fh.read()
    return out


def bench_overload(args) -> dict:
    """Sustained overload + chaos sinks; gate on zero silent loss.

    Three drives of the identical seeded stream on the sequential
    executor: *reference* (healthy sink, same overload and poisons),
    *chaos* (probabilistic ``sink.write`` faults through the breaker
    and DLQ) and a *repeat* of the chaos run pinning shed determinism.
    After the chaos run the DLQ is reopened, ``dlq_replay`` re-delivers
    the dead-lettered windows to the healed sink, and the resulting
    output directory must equal the reference's exactly.
    """
    import shutil
    import tempfile

    from repro.chaos.injector import FaultInjector
    from repro.streaming import CircuitBreaker, DeadLetterQueue, EventFileSink
    from repro.streaming.dlq import dlq_replay
    from repro.streaming.overload import DEGRADATION_LEVELS

    length = float(args.window)
    slide = float(args.slide) if args.slide else length / 4.0
    factor = args.overload_factor
    budget = args.memory_budget
    if factor < 2:
        raise SystemExit("--overload-factor must be >= 2 to overload the queue")

    def drive(work: str, sink_faults: bool) -> dict:
        with SparkContext(
            "stream-bench-overload",
            parallelism=args.parallelism,
            executor="sequential",
        ) as sc:
            if sink_faults:
                sc.fault_injector = FaultInjector(seed=args.seed).fail(
                    "sink.write", probability=args.sink_fail_prob
                )
            ssc = StreamingContext(
                sc,
                batch_interval=args.interval,
                max_pending_batches=args.max_pending,
                shed_policy=args.shed_policy,
                shed_seed=args.seed,
                dlq_dir=os.path.join(work, "dlq"),
            )
            events = ssc.generator_stream(
                rate=args.rate,
                time_step=1.0,
                seed=args.seed,
                poison_every=args.poison_every,
                poison_value=POISON_CATEGORY,
            )
            checked = events.map(explode_on_poison)
            cont = checked.continuous(
                length=length,
                slide=slide,
                memory_budget_bytes=budget,
                spill_dir=os.path.join(work, "spill"),
            )
            cont.range(INC_RANGE_QUERY)
            sink = EventFileSink(
                os.path.join(work, "out"),
                retries=1,
                breaker=CircuitBreaker(failure_threshold=2, cooldown_windows=2),
                name="events",
            )
            checked.window(length=length, slide=slide).for_each_window(sink)

            worst = 0
            peak_bytes = 0
            budget_held = True
            start = time.perf_counter()
            for _ in range(args.batches):
                for _ in range(factor):
                    ssc.poll_once(batch_time=0.0)
                ssc.process_pending(max_batches=1)
                store = cont.consumer.store
                if store is not None:
                    peak_bytes = max(peak_bytes, store.bytes_in_memory)
                    if store.bytes_in_memory > budget:
                        budget_held = False
                worst = max(
                    worst, DEGRADATION_LEVELS.index(ssc.metrics.degradation)
                )
            ssc.process_pending()
            ssc.stop()
            # The shutdown flush fires the remaining windows (and can
            # trip the breaker); fold its ladder reading in too.
            worst = max(worst, DEGRADATION_LEVELS.index(ssc.metrics.degradation))
            wall = time.perf_counter() - start
            store = cont.consumer.store
            return {
                "wall_s": wall,
                "metrics": ssc.metrics.snapshot(),
                "worst_degradation": DEGRADATION_LEVELS[worst],
                "peak_state_bytes": peak_bytes,
                "budget_held": budget_held,
                "store": {
                    "cells_spilled": store.cells_spilled if store else 0,
                    "cells_loaded": store.cells_loaded if store else 0,
                    "spill_failures": store.spill_failures if store else 0,
                    "spilled_bytes": store.spilled_bytes if store else 0,
                },
                "sink": {
                    "committed": sink.committed,
                    "skipped": sink.skipped,
                    "retries_used": sink.retries_used,
                    "failures": sink.failures,
                    "dead_lettered": sink.dead_lettered,
                },
                "breaker": sink.breaker.snapshot(),
                "files": read_window_files(os.path.join(work, "out")),
            }

    work_root = tempfile.mkdtemp(prefix="bench-overload-")
    try:
        reference = drive(os.path.join(work_root, "reference"), sink_faults=False)
        chaos = drive(os.path.join(work_root, "chaos"), sink_faults=True)
        repeat = drive(os.path.join(work_root, "repeat"), sink_faults=True)

        shed_keys = (
            "batches_shed",
            "records_shed",
            "records_ingested",
            "records_processed",
            "records_quarantined",
        )
        sheds_deterministic = all(
            chaos["metrics"][key] == repeat["metrics"][key] for key in shed_keys
        )
        m = chaos["metrics"]
        balanced = m["records_ingested"] == (
            m["records_processed"]
            + m["records_shed"]
            + m["records_quarantined"]
            + m["records_failed"]
        )

        # Heal the sink (no injector) and replay the dead-lettered windows.
        chaos_out = os.path.join(work_root, "chaos", "out")
        dlq = DeadLetterQueue(os.path.join(work_root, "chaos", "dlq"))
        with SparkContext(
            "stream-bench-overload-replay",
            parallelism=args.parallelism,
            executor="sequential",
        ) as sc:
            healed = EventFileSink(chaos_out, name="events")
            windows_replayed = dlq_replay(dlq, healed, sc)
        poison_entries = dlq.poison_records()
        dlq_windows = len(dlq.sink_windows("events"))
        dlq.close()
        replay_matches = read_window_files(chaos_out) == reference["files"]
        provenance_ok = bool(poison_entries) and all(
            entry["batch_id"] is not None and entry["source"] and entry["error"]
            for entry in poison_entries
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    gates = {
        "accounting_balanced": balanced,
        "sheds_deterministic": sheds_deterministic,
        "budget_held": chaos["budget_held"],
        "spill_engaged": chaos["store"]["cells_spilled"] > 0,
        "shed_engaged": m["batches_shed"] > 0,
        "dead_letter_engaged": chaos["sink"]["dead_lettered"] > 0,
        "poison_quarantined": m["records_quarantined"] > 0,
        "poison_provenance_complete": provenance_ok,
        "replay_matches_reference": replay_matches,
    }
    failed = sorted(name for name, ok in gates.items() if not ok)
    if failed:
        raise SystemExit(f"overload gates failed: {failed}")

    return {
        "window_length": length,
        "window_slide": slide,
        "overload_factor": factor,
        "memory_budget_bytes": budget,
        **gates,
        "worst_degradation": chaos["worst_degradation"],
        "peak_state_bytes": chaos["peak_state_bytes"],
        "wall_s": chaos["wall_s"],
        "reference_wall_s": reference["wall_s"],
        "windows_reference": len(reference["files"]),
        "metrics": m,
        "store": chaos["store"],
        "sink": chaos["sink"],
        "breaker": chaos["breaker"],
        "dlq": {
            "sink_windows": dlq_windows,
            "poison_records": len(poison_entries),
            "windows_replayed": windows_replayed,
        },
    }


def summarize(ssc: StreamingContext, wall: float, completed: int) -> dict:
    latencies = [latency for _b, _n, latency, _q in ssc.batch_latencies]
    records = ssc.metrics.records_ingested
    return {
        "wall_s": wall,
        "batches_completed": completed,
        "records": records,
        "records_per_s": records / wall if wall > 0 else None,
        "batch_latency_s": {
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "max": max(latencies) if latencies else None,
        },
        "metrics": ssc.metrics.snapshot(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batches", type=int, default=30)
    parser.add_argument("--rate", type=int, default=300, help="records per batch")
    parser.add_argument("--window", type=float, default=5.0, help="event-time window length")
    parser.add_argument(
        "--slide",
        type=float,
        default=None,
        help="window slide for incremental mode (default: window / 4)",
    )
    parser.add_argument(
        "--mode",
        default="throughput,incremental",
        help="comma-separated subset of {throughput, incremental}, or one "
        "of 'recovery' / 'overload' / 'cep'",
    )
    parser.add_argument(
        "--overload-factor",
        type=int,
        default=5,
        help="overload mode: source polls per processed batch",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=32768,
        help="overload mode: keyed-state in-memory byte budget",
    )
    parser.add_argument(
        "--shed-policy",
        default="shed_oldest",
        help="overload mode: admission policy for the full pending queue",
    )
    parser.add_argument(
        "--poison-every",
        type=int,
        default=800,
        help="overload mode: every Nth generated record is poison",
    )
    parser.add_argument(
        "--sink-fail-prob",
        type=float,
        default=0.4,
        help="overload mode: per-attempt sink.write fault probability",
    )
    parser.add_argument(
        "--crash-batch",
        type=int,
        default=None,
        help="recovery mode: abandon the journaled run after this many "
        "batches (default: batches // 2)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=4,
        help="recovery mode: checkpoint every N batches",
    )
    parser.add_argument("--interval", type=float, default=0.05, help="paced batch interval (s)")
    parser.add_argument("--max-pending", type=int, default=4)
    parser.add_argument("--parallelism", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1704)
    parser.add_argument(
        "--executors",
        default=",".join(DEFAULT_EXECUTORS),
        help="comma-separated backends to benchmark",
    )
    parser.add_argument("--out", default="BENCH_streaming.json")
    args = parser.parse_args()

    modes = {name.strip() for name in args.mode.split(",") if name.strip()}
    unknown = modes - {"throughput", "incremental", "recovery", "overload", "cep"}
    if unknown:
        raise SystemExit(f"unknown --mode entries: {sorted(unknown)}")
    if "cep" in modes:
        if modes != {"cep"}:
            raise SystemExit(
                "--mode cep writes its own report schema and cannot be "
                "combined with other modes"
            )
        if args.out == parser.get_default("out"):
            args.out = "BENCH_cep.json"
        # The re-scan comparator is quadratic; shrink the default stream
        # so the baseline finishes promptly (explicit flags still win).
        if args.batches == parser.get_default("batches"):
            args.batches = 12
        if args.rate == parser.get_default("rate"):
            args.rate = 60
        print("== CEP: incremental NFA vs brute-force re-scan ==", flush=True)
        cep = bench_cep(args)
        print(
            f"  events={cep['events']}  matches={cep['matches_total']} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(cep['matches'].items()))})  "
            f"nfa={1000 * cep['nfa_wall_s']:.1f} ms  "
            f"rescan={1000 * cep['rescan_wall_s']:.1f} ms  "
            f"speedup=x{cep['speedup']:.2f}"
        )
        report = {
            "schema": "bench.streaming_cep/v1",
            "created_unix": time.time(),
            "host": {"cpus": os.cpu_count()},
            "config": {
                "batches": args.batches,
                "rate": args.rate,
                "parallelism": args.parallelism,
                "seed": args.seed,
            },
            "cep": cep,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nreport written to {args.out}")
        return
    if "overload" in modes:
        if modes != {"overload"}:
            raise SystemExit(
                "--mode overload writes its own report schema and cannot "
                "be combined with other modes"
            )
        if args.out == parser.get_default("out"):
            args.out = "BENCH_overload.json"
        print("== graceful degradation under overload ==", flush=True)
        overload = bench_overload(args)
        print(
            f"  ingested={overload['metrics']['records_ingested']} "
            f"processed={overload['metrics']['records_processed']} "
            f"shed={overload['metrics']['records_shed']} "
            f"quarantined={overload['metrics']['records_quarantined']}  "
            f"spilled cells={overload['store']['cells_spilled']}  "
            f"dead-lettered={overload['sink']['dead_lettered']} "
            f"(replayed={overload['dlq']['windows_replayed']})  "
            f"worst={overload['worst_degradation']}"
        )
        report = {
            "schema": "bench.streaming_overload/v1",
            "created_unix": time.time(),
            "host": {"cpus": os.cpu_count()},
            "config": {
                "batches": args.batches,
                "rate": args.rate,
                "window": args.window,
                "overload_factor": args.overload_factor,
                "max_pending": args.max_pending,
                "shed_policy": args.shed_policy,
                "memory_budget": args.memory_budget,
                "poison_every": args.poison_every,
                "sink_fail_prob": args.sink_fail_prob,
                "parallelism": args.parallelism,
                "seed": args.seed,
            },
            "overload": overload,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nreport written to {args.out}")
        return
    if "recovery" in modes:
        if modes != {"recovery"}:
            raise SystemExit(
                "--mode recovery writes its own report schema and cannot "
                "be combined with other modes"
            )
        if args.out == parser.get_default("out"):
            args.out = "BENCH_streaming_recovery.json"
        print("== crash recovery ==", flush=True)
        recovery = bench_recovery(args)
        print(
            f"  windows={recovery['windows_total']} "
            f"(crash@batch {recovery['crash_batch']}: "
            f"{recovery['windows_before_crash']} before, "
            f"{recovery['windows_after_restore']} after, "
            f"{recovery['windows_suppressed']} suppressed)  "
            f"replayed={recovery['batches_replayed']} batches  "
            f"recover={1000 * recovery['time_to_recover_s']:.1f} ms  "
            f"journal overhead=x{recovery['journaling_overhead']:.2f}"
        )
        report = {
            "schema": "bench.streaming_recovery/v1",
            "created_unix": time.time(),
            "host": {"cpus": os.cpu_count()},
            "config": {
                "batches": args.batches,
                "rate": args.rate,
                "window": args.window,
                "crash_batch": recovery["crash_batch"],
                "checkpoint_interval": args.checkpoint_interval,
                "parallelism": args.parallelism,
                "seed": args.seed,
            },
            "recovery": recovery,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nreport written to {args.out}")
        return

    executors = [name.strip() for name in args.executors.split(",") if name.strip()]
    results: dict[str, dict] = {}
    if "throughput" in modes:
        for executor in executors:
            print(f"== {executor} ==", flush=True)
            drain = bench_drain(executor, args)
            paced = bench_paced(executor, args)
            results[executor] = {"drain": drain, "paced": paced}
            for mode, row in results[executor].items():
                p50 = row["batch_latency_s"]["p50"]
                p95 = row["batch_latency_s"]["p95"]
                print(
                    f"  {mode:<6} {row['records_per_s'] or 0.0:10.0f} rec/s   "
                    f"p50={1000 * (p50 or 0):.1f} ms  p95={1000 * (p95 or 0):.1f} ms  "
                    f"batches={row['batches_completed']}"
                )

    incremental = None
    if "incremental" in modes:
        print("== incremental vs recompute ==", flush=True)
        incremental = bench_incremental(args)
        print(
            f"  recompute={incremental['recompute_wall_s'] * 1000:.1f} ms  "
            f"incremental={incremental['incremental_wall_s'] * 1000:.1f} ms  "
            f"speedup=x{incremental['speedup']:.2f}  "
            f"windows={incremental['windows_fired']}  "
            f"rebuilds={incremental['store']['cell_rebuilds']}"
        )

    report = {
        "schema": "bench.streaming/v1",
        "created_unix": time.time(),
        "host": {"cpus": os.cpu_count()},
        "config": {
            "batches": args.batches,
            "rate": args.rate,
            "window": args.window,
            "interval": args.interval,
            "max_pending": args.max_pending,
            "parallelism": args.parallelism,
            "seed": args.seed,
        },
        "executors": results,
        "incremental": incremental,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nreport written to {args.out}")


if __name__ == "__main__":
    main()

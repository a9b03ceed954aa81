"""The two streaming workloads.

``stream_sliding_drain`` drives ``run_batch`` back to back (closed loop)
through overlapping sliding windows over the keyed state store: insert,
evict, rebuild and query -- no durability at all.

``stream_durable_paced`` uses the same engine the other way round: an
open loop (a feeder thread pushes one pre-built batch every 50 ms,
whatever the processor does) into the threaded ``ssc.start()`` drive
with WAL, checkpoints, a durable event-file sink and four CEP rules;
then a crash/restore cycle of the same stream.  ``latency_*`` is the
micro-batch latency of the paced phase (poll to completion, the
program's ``batch_latencies``), ``emit_lag_*`` the due time of the last
event contributing to a result to the moment that result reaches the
benchmark's callback, ``recovery_s`` one ``restore()`` call, and
``throughput_per_s`` the rate at which the same durable pipeline drains
the stream back to back before it is abandoned (the paced phase's rate
would only echo the feeder's constant).  The host probe is read by the
waiting main thread during the paced phase, between chunks of the drain
and around every restore; the emit lags stay raw, being made of waiting.

Set-up (``setup_s``) is generate -> write the event file -> parse it
back with ``repro.io.readers`` into batches; building the context and
the pipeline, and the reference computations, are outside it.
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
import statistics
import threading
import time
from collections import Counter
from types import SimpleNamespace

import gen
from harness import (
    OVERRUN_FACTOR,
    P95_MIN_SAMPLES,
    WARMUP_SHARE,
    Measured,
    Series,
    clock,
    percentile,
    spark_counters,
    timed_loop,
)

from repro import Envelope, SparkContext, STObject
from repro.io.readers import parse_event_line, write_event_file
from repro.streaming import (
    EventFileSink,
    StreamingContext,
    StreamSource,
    absence,
    aggregate,
    brute_force_matches,
    count,
    sequence,
    step,
)

UNIVERSE = (0.0, 0.0, gen.EXTENT, gen.EXTENT)


class ListSource(StreamSource):
    """A benchmark-owned source: pre-built batches, one per poll.

    Speaks the cursor protocol (position = batches handed out), so a
    restored context resumes exactly after the replayed WAL tail.
    """

    name = "bench-list"

    def __init__(self, batches: list[list]) -> None:
        self._batches = batches
        self._position = 0
        self._last_delta: int | None = None

    def poll(self) -> list:
        if self._position >= len(self._batches):
            self._last_delta = 0
            return []
        rows = self._batches[self._position]
        self._position += 1
        self._last_delta = 1
        return rows

    def cursor(self):
        return self._position

    def restore_cursor(self, snapshot) -> None:
        self._position = int(snapshot)

    def last_poll_delta(self):
        return self._last_delta

    def apply_delta(self, delta) -> None:
        self._position += int(delta)


def load_batches(rows: list[gen.Row], batch_size: int, ctx) -> list[list]:
    """Event rows -> file -> parsed ``(STObject, (id, category))`` batches."""
    path = os.path.join(ctx.dirs.new(), "stream-events.txt")
    write_event_file(rows, path)
    records = []
    # The benchmark drives the reader line by line here, so the span
    # around that call into the ``io`` layer is its own.
    with ctx.span("io.read"), open(path) as f:
        for line in f:
            event_id, category, t, wkt = parse_event_line(line)
            records.append((STObject(wkt, t), (event_id, category)))
    return [records[i:i + batch_size] for i in range(0, len(records), batch_size)]


def stream_counters(ssc: StreamingContext) -> dict[str, float]:
    """The stream's and its batch context's public counters, by name."""
    m = ssc.metrics
    return {
        **spark_counters(ssc.spark_context),
        "batches_run": m.batches_run,
        "batch_retries": m.batch_retries,
        "backpressure_waits": m.backpressure_waits,
        "windows_fired": m.windows_emitted - m.matches_emitted,
        "late_records_dropped": m.late_records_dropped,
        "matches_emitted": m.matches_emitted,
        "records_ingested": m.records_ingested,
        "checkpoints_written": m.checkpoints_written,
        "backlog_max_batches": max((row[3] for row in ssc.batch_latencies), default=0),
    }


def store_counters(*consumers) -> dict[str, float]:
    """Keyed-state totals over the given state-bearing consumers."""
    stores = [c.store for c in consumers if c.store is not None]
    return {
        "state_inserts": sum(s.inserts for s in stores),
        "state_removes": sum(s.removes for s in stores),
        "state_cell_rebuilds": sum(s.cell_rebuilds for s in stores),
        "state_snapshot_bytes": sum(
            len(pickle.dumps(c.snapshot_state(), pickle.HIGHEST_PROTOCOL)) for c in consumers
        ),
    }


# ---------------------------------------------------------------------------


class StreamSlidingDrain:
    name = "stream_sliding_drain"
    why = (
        "4x-overlapping sliding windows over the keyed store, drained back to back: "
        "insert/evict/rebuild and the standing queries do the work, the durable layers none"
    )
    traced_share = 0.5

    #: Micro-batches per second of ``--seconds`` (frozen).
    batches_per_second = 50.0
    BATCH = 250
    LENGTH = 8.0
    SLIDE = 2.0
    RANGE_BOX = (420.0, 420.0, 580.0, 580.0)
    KNN_POINT = (500.0, 500.0)
    K = 10
    DISTRICTS = 4

    def generate(self, seed: int, scale: float, seconds: float):
        # A longer run extends the same seeded stream; it never changes
        # the prefix a shorter run sees.
        rng = random.Random(seed)
        batch = max(20, round(self.BATCH * scale))
        batches = self.plan(seconds)[1]
        centres = gen.cluster_centres(rng)
        rows, coords = [], []
        for b in range(batches):
            for i in range(batch):
                x, y = gen.clustered_point(rng, centres, 120.0)
                t = b + i / batch  # one event-time unit per micro-batch
                rid = len(rows)
                rows.append((rid, gen.CATEGORIES[rid % 4], t, gen.point_wkt(x, y)))
                coords.append((x, y, t))
        return SimpleNamespace(
            rows=rows, coords=coords, batch=batch, seed=seed, digest=gen.digest(rows)
        )

    def setup(self, inputs, ctx):
        return SimpleNamespace(batches=load_batches(inputs.rows, inputs.batch, ctx))

    def close(self, state) -> None:
        ssc = getattr(state, "ssc", None)
        if ssc is not None:
            ssc.stop(flush=False)
            state.sc.stop()

    def plan(self, seconds: float) -> tuple[int, int]:
        """``(warm-up batches, all batches)`` for a run of *seconds*."""
        timed = max(20, round(self.batches_per_second * seconds))
        warm = max(int(self.LENGTH), round(timed * WARMUP_SHARE))
        return warm, warm + timed

    def measure(self, state, inputs, seconds, ctx) -> Measured:
        warm, total = self.plan(seconds)
        total = min(total, len(state.batches))
        sc = state.sc = SparkContext("bench-drain", parallelism=4, executor="threads")
        ssc = state.ssc = StreamingContext(sc)
        source = ListSource(state.batches[:total])
        events = ssc.stream(source)
        districts = [
            (STObject(gen.box_wkt(*box)), did) for did, box in gen.grid_districts(self.DISTRICTS)
        ]
        state.join_counts = events.join_static(districts).count_batches()
        windows = events.continuous(
            length=self.LENGTH, slide=self.SLIDE, universe=Envelope(*UNIVERSE)
        )
        state.range_sink = windows.range(STObject(gen.box_wkt(*self.RANGE_BOX)))
        state.knn_sink = windows.knn(STObject(gen.point_wkt(*self.KNN_POINT)), self.K)
        consumer = windows.consumer

        ctx.discard_spans()
        for b in range(warm):
            ssc.run_batch(batch_time=float(b))
        before = stream_counters(ssc)
        store = consumer.store
        state_before = (store.inserts, store.removes, store.cell_rebuilds)
        sizes = [store.size]

        def run_batch(index: int) -> None:
            if not ssc.run_batch(batch_time=float(warm + index)):
                raise RuntimeError("batch shed, skipped or failed")
            sizes.append(store.size)

        loop = timed_loop(total - warm, run_batch, seconds, ctx)
        done = len(loop.series.latencies)
        after = stream_counters(ssc)
        counters = {k: after[k] - before[k] for k in after}
        counters["backlog_max_batches"] = after["backlog_max_batches"]
        counters.update(
            state_inserts=store.inserts - state_before[0],
            state_removes=store.removes - state_before[1],
            state_cell_rebuilds=store.cell_rebuilds - state_before[2],
            state_windows_fired=counters["windows_fired"],
            state_size_records_max=max(sizes),
            state_snapshot_bytes=len(
                pickle.dumps(consumer.snapshot_state(), pickle.HIGHEST_PROTOCOL)
            ),
            io_records_read=sum(len(rows) for rows in state.batches),
        )
        state.batches_done = warm + done
        return Measured(
            timed=loop.series,
            units_per_op=inputs.batch,
            wall=loop.wall,
            attempted=done,
            failed=loop.failed,
            truncated=loop.truncated,
            counters=counters,
            detail={"batches": done, "records": done * inputs.batch},
        )

    def verify(self, state, inputs, measured):
        """Recompute every fired window and every batch's join count."""
        state.ssc.stop(flush=True)
        coords = inputs.coords
        x0, y0, x1, y1 = self.RANGE_BOX
        qx, qy = self.KNN_POINT
        limit = state.batches_done * inputs.batch
        checked = wrong = 0
        for window, got in state.range_sink.results():
            lo, hi = window_slice(window, inputs.batch, limit)
            want = {
                rid for rid in range(lo, hi)
                if x0 <= coords[rid][0] <= x1 and y0 <= coords[rid][1] <= y1
            }
            checked += 1
            wrong += {value[0] for _st, value in got} != want
        for window, got in state.knn_sink.results():
            lo, hi = window_slice(window, inputs.batch, limit)
            want = sorted(
                ((coords[rid][0] - qx) ** 2 + (coords[rid][1] - qy) ** 2) ** 0.5
                for rid in range(lo, hi)
            )[: self.K]
            checked += 1
            wrong += not (
                len(got) == len(want)
                and all(abs(d - w) <= 1e-9 for (d, _kv), w in zip(got, want))
            )
        side = gen.EXTENT / self.DISTRICTS
        for batch_id, got in state.join_counts.results():
            lo = batch_id * inputs.batch
            want = 0
            for x, y, _t in coords[lo:lo + inputs.batch]:
                # A point on a shared district edge meets both districts.
                nx = 2 if x % side == 0.0 and 0.0 < x < gen.EXTENT else 1
                ny = 2 if y % side == 0.0 and 0.0 < y < gen.EXTENT else 1
                want += nx * ny
            checked += 1
            wrong += got != want
        return checked, wrong, [f"windows checked: {len(state.range_sink)}"]


def window_slice(window, batch: int, limit: int) -> tuple[int, int]:
    """Record-id range of ``[window.start, window.end)``: ids are in
    event-time order, *batch* ids per time unit, *limit* ids ingested."""
    lo = max(0, round(window.start * batch))
    hi = min(limit, round(window.end * batch))
    return lo, max(lo, hi)


# ---------------------------------------------------------------------------


class StreamDurablePaced:
    name = "stream_durable_paced"
    why = (
        "open loop at a fixed offered rate through WAL, checkpoints, durable sink and CEP, "
        "then crash/restore: serialisation, fsync and queueing set the lag, snapshots the recovery"
    )
    traced_share = 0.5

    TICK_S = 0.05
    BATCH = 200  # 4,000 records/s offered
    CHECKPOINT_EVERY = 50
    WINDOW = 4.0  # tumbling, event-time units (= ticks)
    LATENESS = 1.0
    OUT_OF_ORDER = 0.05
    TOO_LATE = 0.01
    ENTITIES = 400
    RESTORES = 5
    FENCE = (300.0, 300.0, 700.0, 700.0)
    #: The host probe is read this often while the paced phase runs, and
    #: after every so many batches of the back-to-back drain.
    PROBE_EVERY_S = 0.1
    DRAIN_CHUNK = 10

    def plan(self, seconds: float) -> tuple[int, int]:
        """``(warm-up ticks, all ticks)`` for a run of *seconds*."""
        timed = max(40, round(seconds / self.TICK_S))
        warm = max(8, round(timed * WARMUP_SHARE))
        return warm, warm + timed

    def checkpoint_every(self, ticks: int) -> int:
        """50 batches at the gated size; a run too short for that still
        gets two checkpoints before it is abandoned."""
        return min(self.CHECKPOINT_EVERY, max(2, ticks // 3))

    def generate(self, seed: int, scale: float, seconds: float):
        rng = random.Random(seed)
        batch = max(20, round(self.BATCH * scale))
        ticks = self.plan(seconds)[1]
        rows = []
        for tick in range(ticks):
            for i in range(batch):
                x = rng.uniform(0.0, gen.EXTENT)
                y = rng.uniform(0.0, gen.EXTENT)
                t = tick + i / batch
                draw = rng.random()
                if draw < self.TOO_LATE:
                    t -= self.LATENESS + self.WINDOW + rng.uniform(1.0, 3.0)
                elif draw < self.TOO_LATE + self.OUT_OF_ORDER:
                    t -= rng.uniform(0.0, self.LATENESS * 0.9)
                rid = len(rows)
                rows.append((rid, gen.CATEGORIES[rng.randrange(4)], max(0.0, t), gen.point_wkt(x, y)))
        return SimpleNamespace(rows=rows, batch=batch, seed=seed, digest=gen.digest(rows))

    def setup(self, inputs, ctx):
        return SimpleNamespace(batches=load_batches(inputs.rows, inputs.batch, ctx))

    def close(self, state) -> None:
        for ssc in getattr(state, "contexts", ()):
            ssc.stop(flush=False)
        sc = getattr(state, "sc", None)
        if sc is not None:
            sc.stop()

    # -- the pipeline, declared identically for every context ---------------

    def rules(self):
        entities = self.ENTITIES
        fence = STObject(gen.box_wkt(*self.FENCE))

        def entity(_st, value):
            return value[0] % entities

        return [
            sequence(
                "accident-then-protest",
                [step(category="accident", inside=fence), step(category="protest", within_distance=250.0)],
                within=3.0,
                group_by=entity,
            ),
            absence(
                "no-sports-after-concert",
                expect=step(category="sports"),
                after=step(category="concert", inside=fence),
                within=2.0,
                group_by=entity,
            ),
            count(
                "accident-burst",
                step(category="accident"),
                within=self.WINDOW,
                threshold=3,
                group_by=lambda _st, value: value[0] % 97,
            ),
            aggregate(
                "heavy-protests",
                step(category="protest"),
                field=lambda _st, value: float(value[0] % 10),
                within=self.WINDOW,
                threshold=5.5,
                agg="avg",
                group_by=lambda _st, value: value[0] % 31,
            ),
        ]

    # -- timed section ------------------------------------------------------

    def measure(self, state, inputs, seconds, ctx) -> Measured:
        warm, total = self.plan(seconds)
        total = min(total, len(state.batches))
        batches = state.batches[:total]
        workdir = ctx.dirs.new()
        state.sc = SparkContext("bench-paced", parallelism=4, executor="threads")
        state.contexts = []
        with ctx.span("bench.timed", op=1):
            section_start = clock()
            paced = self.run_paced(state, batches, workdir, warm, ctx.probe)
            recovery = self.run_recovery(state, batches, workdir, ctx.probe)
            wall = clock() - section_start

        state.want_windows = reference_windows(batches, self.WINDOW, self.LATENESS)
        due = [paced.origin + tick * self.TICK_S + off for tick, off in enumerate(paced.offsets)]
        lags = sorted(
            emit_lags(paced.log, state.want_windows, due, inputs.batch, first_id=warm * inputs.batch)
        )
        extra = {
            "emit_lag_p50_ms": percentile(lags, 50) * 1e3,
            "recovery_s": statistics.median(recovery.restores),
        }
        if len(lags) >= P95_MIN_SAMPLES:
            extra["emit_lag_p95_ms"] = percentile(lags, 95) * 1e3
        counters = dict(paced.counters)
        counters.update(recovery.counters)
        counters.update(extra, io_records_read=sum(len(rows) for rows in state.batches))
        state.paced, state.recovery, state.total = paced, recovery, total
        return Measured(
            timed=paced.series,
            drained=recovery.drained,
            units_per_op=inputs.batch,
            wall=wall,
            attempted=total + len(recovery.restores),
            failed=paced.failed + recovery.failed,
            extra=extra,
            counters=counters,
            detail={
                "ticks": total - warm,
                "offered_records_per_s": inputs.batch / self.TICK_S,
                "emit_lag_samples": len(lags),
                "recovery_runs_s": [round(s, 4) for s in recovery.restores],
                "replayed_batches": counters["replayed_batches"],
                "feeder_late_p95_ms": counters["feeder_late_p95_ms"],
                "paced_wall_s": round(paced.wall, 3),
                "drain_wall_s": round(sum(recovery.drained.latencies), 3),
            },
        )

    def run_paced(self, state, batches, workdir, warm, probe):
        """The open loop: feeder thread -> QueueSource -> ``ssc.start()``."""
        warm_records = warm * len(batches[0])
        sc = state.sc
        log = SimpleNamespace(windows=[], matches=[])
        ssc = StreamingContext(
            sc,
            batch_interval=self.TICK_S,
            checkpoint_dir=os.path.join(workdir, "paced-ckpt"),
            checkpoint_interval=self.checkpoint_every(len(batches)),
        )
        state.contexts.append(ssc)
        source, events = ssc.queue_stream()
        pipeline = self.declare(events, os.path.join(workdir, "paced-sink"), log)
        total_records = sum(len(rows) for rows in batches)
        late = []
        origin = [0.0]

        # Each push is due somewhere inside its tick (seeded), so every
        # run meets the poller at all phases rather than at one that the
        # threads' start-up happened to pick.
        jitter = random.Random(len(batches))
        offsets = [jitter.uniform(0.0, 0.8 * self.TICK_S) for _ in batches]

        def feed():
            origin[0] = clock() + 0.02
            for tick, rows in enumerate(batches):
                due = origin[0] + tick * self.TICK_S + offsets[tick]
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                late.append(clock() - due)
                source.push(rows)

        feeder = threading.Thread(target=feed, name="bench-feeder", daemon=True)
        started = clock()
        ssc.start()
        feeder.start()
        # The main thread only waits here.  Meanwhile it reads the host
        # probe (3 ms in every 100, so the batch thread waits for the
        # interpreter that long at most, now and then).
        readings = []
        while feeder.is_alive():
            feeder.join(self.PROBE_EVERY_S)
            if probe is not None:
                readings.append((clock(), probe.read()))
        # Everything offered must be processed before the stream stops.
        give_up = clock() + len(batches) * self.TICK_S * OVERRUN_FACTOR
        while ssc.metrics.records_processed < total_records and clock() < give_up:
            time.sleep(0.005)
        failed = int(ssc.metrics.records_processed < total_records)
        wall = clock() - started
        counters = stream_counters(ssc)
        stats = ssc.checkpoint_manager.stats()
        counters.update(store_counters(pipeline.cep))
        ssc.stop(flush=True)
        counters.update(
            wal_bytes=stats["wal_bytes"],
            checkpoint_bytes=dir_bytes(os.path.join(workdir, "paced-ckpt"), "ckpt"),
            cep_late_dropped=pipeline.cep.late_dropped,
            sink_windows_written=pipeline.sink.committed,
            sink_retries=pipeline.sink.retries_used,
            feeder_late_p95_ms=percentile(sorted(late), 95) * 1e3,
            state_size_records_max=pipeline.cep.store.size if pipeline.cep.store else 0,
        )
        # Poll-to-completion seconds of every non-empty micro-batch past
        # the warm-up (a poll may pick up none, one or two pushes).
        series, seen = Series(), 0
        for _batch_id, records, took, _depth in ssc.batch_latencies:
            if records and seen >= warm_records:
                series.latencies.append(took)
            seen += records
        # A reading belongs to the tick it was taken in: one micro-batch
        # per tick, near enough (a poll may pick up none or two pushes).
        for at, slowdown in readings:
            index = int((at - origin[0]) / self.TICK_S) - warm
            if 0 <= index < len(series.latencies):
                series.probes.append((index, slowdown))
        return SimpleNamespace(
            origin=origin[0], offsets=offsets, counters=counters, failed=failed, wall=wall, log=log,
            sink_dir=os.path.join(workdir, "paced-sink"), series=series,
        )

    def declare(self, events, sink_dir, log):
        """Tumbling windows -> durable sink, plus the four CEP rules;
        both log their emissions for the lag and the equality check."""
        windows = events.window(length=self.WINDOW, lateness=self.LATENESS)
        sink = EventFileSink(sink_dir)
        windows.for_each_window(sink)
        windows.for_each_window(lambda window, _rdd: log.windows.append((window.start, clock())))
        patterns = events.patterns(
            *self.rules(), lateness=self.LATENESS, universe=Envelope(*UNIVERSE)
        )
        patterns.for_each_match(lambda match: log.matches.append((match, clock())))
        return SimpleNamespace(sink=sink, cep=patterns.consumer)

    def run_recovery(self, state, batches, workdir, probe):
        """Drain with WAL + checkpoints, abandon, restore (several times
        from copies of the abandoned directory), finish the last one."""
        sc = state.sc
        ckpt = os.path.join(workdir, "crash-ckpt")
        sink_dir = os.path.join(workdir, "crash-sink")
        log = SimpleNamespace(windows=[], matches=[])

        every = self.checkpoint_every(len(batches))

        def fresh(ckpt_dir, sink_path):
            ssc = StreamingContext(sc, checkpoint_dir=ckpt_dir, checkpoint_interval=every)
            state.contexts.append(ssc)
            source = ListSource(batches)
            pipeline = self.declare(ssc.stream(source), sink_path, log)
            return ssc, pipeline

        # Abandoned one batch short of the next checkpoint: the longest
        # WAL tail a restore can have to replay.
        crash_at = (len(batches) + 1) // every * every - 1
        ssc, _pipeline = fresh(ckpt, sink_dir)
        drained, asked, completed = Series(), 0, 0
        while asked < crash_at:  # back to back, the probe read every few batches
            if probe is not None:
                drained.probes.append((asked, probe.read()))
            chunk = min(self.DRAIN_CHUNK, crash_at - asked)
            completed += ssc.run_batches(chunk)
            asked += chunk
        drained.latencies = [took for _id, _records, took, _depth in ssc.batch_latencies]
        failed = crash_at - completed
        # Abandoned: no stop(), no flush -- only the file handle is released.
        ssc.checkpoint_manager.close()

        # Each restore gets its own copy of the abandoned directories and a
        # freshly declared pipeline; only the last one's outputs count.
        log_mark = (len(log.windows), len(log.matches))
        contexts = []
        for attempt in range(self.RESTORES):
            copy_ckpt, copy_sink = f"{ckpt}-r{attempt}", f"{sink_dir}-r{attempt}"
            shutil.copytree(ckpt, copy_ckpt)
            shutil.copytree(sink_dir, copy_sink)
            contexts.append(fresh(copy_ckpt, copy_sink)[0])

        restores, replayed = [], 0
        for ssc in contexts:
            del log.windows[log_mark[0]:], log.matches[log_mark[1]:]
            slow_before = probe.read(5) if probe is not None else 1.0
            began = clock()
            replayed = ssc.restore().batches_replayed
            took = clock() - began
            slow_after = probe.read(5) if probe is not None else 1.0
            restores.append(took * 2.0 / (slow_before + slow_after))
        for discarded in contexts[:-1]:
            discarded.checkpoint_manager.close()
        restored = contexts[-1]
        left = len(batches) - crash_at
        finished = restored.run_batches(left)
        failed += left - finished
        restored.stop(flush=True)
        return SimpleNamespace(
            restores=restores,
            failed=failed,
            log=log,
            sink_dir=copy_sink,
            drained=drained,
            counters={"replayed_batches": replayed},
        )

    # -- reference ----------------------------------------------------------

    def verify(self, state, inputs, measured):
        """Both runs against one uninterrupted reference model."""
        want_windows = state.want_windows
        accepted = reference_cep_accepted(state.batches[: state.total], self.LATENESS)
        want_matches = Counter()
        for rule in self.rules():
            for match in brute_force_matches(accepted, rule):
                want_matches[match_key(match)] += 1
        checked = wrong = 0
        notes = [f"windows: {len(want_windows)}", f"matches: {sum(want_matches.values())}"]
        for label, run in (("paced", state.paced), ("recovered", state.recovery)):
            got_windows = read_sink(run.sink_dir)
            checked += 1
            if got_windows != want_windows:
                wrong += 1
                notes.append(f"{label}: sink windows differ from the reference")
            got_matches = Counter(match_key(match) for match, _at in run.log.matches)
            checked += 1
            if got_matches != want_matches:
                wrong += 1
                notes.append(
                    f"{label}: {sum(got_matches.values())} matches, "
                    f"reference {sum(want_matches.values())}"
                )
        return checked, wrong, notes


def dir_bytes(path: str, prefix: str) -> int:
    """Total size of the files under *path* whose directory or name
    starts with *prefix* (checkpoint epochs live beside the WAL)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        rel = os.path.relpath(root, path)
        for name in files:
            if rel.startswith(prefix) or name.startswith(prefix):
                total += os.path.getsize(os.path.join(root, name))
    return total


def match_key(match) -> tuple:
    """A match's identity with the engine's emission ordinal erased."""
    return (
        match.rule,
        match.group,
        tuple(value[0] for _st, value in match.events),
        match.start,
        match.end,
        match.value,
    )


def emit_lags(log, windows, due, batch, first_id) -> list[float]:
    """Emission time minus the due time of the newest contributing event.

    A record's due time is its tick's, ``due[tick]`` (ids are dealt
    ``batch`` per tick).  A window firing takes the newest record the reference puts
    in that window; a match carries its events.  Results whose newest
    event belongs to the warm-up are dropped; the rest come back in
    emission order.
    """
    newest = [(at, max(windows.get(start, ()), default=-1)) for start, at in log.windows]
    newest += [
        (at, max(value[0] for _st, value in match.events)) for match, at in log.matches
    ]
    return [at - due[rid // batch] for at, rid in sorted(newest) if rid >= first_id]


def reference_windows(batches, length, lateness) -> dict[float, frozenset]:
    """Tumbling event-time windows with allowed lateness, from scratch.

    The watermark trails the newest event time seen by *lateness*; a
    window fires once the watermark passes its end, and a record whose
    window has already fired is dropped.  Everything left fires at the
    end (the stream is flushed).
    """
    open_: dict[float, set] = {}
    fired: dict[float, frozenset] = {}
    watermark = closed = float("-inf")
    for rows in batches:
        newest = watermark + lateness
        for st, value in rows:
            t = st.time.start
            newest = max(newest, t)
            start = (t // length) * length
            if start + length > closed:
                open_.setdefault(start, set()).add(value[0])
        watermark = max(watermark, newest - lateness)
        for start in sorted(s for s in open_ if s + length <= watermark):
            fired[start] = frozenset(open_.pop(start))
            closed = max(closed, start + length)
    for start, ids in open_.items():
        fired[start] = frozenset(ids)
    return fired


def reference_cep_accepted(batches, lateness) -> list:
    """The events a watermark-ordered matcher accepts, in arrival order:
    one arriving at or behind the processed frontier is dropped."""
    accepted = []
    watermark = horizon = float("-inf")
    for rows in batches:
        newest = watermark + lateness
        for st, value in rows:
            t = st.time.start
            newest = max(newest, t)
            if t > horizon:
                accepted.append((st, value))
        watermark = max(watermark, newest - lateness)
        horizon = max(horizon, watermark)
    return accepted


def read_sink(directory: str) -> dict[float, frozenset]:
    """Window start -> ids, from the event files a sink committed."""
    out = {}
    for name in os.listdir(directory):
        if not name.endswith(".events"):
            continue
        start = float(name[len("window-"):].split("-")[0])  # event times are >= 0
        with open(os.path.join(directory, name)) as f:
            out[start] = frozenset(parse_event_line(line)[0] for line in f if line.strip())
    return out

"""Replay-to-equivalence: crash recovery's end-to-end correctness gate.

The contract under test: for any crash point, a fresh context that
re-declares the same pipeline and calls ``restore()`` produces, over
crashed-run-plus-resumed-run, *exactly* the per-window results of a run
that never crashed -- no window lost, none duplicated, none re-emitted.

Three adversaries exercise it:

- the **chaos sites** (``wal.append``, ``checkpoint.write``,
  ``recovery.load``) -- injected faults at the instrumented operations,
  on the threads executor;
- the **kill-between-any-two-fsyncs matrix** -- a simulated process
  death at every durability barrier the scenario crosses, via the
  storage fsync hook (driver-side, so sequential executor);
- **torn/corrupt artifacts** -- truncated WAL tails and damaged
  checkpoint epochs hitting the CRC framing and epoch fallback.

One documented exception: a kill exactly between a window's outputs
running and its ledger append re-emits that window to *volatile* sinks
(the two-generals gap).  The matrix therefore asserts union-equality
with identical duplicate values for in-memory sinks, and byte-equality
-- zero duplicates -- for the durable commit-marker sinks, which is the
delivery path the recovery story prescribes.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.chaos import CrashHarness, FaultInjector, SimulatedCrash, crash_points
from repro.chaos.injector import InjectedFault
from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import EventFileSink, QueueSource, StreamingContext, StreamingError

BACKENDS = ["threads"]
#: Slices per batch and window for the runs on the thread pool.
SLICES = 4

BATCHES = 8
CRASH_AT = 5
RATE = 12
WINDOW = dict(length=4.0, slide=2.0)
TIMES = [float(b) for b in range(BATCHES)]


def rec(i: int, t: float):
    return (STObject(f"POINT ({i % 50} {(i * 7) % 50})", t), (i, "cat"))


def make_sc(executor: str = "sequential", injector=None):
    return SparkContext(
        f"recovery-{executor}",
        parallelism=2,
        executor=executor,
        retry_backoff=0.0,
        fault_injector=injector,
    )


def build(sc, checkpoint_dir, out_dir=None, num_slices=None):
    """One standard pipeline: generator -> sliding window -> sinks.

    Returns ``(ssc, sinks)`` where sinks collects window counts plus a
    continuous range query -- both the buffered and the keyed state
    paths, so recovery is proven for each.
    """
    ssc = StreamingContext(
        sc, num_slices=num_slices, checkpoint_dir=checkpoint_dir, checkpoint_interval=2
    )
    events = ssc.generator_stream(rate=RATE, time_step=1.0, seed=11)
    win = events.window(**WINDOW)
    sinks = {
        "counts": win.count_windows(),
        "range": events.continuous(**WINDOW).range(
            "POLYGON ((10 10, 90 10, 90 60, 10 60, 10 10))"
        ),
    }
    if out_dir is not None:
        sinks["files"] = EventFileSink(out_dir)
        win.for_each_window(sinks["files"])
    return ssc, sinks


def canon(sinks) -> dict:
    """Window results as comparable ``(sink, start, end) -> value`` maps."""
    out = {}
    for name, sink in sinks.items():
        if name == "files":
            continue
        for window, value in sink.results():
            key = (name, window.start, window.end)
            if key in out:
                out.setdefault("__duplicates__", []).append((key, value))
            else:
                out[key] = canonical_value(value)
    return out


def canonical_value(value):
    if isinstance(value, list):
        return sorted(
            (st.geo.wkt(), payload) for st, payload in value
        )
    return value


def read_files(directory) -> dict:
    if not os.path.isdir(directory):
        return {}
    return {
        name: sorted(open(os.path.join(directory, name)).read().splitlines())
        for name in sorted(os.listdir(directory))
        if not name.endswith("._tmp")
    }


ACCOUNTED = ("records_ingested", "records_processed", "records_quarantined", "batches_run")


def assert_accounting(got, want, at) -> None:
    """A resumed run's counters equal the uninterrupted run's, and the
    no-silent-loss invariant holds."""
    for name in ACCOUNTED:
        assert getattr(got, name) == getattr(want, name), f"kill point {at}: {name}"
    assert got.records_ingested == (
        got.records_processed
        + got.records_quarantined
        + got.records_failed
    ), f"kill point {at}: accounting invariant"


def baseline(executor: str = "sequential", num_slices=None) -> dict:
    with make_sc(executor) as sc:
        ssc, sinks = build(sc, None, num_slices=num_slices)
        ssc.run_batches(BATCHES, batch_times=TIMES)
        ssc.stop(flush=False)
        return canon(sinks)


def resume_and_finish(sc, checkpoint_dir, out_dir=None, injector_retries=0, num_slices=None):
    """Fresh pipeline + restore + the remaining batches; returns canon."""
    ssc, sinks = build(sc, checkpoint_dir, out_dir, num_slices)
    report = None
    for attempt in range(injector_retries + 1):
        try:
            report = ssc.restore(checkpoint_dir)
            break
        except InjectedFault:
            if attempt == injector_retries:
                raise
    remaining = BATCHES - report.resumed_batch_id
    if remaining > 0:
        ssc.run_batches(remaining, batch_times=TIMES[report.resumed_batch_id :])
    ssc.stop(flush=False)
    return ssc, sinks, report


class TestChaosKillPoints:
    """Injected faults at each instrumented site, on the thread pool:
    four slices per batch and window keep every job there."""

    @pytest.mark.chaos
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_wal_append_fault_then_recover(self, tmp_path, executor):
        base = baseline(executor, SLICES)
        ck = str(tmp_path / "ck")
        injector = FaultInjector(seed=5).fail("wal.append", times=1, per_key=False)
        with make_sc(executor, injector) as sc:
            ssc, crashed_sinks = build(sc, ck, num_slices=SLICES)
            with pytest.raises(InjectedFault):
                ssc.run_batches(BATCHES, batch_times=TIMES)
            crashed = canon(crashed_sinks)  # abandoned, no stop/flush
        with make_sc(executor) as sc2:
            _ssc, sinks, report = resume_and_finish(sc2, ck, num_slices=SLICES)
            resumed = canon(sinks)
        assert not (set(crashed) & set(resumed))
        assert {**crashed, **resumed} == base
        assert report.batches_replayed >= 0

    @pytest.mark.chaos
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_checkpoint_write_fault_is_graceful_and_recoverable(
        self, tmp_path, executor
    ):
        base = baseline(executor, SLICES)
        ck = str(tmp_path / "ck")
        injector = FaultInjector(seed=5).fail(
            "checkpoint.write", times=1, per_key=False
        )
        with make_sc(executor, injector) as sc:
            ssc, crashed_sinks = build(sc, ck, num_slices=SLICES)
            # A failed checkpoint never stops the stream -- it only
            # lengthens the WAL tail a later recovery replays.
            ssc.run_batches(CRASH_AT, batch_times=TIMES[:CRASH_AT])
            assert ssc.metrics.checkpoint_failures == 1
            crashed = canon(crashed_sinks)  # crash here: abandon
        with make_sc(executor) as sc2:
            _ssc, sinks, report = resume_and_finish(sc2, ck, num_slices=SLICES)
            resumed = canon(sinks)
        assert not (set(crashed) & set(resumed))
        assert {**crashed, **resumed} == base
        # The failed attempt retried on the very next batch (the cadence
        # counter only resets on success), so both epochs still landed.
        assert report.epoch == 2

    @pytest.mark.chaos
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_recovery_load_fault_leaves_restore_retryable(self, tmp_path, executor):
        base = baseline(executor, SLICES)
        ck = str(tmp_path / "ck")
        with make_sc(executor) as sc:
            ssc, crashed_sinks = build(sc, ck, num_slices=SLICES)
            ssc.run_batches(CRASH_AT, batch_times=TIMES[:CRASH_AT])
            crashed = canon(crashed_sinks)
        injector = FaultInjector(seed=5).fail("recovery.load", times=1, per_key=False)
        with make_sc(executor, injector) as sc2:
            # First restore attempt faults before any mutation; the retry
            # on the very same context must succeed and reach equality.
            _ssc, sinks, report = resume_and_finish(
                sc2, ck, injector_retries=1, num_slices=SLICES
            )
            resumed = canon(sinks)
        assert not (set(crashed) & set(resumed))
        assert {**crashed, **resumed} == base
        assert report.epoch is not None


class _PollLandsDuringSnapshot(QueueSource):
    """A queue source that forces the threaded drive's worst interleaving.

    The first :meth:`cursor` read (the first checkpoint's) waits until a
    poll moves the cursor, or half a second passes; the second read is
    a crash, so that first checkpoint is the one a restore loads.
    """

    def __init__(self, batches) -> None:
        super().__init__(batches)
        self.reads = 0
        self.crashed = threading.Event()

    def cursor(self):
        self.reads += 1
        if self.reads == 2:
            self.crashed.set()
            raise SystemExit("simulated crash at the second checkpoint")
        seen = super().cursor()
        deadline = time.monotonic() + 0.5
        while self.reads == 1 and super().cursor() == seen and time.monotonic() < deadline:
            time.sleep(0.002)
        return super().cursor()


class TestThreadedCheckpoint:
    def test_a_poll_during_the_snapshot_is_replayed_once(self, tmp_path):
        """Under ``start()`` the poller keeps polling while the processor
        snapshots.  A poll landing between the snapshot's batch counter
        and its cursor read would be in the cursor but not the counter,
        and replay would apply that batch's cursor delta a second time:
        the restored source would skip the first batch it has not read."""
        ck = str(tmp_path / "ck")
        batches = [[rec(i, float(i))] for i in range(300)]

        def declare(sc, source):
            ssc = StreamingContext(
                sc, batch_interval=0.005, max_pending_batches=64,
                checkpoint_dir=ck, checkpoint_interval=1,
            )
            ssc.stream(source).window(**WINDOW).count_windows()
            return ssc

        with make_sc("threads") as sc:
            source = _PollLandsDuringSnapshot(batches)
            ssc = declare(sc, source)
            ssc.start()
            assert source.crashed.wait(10.0)
            ssc.stop(flush=False, drain=False)
            polled = source.cursor()
        assert 0 < polled < len(batches)
        with make_sc("threads") as sc2:
            fresh = QueueSource(batches)
            ssc2 = declare(sc2, fresh)
            report = ssc2.restore(ck)
            assert report.epoch == 1
            assert fresh.cursor() == polled
            assert ssc2.metrics.records_ingested == polled
            assert fresh.poll() == batches[polled]
            ssc2.stop(flush=False)


class TestCrashMatrix:
    """A simulated kill at every fsync barrier the scenario crosses."""

    def _scenario(self, ck, out):
        with make_sc() as sc:
            ssc, _ = build(sc, ck, out)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)

    def test_kill_between_any_two_fsyncs(self, tmp_path):
        base = baseline()
        base_files_dir = tmp_path / "base-out"
        with make_sc() as sc:
            ssc, _ = build(sc, str(tmp_path / "base-ck"), str(base_files_dir))
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)
            base_metrics = ssc.metrics
        base_files = read_files(base_files_dir)
        assert base_files  # the durable sink really writes

        n = crash_points(
            lambda: self._scenario(str(tmp_path / "probe-ck"), str(tmp_path / "probe-out"))
        )
        assert n > 10  # WAL appends, emit commits, checkpoints, sink commits

        for at in range(1, n + 1):
            ck = str(tmp_path / f"ck-{at}")
            out = str(tmp_path / f"out-{at}")
            with make_sc() as sc:
                ssc, crashed_sinks = build(sc, ck, out)
                harness = CrashHarness(at=at)
                try:
                    with harness.installed():
                        ssc.run_batches(BATCHES, batch_times=TIMES)
                        ssc.stop(flush=False)
                except SimulatedCrash:
                    pass
                crashed = canon(crashed_sinks)
            with make_sc() as sc2:
                ssc2, sinks, _report = resume_and_finish(sc2, ck, out)
                resumed = canon(sinks)
            assert_accounting(ssc2.metrics, base_metrics, at)

            # Durable sinks: byte-identical output, zero duplicates --
            # the commit markers absorb even the ledger-append gap.
            assert read_files(out) == base_files, f"kill point {at}: file divergence"

            # Volatile sinks: the union covers the baseline exactly; a
            # window may appear on both sides only at the ledger-append
            # barrier, and then with an identical value.
            crashed.pop("__duplicates__", None)
            resumed.pop("__duplicates__", None)
            union = {**crashed, **resumed}
            assert union == base, f"kill point {at}: result divergence"
            for key in set(crashed) & set(resumed):
                assert crashed[key] == resumed[key], f"kill point {at}: {key}"


POISON_EVERY = 17


def build_degraded(sc, checkpoint_dir, work, out_dir=None):
    """The failure variant of :func:`build`: same window shapes, but
    the generator plants poison records, quarantined to the context's
    DLQ.  Its appends add fsync barriers to the crash matrix, and they
    must replay to equivalence.
    """
    ssc = StreamingContext(
        sc,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=2,
        dlq_dir=os.path.join(work, "dlq"),
    )
    events = ssc.generator_stream(
        rate=RATE, time_step=1.0, seed=11, poison_every=POISON_EVERY
    )

    def reject_poison(record):
        st, (i, category) = record
        if category == "__poison__":
            raise ValueError(f"poison record {i}")
        return record

    checked = events.map(reject_poison)
    win = checked.window(**WINDOW)
    sinks = {
        "counts": win.count_windows(),
        "range": checked.continuous(**WINDOW).range(
            "POLYGON ((10 10, 90 10, 90 60, 10 60, 10 10))"
        ),
    }
    if out_dir is not None:
        sinks["files"] = EventFileSink(out_dir)
        win.for_each_window(sinks["files"])
    return ssc, sinks


class TestDegradedCrashMatrix:
    """The fsync-kill matrix with poison quarantine and the DLQ active.

    Every DLQ append is itself a durability barrier, so the matrix
    kills *inside* the quarantine path too.  The contract is unchanged: byte-identical durable sink
    output, union-equal volatile results -- plus a non-empty DLQ whose
    quarantined records carry provenance, on every kill point.
    """

    def _scenario(self, ck, work, out):
        with make_sc() as sc:
            ssc, _ = build_degraded(sc, ck, work, out)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)

    def _resume(self, sc, ck, work, out):
        ssc, sinks = build_degraded(sc, ck, work, out)
        report = ssc.restore(ck)
        remaining = BATCHES - report.resumed_batch_id
        if remaining > 0:
            ssc.run_batches(remaining, batch_times=TIMES[report.resumed_batch_id :])
        ssc.stop(flush=False)
        return ssc, sinks, report

    def test_kill_between_any_two_fsyncs_with_dlq(self, tmp_path):
        from repro.streaming import DeadLetterQueue

        base_out = str(tmp_path / "base-out")
        base_work = str(tmp_path / "base-work")
        with make_sc() as sc:
            ssc, base_sinks = build_degraded(sc, None, base_work, base_out)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)
            base = canon(base_sinks)
            # The quarantine really engaged in the baseline.
            assert ssc.metrics.records_quarantined > 0
            base_metrics = ssc.metrics
        base_files = read_files(base_out)
        assert base_files
        base_poisons = [
            p["record"][1]
            for p in DeadLetterQueue(os.path.join(base_work, "dlq")).poison_records()
        ]
        assert base_poisons

        n = crash_points(
            lambda: self._scenario(
                str(tmp_path / "probe-ck"),
                str(tmp_path / "probe-work"),
                str(tmp_path / "probe-out"),
            )
        )
        # WAL + ledger + checkpoints + sink commits + DLQ.
        assert n > 20

        for at in range(1, n + 1):
            ck = str(tmp_path / f"ck-{at}")
            work = str(tmp_path / f"work-{at}")
            out = str(tmp_path / f"out-{at}")
            with make_sc() as sc:
                ssc, crashed_sinks = build_degraded(sc, ck, work, out)
                harness = CrashHarness(at=at)
                try:
                    with harness.installed():
                        ssc.run_batches(BATCHES, batch_times=TIMES)
                        ssc.stop(flush=False)
                except SimulatedCrash:
                    pass
                crashed = canon(crashed_sinks)
            # The restart reuses the crashed run's work dir, exactly as
            # a real operator would: the DLQ keeps its entries (torn
            # tails truncated).
            with make_sc() as sc2:
                ssc2, sinks, _report = self._resume(sc2, ck, work, out)
                resumed = canon(sinks)
            assert_accounting(ssc2.metrics, base_metrics, at)

            assert read_files(out) == base_files, f"kill point {at}: file divergence"

            crashed.pop("__duplicates__", None)
            resumed.pop("__duplicates__", None)
            union = {**crashed, **resumed}
            assert union == base, f"kill point {at}: result divergence"
            for key in set(crashed) & set(resumed):
                assert crashed[key] == resumed[key], f"kill point {at}: {key}"

            # The quarantine survived the crash: every baseline poison
            # is in the reopened DLQ with provenance (replay may add
            # duplicate convictions; replay never loses one).
            poisons = DeadLetterQueue(
                os.path.join(work, "dlq")
            ).poison_records()
            got = {p["record"][1] for p in poisons}
            assert got == set(base_poisons), f"kill point {at}: poison divergence"
            for poison in poisons:
                assert poison["source"] == "generator"
                assert "ValueError" in poison["error"]


class TestSourceCursors:
    def test_queue_source_skips_consumed_batches(self, tmp_path):
        ck = str(tmp_path / "ck")
        batches = [[rec(10 * b + i, float(b)) for i in range(4)] for b in range(6)]
        with make_sc() as sc:
            ssc = StreamingContext(sc, checkpoint_dir=ck, checkpoint_interval=2)
            source, events = ssc.queue_stream(batches)
            sink = events.window(length=2.0).count_windows()
            ssc.run_batches(4, batch_times=TIMES[:4])
            crashed = {(w.start, w.end): v for w, v in sink.results()}
        with make_sc() as sc2:
            ssc2 = StreamingContext(sc2, checkpoint_dir=ck, checkpoint_interval=2)
            # The producer contract: the same batch sequence is re-pushed.
            source2, events2 = ssc2.queue_stream(batches)
            sink2 = events2.window(length=2.0).count_windows()
            report = ssc2.restore(ck)
            ssc2.run_batches(2, batch_times=TIMES[4:6])
            ssc2.stop()
            resumed = {(w.start, w.end): v for w, v in sink2.results()}
        # Replay + cursor skip means every pushed record lands exactly once.
        assert not (set(crashed) & set(resumed))
        counts = {**crashed, **resumed}
        assert sum(counts.values()) == sum(len(b) for b in batches)
        assert report.resumed_batch_id == 4

    def test_directory_source_neither_loses_nor_duplicates_files(self, tmp_path):
        ck = str(tmp_path / "ck")
        watched = tmp_path / "incoming"
        watched.mkdir()

        def drop(name, rows):
            with open(watched / name, "w") as fh:
                for i, t in rows:
                    fh.write(f"{i};cat;{t};POINT ({i} {i})\n")

        drop("a.events", [(1, 0.0), (2, 0.5)])
        drop("b.events", [(3, 1.0)])
        with make_sc() as sc:
            ssc = StreamingContext(sc, checkpoint_dir=ck, checkpoint_interval=1)
            events = ssc.directory_stream(str(watched))
            sink = events.window(length=2.0).count_windows()
            ssc.run_batches(2, batch_times=[0.0, 1.0])
            crashed = {(w.start, w.end): v for w, v in sink.results()}
        # New files arrive while the process is down.
        drop("c.events", [(4, 2.0), (5, 3.0)])
        with make_sc() as sc2:
            ssc2 = StreamingContext(sc2, checkpoint_dir=ck, checkpoint_interval=1)
            events2 = ssc2.directory_stream(str(watched))
            sink2 = events2.window(length=2.0).count_windows()
            ssc2.restore(ck)
            ssc2.run_batches(2, batch_times=[2.0, 3.0])
            ssc2.stop()
            resumed = {(w.start, w.end): v for w, v in sink2.results()}
        counts = {**crashed, **resumed}
        # 5 events total, each in exactly one window, none re-ingested.
        assert sum(counts.values()) == 5
        assert not (set(crashed) & set(resumed))


class TestRestoreContract:
    def test_restore_requires_a_fresh_context(self, tmp_path):
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, _ = build(sc, ck)
            ssc.run_batches(2, batch_times=TIMES[:2])
            with pytest.raises(StreamingError, match="fresh context"):
                ssc.restore(ck)

    def test_restore_requires_matching_pipeline_shape(self, tmp_path):
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, _ = build(sc, ck)
            ssc.run_batches(CRASH_AT, batch_times=TIMES[:CRASH_AT])
        with make_sc() as sc2:
            ssc2 = StreamingContext(sc2, checkpoint_dir=ck)
            ssc2.generator_stream(rate=RATE, seed=11).window(**WINDOW).count_windows()
            # One window consumer where the checkpoint recorded two.
            with pytest.raises(StreamingError, match="re-declared identically"):
                ssc2.restore(ck)

    def test_restore_on_empty_directory_is_a_clean_start(self, tmp_path):
        ck = str(tmp_path / "ck")
        base = baseline()
        with make_sc() as sc:
            ssc, sinks = build(sc, ck)
            report = ssc.restore(ck)
            assert report.epoch is None
            assert report.batches_replayed == 0
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)
            assert canon(sinks) == base

    def test_corrupt_newest_checkpoint_falls_back_and_still_converges(self, tmp_path):
        base = baseline()
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, crashed_sinks = build(sc, ck)
            ssc.run_batches(CRASH_AT, batch_times=TIMES[:CRASH_AT])
            crashed = canon(crashed_sinks)
            assert ssc.metrics.checkpoints_written >= 2
        # Damage the newest epoch: recovery must fall back one epoch and
        # replay a longer WAL tail to the same observable results.
        from repro.streaming.checkpoint import list_checkpoints

        newest = list_checkpoints(ck)[-1][1]
        with open(os.path.join(newest, "state.pkl"), "r+b") as fh:
            fh.write(b"\xde\xad")
        with make_sc() as sc2:
            _ssc, sinks, report = resume_and_finish(sc2, ck)
            resumed = canon(sinks)
        assert report.corrupt_checkpoints_skipped == 1
        assert not (set(crashed) & set(resumed))
        assert {**crashed, **resumed} == base

    def test_stop_flush_emits_survive_a_same_batch_checkpoint(self, tmp_path):
        """Shutdown-flush ledger records outlive the newest checkpoint.

        Regression: flush emits were committed under the last processed
        batch's id.  When that batch had also written a checkpoint, the
        id equaled the checkpoint's high-water mark, read_tail filtered
        the record out, and a restore re-emitted every flushed window.
        """
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, _ = build(sc, ck)
            # checkpoint_interval=2: batch 3 writes the newest epoch, so
            # its id is exactly that epoch's high-water mark.
            ssc.run_batches(4, batch_times=TIMES[:4])
            assert ssc.metrics.checkpoints_written >= 1
            before_flush = ssc.metrics.windows_emitted
            ssc.stop(flush=True)
            flushed = ssc.metrics.windows_emitted - before_flush
        assert flushed > 0
        with make_sc() as sc2:
            ssc2, sinks2 = build(sc2, ck)
            ssc2.restore(ck)
            # The restored snapshot still holds those windows open; a
            # second flush must find every one in the suppression set.
            ssc2.stop(flush=True)
            assert ssc2.metrics.windows_suppressed == flushed
            resumed = canon(sinks2)
        assert resumed == {}

    def test_suppression_invariant(self, tmp_path):
        """restored emitted + suppressed == uninterrupted emitted."""
        with make_sc() as sc:
            ssc, _ = build(sc, None)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)
            uninterrupted = ssc.metrics.windows_emitted
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, _ = build(sc, ck)
            ssc.run_batches(CRASH_AT, batch_times=TIMES[:CRASH_AT])
        with make_sc() as sc2:
            ssc2, _sinks, _report = resume_and_finish(sc2, ck)
            # The restored metrics carry the crashed run's history up to
            # the checkpoint, replay re-runs the tail, and suppression
            # accounts for every window the crashed run already emitted.
            assert (
                ssc2.metrics.windows_emitted + ssc2.metrics.windows_suppressed
                == uninterrupted
            )
            assert ssc2.metrics.batches_replayed > 0

    def test_newer_build_refuses_a_format_1_snapshot(self, tmp_path):
        """A checkpoint written before window state moved onto the store
        (snapshot format 1, per-window ``"buffered"`` lists) is refused
        with a typed error that names both formats -- not skipped as
        corrupt, not silently replayed from zero -- and the fresh
        context is left exactly as declared."""
        from repro.streaming.checkpoint import load_latest_checkpoint, write_checkpoint

        ck = str(tmp_path / "ck")
        buffered = {
            "kind": "buffered",
            "absorbed": 2,
            "pending": [],
            "state": {
                "watermark": 2.5,
                "closed_horizon": float("-inf"),
                "late_dropped": 0,
                "late_window_drops": 0,
                "open": [(0.0, 4.0, [rec(0, 0.5)])],
            },
        }
        write_checkpoint(
            ck,
            epoch=1,
            snapshot={
                "format": 1,
                "next_batch_id": 3,
                "metrics": {"batches_run": 3},
                "consumers": [buffered],
                "sources": [None],
            },
            high_water=2,
        )
        with make_sc() as sc:
            ssc = StreamingContext(sc, checkpoint_dir=ck)
            _source, events = ssc.queue_stream([])
            sink = events.window(**WINDOW).collect_windows()
            with pytest.raises(StreamingError, match=r"format 1\b.*format 3\b"):
                ssc.restore()
            assert ssc._ingest.next_batch_id == 0
            assert ssc.metrics.batches_run == 0
            assert ssc.metrics.batches_replayed == 0
            assert sink.results() == []
            ssc.stop()
        # The epoch is intact, not "corrupt": it still loads and validates.
        _snapshot, manifest, skipped = load_latest_checkpoint(ck)
        assert (manifest["epoch"], skipped) == (1, 0)

    def test_newer_build_refuses_a_format_2_cep_snapshot(self, tmp_path):
        """A checkpoint whose CEP consumer state is hand-encoded lists
        (snapshot format 2: ``"matchers"``, ``"pending"``, ``"ready"``)
        is refused with a typed error that names both formats, and the
        fresh context is left exactly as declared."""
        from repro.streaming import sequence, step
        from repro.streaming.checkpoint import load_latest_checkpoint, write_checkpoint

        ck = str(tmp_path / "ck")
        cep = {
            "kind": "cep",
            "absorbed": 2,
            "watermark": 2.5,
            "horizon": 2.5,
            "next_rid": 1,
            "next_seq": 0,
            "late_dropped": 0,
            "pending": [],
            "eviction": [(8.5, 0)],
            "ready": [],
            "rules": ["pair"],
            "matchers": [
                {"partials": [[None, [[0.5, 0.5, 0, [0]]]]], "anchors": [], "overflowed": 0}
            ],
            "store": {"universe": (0.0, 0.0, 50.0, 50.0), "records": []},
        }
        write_checkpoint(
            ck,
            epoch=1,
            snapshot={
                "format": 2,
                "next_batch_id": 3,
                "metrics": {"batches_run": 3},
                "consumers": [cep],
                "sources": [None],
            },
            high_water=2,
        )
        with make_sc() as sc:
            ssc = StreamingContext(sc, checkpoint_dir=ck)
            _source, events = ssc.queue_stream([])
            stream = events.patterns(
                sequence("pair", steps=[step(), step()], within=6.0)
            )
            sink = stream.matches()
            with pytest.raises(StreamingError, match=r"format 2\b.*format 3\b"):
                ssc.restore()
            assert ssc._ingest.next_batch_id == 0
            assert ssc.metrics.batches_run == 0
            assert ssc.metrics.batches_replayed == 0
            assert sink.results() == []
            consumer = stream.consumer
            assert consumer.watermark == float("-inf")
            assert consumer.store.size == 0
            assert consumer.matchers[0].state()["_partials"] == {}
            ssc.stop()
        # The epoch is intact, not "corrupt": it still loads and validates.
        _snapshot, manifest, skipped = load_latest_checkpoint(ck)
        assert (manifest["epoch"], skipped) == (1, 0)


class TestRefusedRestore:
    """A consumer that refuses its snapshot state leaves the context fresh.

    Every consumer checks its state before any is installed, and the
    batch counter, the metrics and the source cursors move only after
    that, so a refusal reads as a fresh context (and ``restore()`` stays
    callable) and is a typed ``ValueError``, never a ``KeyError`` from a
    half-read snapshot.
    """

    def _declare(self, sc, ck, order, rule):
        from repro.streaming import sequence, step

        ssc = StreamingContext(sc, checkpoint_dir=ck, checkpoint_interval=2)
        events = ssc.generator_stream(rate=RATE, time_step=1.0, seed=11)
        for kind in order:
            if kind == "window":
                events.window(**WINDOW).count_windows()
            else:
                events.patterns(sequence(rule, steps=[step(), step()], within=2.0)).matches()
        return ssc

    def _refused(self, tmp_path, written, declared, match):
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc = self._declare(sc, ck, written, "pair")
            ssc.run_batches(4, batch_times=TIMES[:4])
            assert ssc.metrics.checkpoints_written > 0
            ssc.checkpoint_manager.close()
        with make_sc() as sc:
            ssc = self._declare(sc, ck, *declared)
            with pytest.raises(ValueError, match=match):
                ssc.restore()
            assert ssc._ingest.next_batch_id == 0
            assert ssc.metrics.batches_run == 0
            assert ssc.metrics.batches_replayed == 0
            fresh = self._declare(sc, None, *declared)
            assert [c.snapshot_state() for c in ssc._windows] == [
                c.snapshot_state() for c in fresh._windows
            ]
            ssc.stop(flush=False)
            fresh.stop(flush=False)
        return ck

    def test_a_refusal_restores_no_consumer(self, tmp_path):
        """A CEP consumer declared after a window refuses its rules: the
        window, checked and accepted first, is not restored either, so
        the next batches see only their own records."""
        ck = self._refused(
            tmp_path, ["window", "cep"], (["window", "cep"], "other"), "re-declared identically"
        )
        counts = []
        with make_sc() as sc:
            for directory in (ck, None):
                ssc = self._declare(sc, directory, ["window", "cep"], "other")
                if directory is not None:
                    with pytest.raises(ValueError):
                        ssc.restore()
                ssc.run_batches(2, batch_times=TIMES[:2])
                (window,) = [c for c in ssc._windows if hasattr(c, "state")]
                counts.append(window.store.size)
                ssc.stop(flush=False)
        assert counts[0] == counts[1] > 0

    def test_other_cep_rules_leave_the_context_fresh(self, tmp_path):
        self._refused(
            tmp_path, ["window", "cep"], (["window", "cep"], "other"), "re-declared identically"
        )

    def test_a_window_handed_cep_state_refuses_with_a_typed_error(self, tmp_path):
        self._refused(
            tmp_path, ["cep", "window"], (["window", "cep"], "pair"), r"'keyed'.*'cep'"
        )

    def test_a_bad_queue_cursor_is_refused_before_any_consumer(self, tmp_path):
        """A queue cursor that is not a batch count is refused with a
        typed error while recovery checks the snapshot, before any
        consumer is installed, so every consumer still reads fresh."""
        from repro.streaming import sequence, step
        from repro.streaming.checkpoint import load_latest_checkpoint, write_checkpoint

        batches = [[rec(10 * b + i, float(b)) for i in range(4)] for b in range(6)]

        def declare(sc, ck):
            ssc = StreamingContext(sc, checkpoint_dir=ck, checkpoint_interval=2)
            _source, events = ssc.queue_stream(batches)
            events.window(**WINDOW).count_windows()
            events.patterns(sequence("pair", steps=[step(), step()], within=2.0)).matches()
            return ssc

        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc = declare(sc, ck)
            ssc.run_batches(4, batch_times=TIMES[:4])
            ssc.checkpoint_manager.close()
        snapshot, manifest, _skipped = load_latest_checkpoint(ck)
        assert snapshot["sources"] == [4]
        snapshot["sources"] = ["x"]
        write_checkpoint(ck, manifest["epoch"] + 1, snapshot, manifest["wal_high_water"])
        with make_sc() as sc:
            ssc = declare(sc, ck)
            with pytest.raises(ValueError, match="cursor.*'x'"):
                ssc.restore()
            assert ssc._ingest.next_batch_id == 0
            assert ssc.metrics.batches_run == 0
            assert ssc.metrics.batches_replayed == 0
            assert ssc._inputs[0].source.cursor() == 0
            fresh = declare(sc, None)
            assert [c.snapshot_state() for c in ssc._windows] == [
                c.snapshot_state() for c in fresh._windows
            ]
            ssc.stop(flush=False)
            fresh.stop(flush=False)

"""The dead-letter queue: durability, provenance and replay.

Two halves.  The unit half pins the journal's crash discipline -- WAL
frames, torn-tail tolerance, reopen-after-crash visibility -- and the
entry schema replay depends on.  The integration half runs a windowed
pipeline whose sink fails under injected ``sink.write`` chaos (with and
without a circuit breaker) and proves the degraded run loses nothing:
every undeliverable window lands in the DLQ with provenance, the
stream never aborts, and one :func:`dlq_replay` call afterwards makes
the sink's directory byte-identical to a run whose sink never failed.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import FaultInjector
from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import (
    CircuitBreaker,
    DeadLetterQueue,
    EventFileSink,
    StreamingContext,
    dlq_replay,
)
from repro.streaming.window import Window

BATCHES = 8
TIMES = [float(b) for b in range(BATCHES)]
WINDOW = dict(length=2.0, slide=2.0)


def rec(i: int, t: float):
    return (STObject(f"POINT ({i % 50} {(i * 7) % 50})", t), (i, "cat"))


def make_batches():
    return [[rec(10 * b + i, float(b)) for i in range(4)] for b in range(BATCHES)]


def make_sc(injector=None):
    return SparkContext(
        "dlq", parallelism=2, retry_backoff=0.0, fault_injector=injector
    )


def read_files(directory) -> dict:
    if not os.path.isdir(directory):
        return {}
    return {
        name: sorted(open(os.path.join(directory, name)).read().splitlines())
        for name in sorted(os.listdir(directory))
        if not name.endswith("._tmp")
    }


def sample_records(n=3):
    return [rec(i, 0.5) for i in range(n)]


class TestDurability:
    def test_entries_survive_close_and_reopen(self, tmp_path):
        directory = str(tmp_path / "dlq")
        dlq = DeadLetterQueue(directory)
        dlq.add_window(
            "events", Window(0.0, 2.0), sample_records(), 3, "queue", "boom"
        )
        dlq.add_poison(rec(9, 1.0), 4, "queue", "ValueError: poison record 9")
        assert dlq.stats() == {
            "windows_added": 1,
            "poison_added": 1,
            "records_added": 3,
        }
        dlq.close()

        reopened = DeadLetterQueue(directory)
        entries = list(reopened.entries())
        assert [e["kind"] for e in entries] == ["sink_window", "poison_record"]
        window_entry, poison_entry = entries
        assert window_entry["sink"] == "events"
        assert window_entry["window"] == (0.0, 2.0)
        assert window_entry["batch_id"] == 3
        assert window_entry["source"] == "queue"
        assert window_entry["error"] == "boom"
        assert window_entry["circuit_open"] is False
        assert len(window_entry["records"]) == 3
        assert poison_entry["batch_id"] == 4
        assert "ValueError" in poison_entry["error"]
        reopened.close()

    def test_torn_tail_is_tolerated_and_truncated_on_reopen(self, tmp_path):
        directory = str(tmp_path / "dlq")
        dlq = DeadLetterQueue(directory)
        for batch_id in range(3):
            dlq.add_window(
                "events",
                Window(float(batch_id), float(batch_id + 2)),
                sample_records(1),
                batch_id,
                "queue",
                "boom",
            )
        dlq.close()
        # A crash mid-append leaves a torn frame at the segment tail.
        segments = sorted(
            os.path.join(directory, n)
            for n in os.listdir(directory)
            if n.startswith("wal-")
        )
        with open(segments[-1], "ab") as fh:
            fh.write(b"\x13\x37torn")
        # Readers stop cleanly at the damage...
        assert len(DeadLetterQueue(directory).sink_windows()) == 3
        # ...and a reopened writer truncates it, so post-restart appends
        # are never stranded behind the torn frame.
        recovered = DeadLetterQueue(directory)
        recovered.add_window(
            "events", Window(4.0, 6.0), sample_records(1), 9, "queue", "boom"
        )
        recovered.close()
        windows = DeadLetterQueue(directory).sink_windows()
        assert [e["batch_id"] for e in windows] == [0, 1, 2, 9]

    def test_filtering_by_sink_and_kind(self, tmp_path):
        dlq = DeadLetterQueue(str(tmp_path / "dlq"))
        dlq.add_window("a", Window(0.0, 2.0), sample_records(1), 0, "queue", "x")
        dlq.add_window("b", Window(0.0, 2.0), sample_records(1), 0, "queue", "x")
        dlq.add_poison(rec(5, 0.0), 1, "queue", "y")
        assert len(dlq) == 3
        assert [e["sink"] for e in dlq.sink_windows()] == ["a", "b"]
        assert [e["sink"] for e in dlq.sink_windows("b")] == ["b"]
        assert len(dlq.poison_records()) == 1
        dlq.close()


def build(sc, dlq_dir, out_dir, sink_kwargs=None):
    """One windowed pipeline delivering to an :class:`EventFileSink`."""
    ssc = StreamingContext(sc, dlq_dir=dlq_dir)
    source, events = ssc.queue_stream(make_batches())
    sink = EventFileSink(out_dir, retries=0, name="events", **(sink_kwargs or {}))
    events.window(**WINDOW).for_each_window(sink)
    return ssc, sink


class TestDegradedDeliveryAndReplay:
    @pytest.mark.chaos
    def test_dead_lettered_windows_replay_to_reference_equality(self, tmp_path):
        ref_out = str(tmp_path / "ref-out")
        with make_sc() as sc:
            ssc, _sink = build(sc, str(tmp_path / "ref-dlq"), ref_out)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop()
        reference = read_files(ref_out)
        assert len(reference) == 4  # [0,2) [2,4) [4,6) [6,8)

        dlq_dir = str(tmp_path / "dlq")
        out = str(tmp_path / "out")
        injector = FaultInjector(seed=3).fail("sink.write", times=2, per_key=False)
        with make_sc(injector) as sc:
            ssc, sink = build(sc, dlq_dir, out)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop()
        # The stream survived: nothing raised, the failed windows are
        # parked with provenance instead of lost.
        assert sink.dead_lettered == 2
        assert sink.committed == 2
        assert ssc.metrics.windows_dead_lettered == 2
        assert ssc.metrics.sink_failures == 2
        assert ssc.metrics.batches_failed == 0

        dlq = DeadLetterQueue(dlq_dir)
        entries = dlq.sink_windows("events")
        assert len(entries) == 2
        for entry in entries:
            assert entry["source"] == "queue"
            assert entry["batch_id"] is not None
            assert "InjectedFault" in entry["error"]
            assert entry["records"]

        # One replay call reproduces exactly the missing windows.
        with make_sc() as sc:
            replay_sink = EventFileSink(out, name="events")
            assert dlq_replay(dlq, replay_sink, sc) == 2
            assert read_files(out) == reference
            # Idempotent: everything is committed now.
            assert dlq_replay(dlq, replay_sink, sc) == 0
        dlq.close()

    @pytest.mark.chaos
    def test_breaker_routes_windows_to_dlq_then_probes_closed(self, tmp_path):
        dlq_dir = str(tmp_path / "dlq")
        out = str(tmp_path / "out")
        breaker = CircuitBreaker(failure_threshold=2, cooldown_windows=1)
        injector = FaultInjector(seed=3).fail("sink.write", times=2, per_key=False)
        with make_sc(injector) as sc:
            ssc, sink = build(
                sc, dlq_dir, out, sink_kwargs=dict(breaker=breaker)
            )
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop()
        # Windows 1-2 fail terminally and trip the breaker; window 3 is
        # refused while open (no write attempted); window 4 is the
        # half-open probe, succeeds, and closes the breaker.
        assert sink.dead_lettered == 3
        assert sink.committed == 1
        assert breaker.snapshot() == {
            "state": "closed",
            "opens": 1,
            "probes": 1,
            "refusals": 1,
        }
        assert ssc.metrics.sink_breaker_opens == 1
        entries = DeadLetterQueue(dlq_dir).sink_windows("events")
        assert [e["circuit_open"] for e in entries] == [False, False, True]
        refused = entries[-1]
        assert refused["error"] == "circuit breaker open"

        # Replay deliberately bypasses the breaker: the operator says
        # the sink is healthy again, even if the breaker disagrees.
        breaker.state = "open"
        with make_sc() as sc:
            replay_sink = EventFileSink(out, name="events", breaker=breaker)
            assert dlq_replay(DeadLetterQueue(dlq_dir), replay_sink, sc) == 3
        ref_out = str(tmp_path / "ref-out")
        with make_sc() as sc:
            ssc, _sink = build(sc, str(tmp_path / "ref-dlq"), ref_out)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop()
        assert read_files(out) == read_files(ref_out)

    @pytest.mark.chaos
    def test_sink_counters_are_per_process_across_restore(self, tmp_path):
        """Sinks keep no durable counters, so a restored context reports
        its own process's sink counts from the moment ``restore()``
        returns -- not the crashed run's until the next batch.  The
        durable total is the queue itself."""
        dlq_dir = str(tmp_path / "dlq")
        out = str(tmp_path / "out")
        ck = str(tmp_path / "ck")

        def declare(sc):
            ssc = StreamingContext(
                sc, dlq_dir=dlq_dir, checkpoint_dir=ck, checkpoint_interval=2
            )
            ssc.queue_stream(make_batches())[1].window(**WINDOW).for_each_window(
                EventFileSink(out, retries=0, name="events")
            )
            return ssc

        injector = FaultInjector(seed=3).fail("sink.write", times=2, per_key=False)
        with make_sc(injector) as sc:
            ssc = declare(sc)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            assert ssc.metrics.windows_dead_lettered == 2
            assert ssc.metrics.checkpoints_written == BATCHES // 2
            # Abandoned: no stop(), only the file handles are released.
            ssc.checkpoint_manager.close()
            ssc.dead_letter_queue.close()
        with make_sc() as sc:
            ssc = declare(sc)
            ssc.restore()
            after_restore = ssc.metrics.windows_dead_lettered
            assert ssc.run_batch(batch_time=float(BATCHES))  # no window closes
            assert after_restore == ssc.metrics.windows_dead_lettered == 0
            assert len(ssc.dead_letter_queue) == 2
            ssc.stop(flush=False)

    def test_breaker_with_no_dlq_refuses_loudly(self, tmp_path):
        sink = EventFileSink(
            str(tmp_path / "out"),
            breaker=CircuitBreaker(failure_threshold=1),
            name="events",
        )
        sink.breaker.record_failure()  # trip it open
        with make_sc() as sc:
            rdd = sc.parallelize(sample_records(), 1)
            with pytest.raises(RuntimeError, match="no dead-letter queue"):
                sink(Window(0.0, 2.0), rdd)

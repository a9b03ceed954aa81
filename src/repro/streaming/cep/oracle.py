"""Brute-force reference semantics for the CEP rules.

This module is the *executable specification* of what each rule means:
given the complete set of accepted events, it enumerates every match by
exhaustive search -- no NFAs, no incremental state, no watermark
machinery beyond a single final cutoff.  The property tests pit the
incremental matchers against it over randomized event orderings, and
the benchmark (``bench/streams.py``) checks every run's matches against it.

The semantics mirrored here, in terms of the stream's total event
order ``(t, arrival ordinal)``:

- *sequence*: every strictly order-increasing tuple of same-group
  events satisfying the step guards with ``t_last - t_first <=
  within`` (inclusive); under ``strict`` the tuple must be consecutive
  in its group's event order.  Transition guards (``entered`` /
  ``exited``) are evaluated against the group's previous event in the
  *global* order -- a property of the event, not of the tuple --
  exactly as the incremental matcher sees them.
- *absence*: an ``after``-matching event arms a trigger; the trigger
  fires unless a same-group ``expect``-matching event exists with time
  in ``(t, t + within]``; the arming event never cancels itself.
- *count* / *aggregate*: matching events assign to the rule's windows;
  each ``(window, group)`` with at least one event evaluates its count
  or reduced field against the threshold.

``watermark`` bounds processing the way the stream's final watermark
does: sequence members must have been fed to the matchers (event time
at or before the cutoff), absence deadlines and window closes must
have been reached.  The default ``inf`` corresponds to a flushed
stream.
"""

from __future__ import annotations

from typing import Any

from repro.core.stobject import STObject
from repro.geometry.distance import euclidean
from repro.streaming.window import event_span

from .nfa import _freeze_group
from .rules import (
    AbsenceRule,
    AggregateRule,
    CountRule,
    Match,
    Rule,
    SequenceRule,
)

_INF = float("inf")

Record = tuple[STObject, Any]


def canonical(match: Match) -> tuple:
    """A match's identity for set comparison, with ``seq`` erased.

    The emission ordinal is an engine artifact (the oracle has none),
    so equality between engine and oracle match sets compares
    everything else: rule, group, the contributing events themselves
    (STObjects hash by value), span and computed value.
    """
    return (match.rule, match.group, match.events, match.start, match.end, match.value)


class _Event:
    """One accepted event in oracle form."""

    __slots__ = ("idx", "st", "value", "t", "group", "prev_st")

    def __init__(self, idx: int, st: STObject, value: Any, t: float) -> None:
        self.idx = idx
        self.st = st
        self.value = value
        self.t = t
        self.group: Any = None
        #: The group's previous event geometry in global order (the
        #: transition-guard anchor), filled in per rule.
        self.prev_st: STObject | None = None


def _ordered_events(rows: list[Record], rule: Rule, fallback_time: float) -> list[_Event]:
    """Rows in the stream's total order, annotated with group + anchor."""
    events = []
    for idx, (st, value) in enumerate(rows):
        t_start, _t_end = event_span(st, fallback_time)
        events.append(_Event(idx, st, value, t_start))
    events.sort(key=lambda ev: (ev.t, ev.idx))
    anchors: dict[Any, STObject] = {}
    for ev in events:
        ev.group = _freeze_group(rule.group_key(ev.st, ev.value))
        ev.prev_st = anchors.get(ev.group)
        anchors[ev.group] = ev.st
    return events


def _sequence_matches(
    rule: SequenceRule, events: list[_Event], watermark: float
) -> list[Match]:
    # The engine feeds an event to the matchers only once the watermark
    # passes it, so events beyond the cutoff can neither extend nor
    # complete a sequence.  Filtering keeps a (t, idx)-prefix per group
    # -- anchors (prev_st) still agree, because an event's predecessor
    # always precedes it in that order.
    by_group: dict[Any, list[_Event]] = {}
    for ev in events:
        if ev.t <= watermark:
            by_group.setdefault(ev.group, []).append(ev)
    steps = rule.steps
    k = len(steps)
    out: list[Match] = []

    def step_ok(ev: _Event, step_idx: int, chosen: list[_Event]) -> bool:
        pattern = steps[step_idx]
        if not pattern.matches_event(ev.st, ev.value):
            return False
        if not pattern.transition_ok(ev.prev_st, ev.st):
            return False
        if pattern.within_distance is not None:
            for prev in chosen:
                if euclidean(prev.st.geo, ev.st.geo) > pattern.within_distance:
                    return False
        return True

    for group, members in by_group.items():
        if rule.strict:
            # Strict contiguity: only consecutive runs in the group's
            # event order can match.
            for start in range(len(members) - k + 1):
                run = members[start : start + k]
                if run[-1].t - run[0].t > rule.within:
                    continue
                if all(step_ok(run[i], i, run[:i]) for i in range(k)):
                    out.append(
                        Match(
                            rule=rule.name,
                            group=group,
                            events=tuple((ev.st, ev.value) for ev in run),
                            start=run[0].t,
                            end=run[-1].t,
                        )
                    )
            continue

        def dfs(start_idx: int, chosen: list[_Event]) -> None:
            step_idx = len(chosen)
            if step_idx == k:
                out.append(
                    Match(
                        rule=rule.name,
                        group=group,
                        events=tuple((ev.st, ev.value) for ev in chosen),
                        start=chosen[0].t,
                        end=chosen[-1].t,
                    )
                )
                return
            for pos in range(start_idx, len(members)):
                ev = members[pos]
                if chosen and ev.t - chosen[0].t > rule.within:
                    break  # members are ordered; later ones only worse
                if step_ok(ev, step_idx, chosen):
                    dfs(pos + 1, chosen + [ev])

        dfs(0, [])
    return out


def _absence_matches(
    rule: AbsenceRule, events: list[_Event], watermark: float
) -> list[Match]:
    by_group: dict[Any, list[_Event]] = {}
    for ev in events:
        by_group.setdefault(ev.group, []).append(ev)
    fired = []
    for group, members in by_group.items():
        for ev in members:
            if not (
                rule.after.matches_event(ev.st, ev.value)
                and rule.after.transition_ok(ev.prev_st, ev.st)
            ):
                continue
            deadline = ev.t + rule.within
            if deadline > watermark:
                continue
            cancelled = any(
                other.t > ev.t
                and other.t <= deadline
                and rule.expect.matches_event(other.st, other.value)
                and rule.expect.transition_ok(other.prev_st, other.st)
                for other in members
            )
            if not cancelled:
                fired.append((deadline, ev.t, ev.idx, group, ev))
    fired.sort(key=lambda row: (row[0], row[1], row[2]))
    return [
        Match(
            rule=rule.name,
            group=group,
            events=((ev.st, ev.value),),
            start=ev.t,
            end=deadline,
        )
        for deadline, _t, _idx, group, ev in fired
    ]


def _windowed_matches(
    rule: "CountRule | AggregateRule", events: list[_Event], watermark: float
) -> list[Match]:
    windows: dict[tuple[float, float], dict[Any, list[_Event]]] = {}
    for ev in events:
        if not (
            rule.pattern.matches_event(ev.st, ev.value)
            and rule.pattern.transition_ok(ev.prev_st, ev.st)
        ):
            continue
        for window in rule.spec.assign(ev.t, ev.t):
            if window.end > watermark:
                continue
            key = (window.start, window.end)
            windows.setdefault(key, {}).setdefault(ev.group, []).append(ev)
    out: list[Match] = []
    for key in sorted(windows):
        for group, members in windows[key].items():
            if isinstance(rule, AggregateRule):
                value = rule.reduce(
                    [float(rule.field(ev.st, ev.value)) for ev in members]
                )
            else:
                value = len(members)
            if rule.compare(value):
                out.append(
                    Match(
                        rule=rule.name,
                        group=group,
                        events=tuple((ev.st, ev.value) for ev in members),
                        start=key[0],
                        end=key[1],
                        value=value,
                    )
                )
    return out


def brute_force_matches(
    rows: list[Record],
    rule: Rule,
    fallback_time: float = 0.0,
    watermark: float = _INF,
) -> list[Match]:
    """Every match of *rule* over the complete event set *rows*.

    *rows* are ``(STObject, value)`` pairs in arrival order (the
    arrival ordinal breaks event-time ties, mirroring rid order);
    untimed events take *fallback_time* as their instant, like a
    batch's ingest time.  *watermark* cuts off time-driven completions;
    the default means "stream flushed".  Matches carry ``seq=-1`` --
    compare against engine output through :func:`canonical`.
    """
    events = _ordered_events(list(rows), rule, fallback_time)
    if isinstance(rule, SequenceRule):
        return _sequence_matches(rule, events, watermark)
    if isinstance(rule, AbsenceRule):
        return _absence_matches(rule, events, watermark)
    if isinstance(rule, (CountRule, AggregateRule)):
        return _windowed_matches(rule, events, watermark)
    raise TypeError(f"unknown rule type: {type(rule).__name__}")

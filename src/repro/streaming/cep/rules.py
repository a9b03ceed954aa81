"""The CEP rule DSL: event patterns, spatial guards and the four rules.

A *rule* is a declarative description of a situation across events --
the noex-rules vocabulary (sequence / absence / count / aggregate with
``within`` and ``group_by``), extended with the spatial guards that
make it spatio-temporal over :class:`~repro.core.stobject.STObject`
streams:

- ``inside=geometry`` -- the event's geometry must be contained by a
  fixed fence (the static-side relaxed ``CONTAINED_BY`` of the batch
  operators);
- ``entered=fence`` / ``exited=fence`` -- *transition* guards: the
  event crosses the fence boundary relative to its group's previous
  event (an entity's last known position), the geofence entry/exit
  primitives;
- ``within_distance=d`` -- in a :func:`sequence` step, the event must
  lie within Euclidean distance ``d`` of **every** event already
  matched by the partial match ("three events within 500m of each
  other").

Rules are pure descriptions: building one runs nothing.  They compile
to the incremental matchers of :mod:`repro.streaming.cep.nfa` when
registered through :meth:`~repro.streaming.dstream.SpatialDStream.
patterns`, and the executable specification of what each rule *means*
is the brute-force :mod:`repro.streaming.cep.oracle` the tests pin the
matchers against.

Event order is the stream's deterministic total order ``(t, rid)`` --
event-time start, then arrival ordinal -- so rules over ties and
out-of-order arrival mean the same thing on every executor backend.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.predicates import CONTAINED_BY, resolve_predicate
from repro.core.stobject import STObject
from repro.streaming.operators import relax_static
from repro.streaming.window import WindowSpec

#: Comparators a :func:`count` / :func:`aggregate` rule may gate on.
COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "gte": operator.ge,
    "lte": operator.le,
    "eq": operator.eq,
    "gt": operator.gt,
    "lt": operator.lt,
}

#: Aggregations an :func:`aggregate` rule may compute over a window.
AGGREGATIONS = ("sum", "avg", "min", "max")

#: ``CONTAINED_BY`` under the streaming static-side temporal
#: relaxation: an untimed fence matches timed events spatially.
_INSIDE = relax_static(resolve_predicate(CONTAINED_BY))


class RuleError(ValueError):
    """An invalid rule or pattern declaration."""


def _category_of(value: Any) -> Any:
    """The record value's category under the built-in source convention.

    The bundled sources and sinks carry values shaped ``(id,
    category)``; for tuple/list values the last element is the
    category, any other value *is* its own category.
    """
    if isinstance(value, (tuple, list)) and value:
        return value[-1]
    return value


def _as_fence(geometry: "STObject | str | None", guard: str) -> STObject | None:
    """Coerce a guard's fence to an :class:`STObject` (WKT accepted)."""
    if geometry is None:
        return None
    if isinstance(geometry, STObject):
        return geometry
    try:
        return STObject(geometry)
    except Exception as exc:
        raise RuleError(f"{guard} guard needs a geometry or WKT string: {exc}") from exc


@dataclass(frozen=True)
class EventPattern:
    """One step of a rule: what a single event must satisfy.

    Built by :func:`step`.  ``category``/``where``/``inside`` are
    *local* guards decided by the event alone; ``entered``/``exited``
    are transition guards decided against the group's previous event
    (:meth:`transition_ok`); ``within_distance`` is relational to a
    sequence's previously matched events and is evaluated by the
    sequence matcher itself.
    """

    #: Category the value must carry (see :func:`_category_of`); None
    #: accepts any category.
    category: Any = None
    #: Arbitrary guard ``fn(st, value) -> bool``; None accepts all.
    where: Callable[[STObject, Any], bool] | None = None
    #: Fence the event must lie inside (relaxed ``CONTAINED_BY``).
    inside: STObject | None = None
    #: Fence the event must have just entered (previous group event
    #: outside or unknown, this event inside).
    entered: STObject | None = None
    #: Fence the event must have just exited (previous group event
    #: inside, this event outside).
    exited: STObject | None = None
    #: Max Euclidean distance to every previously matched event of the
    #: partial match (sequence steps only; None disables).
    within_distance: float | None = None

    def matches_event(self, st: STObject, value: Any) -> bool:
        """The local guards: category, ``where`` and ``inside``."""
        if self.category is not None and _category_of(value) != self.category:
            return False
        if self.where is not None and not self.where(st, value):
            return False
        if self.inside is not None and not _INSIDE.evaluate(st, self.inside):
            return False
        return True

    def transition_ok(self, prev_st: STObject | None, st: STObject) -> bool:
        """The transition guards against the group's previous event.

        ``entered``: this event inside the fence, the previous one
        outside -- or unknown, so a group's *first* sighting inside
        counts as an entry.  ``exited``: the previous event inside,
        this one outside; with no previous event there is nothing to
        exit, so the guard fails.
        """
        if self.entered is not None:
            if not _INSIDE.evaluate(st, self.entered):
                return False
            if prev_st is not None and _INSIDE.evaluate(prev_st, self.entered):
                return False
        if self.exited is not None:
            if _INSIDE.evaluate(st, self.exited):
                return False
            if prev_st is None or not _INSIDE.evaluate(prev_st, self.exited):
                return False
        return True


def step(
    category: Any = None,
    where: Callable[[STObject, Any], bool] | None = None,
    inside: "STObject | str | None" = None,
    entered: "STObject | str | None" = None,
    exited: "STObject | str | None" = None,
    within_distance: float | None = None,
) -> EventPattern:
    """Build one :class:`EventPattern` (a rule step).

    All guards are optional and conjunctive -- an event matches the
    step when every declared guard holds.  ``within_distance`` must be
    positive and is only meaningful inside :func:`sequence` steps.
    """
    if within_distance is not None and within_distance <= 0:
        raise RuleError(
            f"within_distance must be positive, got {within_distance}"
        )
    return EventPattern(
        category=category,
        where=where,
        inside=_as_fence(inside, "inside"),
        entered=_as_fence(entered, "entered"),
        exited=_as_fence(exited, "exited"),
        within_distance=within_distance,
    )


@dataclass(frozen=True)
class Match:
    """One rule firing: the completed evidence for a pattern.

    ``events`` are the contributing ``(STObject, value)`` records in
    event order; ``start``/``end`` span the match in event time
    (window bounds for count/aggregate, trigger time to deadline for
    absence); ``value`` carries the count or aggregate (None for
    sequence/absence); ``seq`` is the consumer-wide emission ordinal
    -- the match's durable identity in the emitted ledger and in
    per-match sink targets.
    """

    rule: str
    group: Any
    events: tuple
    start: float
    end: float
    value: Any = None
    seq: int = -1


class Rule:
    """Base class of the four rule types (a named, grouped pattern).

    Subclasses carry their own matching parameters; the shared part is
    the rule ``name`` (the tag its matches are emitted under, unique
    per :meth:`~repro.streaming.dstream.SpatialDStream.patterns` call)
    and the optional ``group_by`` key function that partitions the
    stream into independent match scopes.
    """

    def __init__(
        self, name: str, group_by: Callable[[STObject, Any], Any] | None
    ) -> None:
        if not name or not isinstance(name, str):
            raise RuleError(f"rule name must be a non-empty string, got {name!r}")
        self.name = name
        self.group_by = group_by

    def group_key(self, st: STObject, value: Any) -> Any:
        """The event's match scope (None when the rule is ungrouped)."""
        return self.group_by(st, value) if self.group_by is not None else None

    def expiry(self, t: float) -> float:
        """The event-time horizon after which an event at *t* can no
        longer contribute to a new match of this rule -- what drives
        eviction from the keyed state store (subclass duty)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class SequenceRule(Rule):
    """``sequence``: ordered steps within a time budget (see :func:`sequence`)."""

    def __init__(
        self,
        name: str,
        steps: list[EventPattern],
        within: float,
        group_by: Callable[[STObject, Any], Any] | None,
        strict: bool,
    ) -> None:
        super().__init__(name, group_by)
        self.steps = tuple(steps)
        self.within = within
        self.strict = strict

    def expiry(self, t: float) -> float:
        """An event can anchor or join matches until ``t + within``."""
        return t + self.within


class AbsenceRule(Rule):
    """``absence``: an expected event that never arrived (see :func:`absence`)."""

    def __init__(
        self,
        name: str,
        expect: EventPattern,
        within: float,
        after: EventPattern,
        group_by: Callable[[STObject, Any], Any] | None,
    ) -> None:
        super().__init__(name, group_by)
        self.expect = expect
        self.within = within
        self.after = after

    def expiry(self, t: float) -> float:
        """A trigger's evidence is needed until its deadline ``t + within``."""
        return t + self.within


class _WindowedRule(Rule):
    """Shared window machinery of :class:`CountRule` / :class:`AggregateRule`."""

    def __init__(
        self,
        name: str,
        pattern: EventPattern,
        within: float,
        threshold: Any,
        op: str,
        slide: float | None,
        group_by: Callable[[STObject, Any], Any] | None,
        origin: float,
    ) -> None:
        super().__init__(name, group_by)
        if op not in COMPARATORS:
            raise RuleError(
                f"op must be one of {sorted(COMPARATORS)}, got {op!r}"
            )
        if pattern.within_distance is not None:
            raise RuleError(
                "within_distance guards need a sequence's previously matched "
                f"events and cannot appear in a {type(self).__name__}"
            )
        self.pattern = pattern
        self.threshold = threshold
        self.op = op
        self.spec = WindowSpec(within, slide, origin)

    @property
    def within(self) -> float:
        """The evaluation window length."""
        return self.spec.length

    def compare(self, value: Any) -> bool:
        """Does *value* satisfy the rule's comparator against the threshold?"""
        return COMPARATORS[self.op](value, self.threshold)

    def expiry(self, t: float) -> float:
        """An event is needed until its last containing window closes."""
        return self.spec.pane(t)[-1].end


class CountRule(_WindowedRule):
    """``count``: event frequency per window and group (see :func:`count`)."""


class AggregateRule(_WindowedRule):
    """``aggregate``: a numeric reduction per window and group (see
    :func:`aggregate`)."""

    def __init__(
        self,
        name: str,
        pattern: EventPattern,
        field: Callable[[STObject, Any], float],
        agg: str,
        threshold: float,
        op: str,
        within: float,
        slide: float | None,
        group_by: Callable[[STObject, Any], Any] | None,
        origin: float,
    ) -> None:
        super().__init__(name, pattern, within, threshold, op, slide, group_by, origin)
        if agg not in AGGREGATIONS:
            raise RuleError(f"agg must be one of {AGGREGATIONS}, got {agg!r}")
        if not callable(field):
            raise RuleError(f"field must be callable, got {field!r}")
        self.field = field
        self.agg = agg

    def reduce(self, contributions: list[float]) -> float:
        """Fold the window's contributions with the rule's aggregation."""
        if self.agg == "sum":
            return sum(contributions)
        if self.agg == "avg":
            return sum(contributions) / len(contributions)
        if self.agg == "min":
            return min(contributions)
        return max(contributions)


def _check_within(within: float) -> float:
    if within <= 0:
        raise RuleError(f"within must be positive, got {within}")
    return float(within)


def sequence(
    name: str,
    steps: "list[EventPattern] | tuple[EventPattern, ...]",
    within: float,
    group_by: Callable[[STObject, Any], Any] | None = None,
    strict: bool = False,
) -> SequenceRule:
    """An ordered sequence of events inside a time budget.

    A match is any tuple of events, strictly increasing in the stream
    order ``(t, rid)``, where the i-th event satisfies ``steps[i]``
    (local, transition and ``within_distance`` guards), all events
    share the ``group_by`` key, and the span from first to last event
    is at most ``within`` (inclusive -- an event landing exactly on
    the budget boundary still completes the match).  Matching is
    *skip-till-any-match*: every combination that satisfies the rule
    fires, not just the earliest.

    With ``strict=True`` the matched events must be consecutive in
    their group's event order: any other event of the same group
    arriving between two matched steps kills the partial match.
    """
    patterns = list(steps)
    if not patterns:
        raise RuleError("sequence needs at least one step")
    if not all(isinstance(p, EventPattern) for p in patterns):
        raise RuleError("sequence steps must be EventPattern objects (use step())")
    return SequenceRule(name, patterns, _check_within(within), group_by, bool(strict))


def absence(
    name: str,
    expect: EventPattern,
    within: float,
    after: EventPattern | None = None,
    group_by: Callable[[STObject, Any], Any] | None = None,
) -> AbsenceRule:
    """An expected event that never arrived.

    Every event matching ``after`` arms a trigger; the trigger fires a
    match when *no* event of the same group matching ``expect``
    arrives with event time in ``(t_after, t_after + within]`` by the
    time the watermark passes the deadline.  ``after`` defaults to
    ``expect`` itself -- the heartbeat idiom, where each heartbeat
    expects the next one within the budget and silence raises the
    alarm.  The arming event never cancels its own trigger (the
    cancellation interval is open at the trigger instant).
    """
    if not isinstance(expect, EventPattern):
        raise RuleError("expect must be an EventPattern (use step())")
    if after is None:
        after = expect
    elif not isinstance(after, EventPattern):
        raise RuleError("after must be an EventPattern (use step())")
    for role, pattern in (("expect", expect), ("after", after)):
        if pattern.within_distance is not None:
            raise RuleError(
                f"within_distance guards cannot appear in an absence {role} "
                "pattern (they need a sequence's previously matched events)"
            )
    return AbsenceRule(name, expect, _check_within(within), after, group_by)


def count(
    name: str,
    pattern: EventPattern,
    within: float,
    threshold: int,
    op: str = "gte",
    slide: float | None = None,
    group_by: Callable[[STObject, Any], Any] | None = None,
    origin: float = 0.0,
) -> CountRule:
    """Event frequency per event-time window and group.

    Events matching *pattern* are assigned to tumbling (default) or
    sliding (``slide``) windows of length ``within``; when a window
    closes, each group's count is compared against ``threshold`` with
    ``op`` and a match fires per satisfying ``(window, group)``.  Only
    groups with at least one matching event in the window are
    evaluated -- a group the window never saw cannot fire (use
    :func:`absence` for "no events at all").
    """
    if not isinstance(pattern, EventPattern):
        raise RuleError("pattern must be an EventPattern (use step())")
    if threshold < 0:
        raise RuleError(f"threshold must be >= 0, got {threshold}")
    return CountRule(name, pattern, _check_within(within), threshold, op, slide, group_by, origin)


def aggregate(
    name: str,
    pattern: EventPattern,
    field: Callable[[STObject, Any], float],
    within: float,
    threshold: float,
    agg: str = "sum",
    op: str = "gte",
    slide: float | None = None,
    group_by: Callable[[STObject, Any], Any] | None = None,
    origin: float = 0.0,
) -> AggregateRule:
    """A numeric reduction per event-time window and group.

    Like :func:`count`, but each matching event contributes
    ``field(st, value)`` and the window's contributions fold through
    ``agg`` (``sum``/``avg``/``min``/``max``) before the ``op``
    comparison against ``threshold``.
    """
    return AggregateRule(
        name,
        pattern,
        field,
        agg,
        threshold,
        op,
        _check_within(within),
        slide,
        group_by,
        origin,
    )

"""Spatio-temporal complex event processing over spatial streams.

The pattern layer the paper's title promises: declarative rules over
*multiple* events -- ordered sequences, missing heartbeats, windowed
counts and aggregates -- extended with spatial guards over
:class:`~repro.core.stobject.STObject` (geofence containment,
entry/exit transitions, pairwise proximity), compiled to incremental
matchers whose event payloads live in the keyed
:class:`~repro.streaming.state.KeyedStateStore` and whose partial-match
state checkpoints and recovers with the rest of the stream.

Authoring is four builders plus :func:`~repro.streaming.cep.rules.step`::

    from repro.streaming import absence, sequence, step

    entry_exit = sequence(
        "entry-exit",
        steps=[step(entered=FENCE_WKT), step(exited=FENCE_WKT)],
        within=300.0,
        group_by=lambda st, value: value[0],   # per entity
    )
    silence = absence(
        "lost-heartbeat",
        expect=step(category="hb"),
        within=60.0,
        group_by=lambda st, value: region_of(st),
    )
    stream.patterns(entry_exit, silence).matches()

See ``rules`` for the DSL, ``nfa`` for the matchers, ``consumer`` for
the runtime wiring, and ``oracle`` for the brute-force executable
specification the tests pin everything against.
"""

from repro.streaming.cep.consumer import CepConsumer, PatternStream
from repro.streaming.cep.nfa import (
    AbsenceMatcher,
    SequenceMatcher,
    WindowedMatcher,
    compile_rule,
)
from repro.streaming.cep.oracle import brute_force_matches, canonical
from repro.streaming.cep.rules import (
    AGGREGATIONS,
    COMPARATORS,
    AbsenceRule,
    AggregateRule,
    CountRule,
    EventPattern,
    Match,
    Rule,
    RuleError,
    SequenceRule,
    absence,
    aggregate,
    count,
    sequence,
    step,
)

__all__ = [
    "AGGREGATIONS",
    "COMPARATORS",
    "AbsenceMatcher",
    "AbsenceRule",
    "AggregateRule",
    "CepConsumer",
    "CountRule",
    "EventPattern",
    "Match",
    "PatternStream",
    "Rule",
    "RuleError",
    "SequenceMatcher",
    "SequenceRule",
    "WindowedMatcher",
    "absence",
    "aggregate",
    "brute_force_matches",
    "canonical",
    "compile_rule",
    "count",
    "sequence",
    "step",
]

"""Combined spatio-temporal predicates (paper eqs. (1)-(3)).

The paper defines, for two STObjects ``o`` and ``p`` and a predicate
``phi``::

    phi(o, p) <=> phi_s(s(o), s(p)) and (
        (t(o) = undef and t(p) = undef) or
        (t(o) != undef and t(p) != undef and phi_t(t(o), t(p))))

i.e. the spatial predicate must hold, and either both temporal
components are undefined or both are defined and the temporal predicate
holds as well.  A mixed pair (one timed, one not) never matches.

:class:`STPredicate` bundles the spatial part, the temporal part and
the envelope pre-filter used by indexes and partition pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

from repro.core.stobject import STObject
from repro.geometry import predicates as geo_predicates
from repro.geometry.base import Geometry
from repro.geometry.distance import DistanceFunction, euclidean, resolve
from repro.geometry.envelope import Envelope
from repro.temporal import predicates as t_predicates
from repro.temporal.interval import TemporalExpression

SpatialPredicate = Callable[[Geometry, Geometry], bool]
TemporalPredicate = Callable[[TemporalExpression, TemporalExpression], bool]
EnvelopeTest = Callable[[Envelope, Envelope], bool]


def _identity_region(env: Envelope) -> Envelope:
    """Default candidate region: the query envelope itself."""
    return env


@dataclass(frozen=True)
class STPredicate:
    """A named spatio-temporal predicate.

    ``spatial``/``temporal`` are evaluated as ``f(item, query)``.
    ``envelope_test`` is the *necessary* (never sufficient) cheap test on
    envelopes used to collect candidates from an R-tree or to prune
    partitions; candidates always go through :meth:`evaluate` afterwards
    -- the refinement step of the paper's live indexing, where the
    temporal predicate is evaluated as well.

    ``candidate_region`` maps the query envelope to the region an index
    lookup must cover (identity except for distance predicates, which
    buffer it).
    """

    name: str
    spatial: SpatialPredicate
    temporal: TemporalPredicate
    envelope_test: EnvelopeTest
    candidate_region: Callable[[Envelope], Envelope] = field(
        default=_identity_region
    )

    #: Whether a mixed pair (exactly one side timed) passes the temporal
    #: clause.  Eqs. (2)/(3) say no.  The static-side relaxation
    #: (:class:`~repro.streaming.operators.StaticPredicate`) says yes, and
    #: overriding this is the one step it changes.
    mixed_pair_matches: ClassVar[bool] = False

    # The three methods below decide the temporal clause inline from the
    # STObject slots: refinement calls one of them per candidate.

    def evaluate(self, item: STObject, query: STObject) -> bool:
        """Full predicate with the combined temporal semantics."""
        item_t = item._time
        query_t = query._time
        if item_t is None or query_t is None:
            if item_t is not query_t and not self.mixed_pair_matches:
                return False
            return self.spatial(item._geo, query._geo)
        return self.spatial(item._geo, query._geo) and self.temporal(item_t, query_t)

    def temporal_clause(self, item: STObject, query: STObject) -> bool:
        """The temporal half of the combined semantics on its own.

        True when both temporal components are undefined, or both are
        defined and the temporal predicate holds; a mixed pair never
        matches (unless :attr:`mixed_pair_matches`).  Evaluating this
        clause *first* is the planner's temporal-first predicate order:
        for a temporally-selective query it rejects most items with two
        float comparisons before any geometry work runs.
        """
        item_t = item._time
        query_t = query._time
        if item_t is None or query_t is None:
            return item_t is query_t or self.mixed_pair_matches
        return self.temporal(item_t, query_t)

    def evaluate_ordered(
        self, item: STObject, query: STObject, temporal_first: bool
    ) -> bool:
        """:meth:`evaluate` with an explicit clause order.

        Both orders compute the same truth value (the clauses are
        independent); the order only decides which side pays for the
        rejections, which is what the cost-based planner optimizes.
        """
        item_t = item._time
        query_t = query._time
        if item_t is None or query_t is None:
            if item_t is not query_t and not self.mixed_pair_matches:
                return False
            return self.spatial(item._geo, query._geo)
        if temporal_first:
            return self.temporal(item_t, query_t) and self.spatial(item._geo, query._geo)
        return self.spatial(item._geo, query._geo) and self.temporal(item_t, query_t)

    def __repr__(self) -> str:
        return f"STPredicate({self.name})"


def _env_intersects(item_env: Envelope, query_env: Envelope) -> bool:
    return item_env.intersects(query_env)


def _env_item_contains_query(item_env: Envelope, query_env: Envelope) -> bool:
    return item_env.contains(query_env)


def _env_query_contains_item(item_env: Envelope, query_env: Envelope) -> bool:
    return query_env.contains(item_env)


#: ``o intersects p``: spatial intersection + temporal intersection.
INTERSECTS = STPredicate(
    "intersects",
    geo_predicates.intersects,
    t_predicates.t_intersects,
    _env_intersects,
)

#: ``o contains p``: the item completely contains the query.
CONTAINS = STPredicate(
    "contains",
    geo_predicates.contains,
    t_predicates.t_contains,
    _env_item_contains_query,
)

#: ``o containedBy p``: the item lies completely within the query
#: (the reverse operation of contains, as the paper defines it).
CONTAINED_BY = STPredicate(
    "containedby",
    lambda item, query: geo_predicates.contains(query, item),
    lambda item_t, query_t: t_predicates.t_contains(query_t, item_t),
    _env_query_contains_item,
)


def within_distance_predicate(
    max_distance: float,
    distance_fn: str | DistanceFunction = euclidean,
) -> STPredicate:
    """The ``withinDistance`` predicate with a pluggable distance function.

    The temporal part is intersection: two timed events are "within
    distance" when they are near in space and their times overlap.

    Envelope pruning is only *valid* for the Euclidean metric (an
    envelope gap larger than ``max_distance`` proves the geometries are
    farther apart).  For any other function the envelope test degrades
    to always-true, so candidates are complete; the exact function then
    decides.
    """
    if max_distance < 0:
        raise ValueError("max_distance must be non-negative")
    fn = resolve(distance_fn)
    is_euclidean = fn is euclidean

    def spatial(item_geo: Geometry, query_geo: Geometry) -> bool:
        return fn(item_geo, query_geo) <= max_distance

    if is_euclidean:
        def envelope_test(item_env: Envelope, query_env: Envelope) -> bool:
            return item_env.distance(query_env) <= max_distance

        def candidate_region(query_env: Envelope) -> Envelope:
            return query_env.buffer(max_distance)
    else:
        def envelope_test(item_env: Envelope, query_env: Envelope) -> bool:  # noqa: ARG001
            return True

        def candidate_region(query_env: Envelope) -> Envelope:  # noqa: ARG001
            return Envelope(
                float("-inf"), float("-inf"), float("inf"), float("inf")
            )

    return STPredicate(
        f"withindistance({max_distance:g})",
        spatial,
        t_predicates.t_intersects,
        envelope_test,
        candidate_region,
    )


BUILTIN_PREDICATES: dict[str, STPredicate] = {
    "intersects": INTERSECTS,
    "contains": CONTAINS,
    "containedby": CONTAINED_BY,
}


def resolve_predicate(name_or_pred: str | STPredicate) -> STPredicate:
    """Resolve a predicate from its name, or pass an instance through."""
    if isinstance(name_or_pred, STPredicate):
        return name_or_pred
    try:
        return BUILTIN_PREDICATES[name_or_pred.lower()]
    except (KeyError, AttributeError):
        known = ", ".join(sorted(BUILTIN_PREDICATES))
        raise ValueError(
            f"unknown predicate {name_or_pred!r}; known: {known}"
        ) from None

"""Metamorphic and degenerate-input tests of the predicate kernel.

Hypothesis draws geometry on a coarse dyadic grid, where every
operation the kernel applies to coordinates is exact: zero-area
(collinear) rings, polygons meeting at a vertex or along an edge,
vertical and horizontal lines (zero-width envelopes), points on edges
and vertices, and collections with empty members.  On such input no
relation may depend on where the pair sits or on its size, a symmetric
relation may not depend on argument order, and touches / overlaps /
crosses are pairwise exclusive, each implying intersects.

One more family puts a point a few ulps either side of an edge at
non-dyadic coordinates -- alone, or as the first vertex of a segment or
a triangle -- where the kernel's tolerance decides: refinement may never
accept a pair the operator's envelope test rejects, nor lose a pair that
intersects in exact arithmetic.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.predicates import (
    CONTAINED_BY,
    CONTAINS,
    INTERSECTS,
    within_distance_predicate,
)
from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry import predicates as pred
from repro.geometry.ops import scale, translate

#: A grid of halves: coarse enough that shared vertices, shared edges and
#: collinear runs are common draws.
grid = st.integers(0, 8).map(lambda n: n / 2)
coords = st.tuples(grid, grid)

RELATIONS = {
    "intersects": pred.intersects,
    "contains": pred.contains,
    "covers": pred.covers,
    "within": lambda a, b: a.within(b),
    "touches": pred.touches,
    "overlaps": pred.overlaps,
    "crosses": pred.crosses,
}


def rectangle(x0, y0, x1, y1, clockwise=False, start=0):
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    if clockwise:
        corners.reverse()
    return Polygon(corners[start:] + corners[:start])


points = coords.map(lambda c: Point(*c))


@st.composite
def lines(draw):
    kind = draw(st.sampled_from(("free", "vertical", "horizontal")))
    if kind == "free":
        return LineString(draw(st.lists(coords, min_size=2, max_size=4, unique=True)))
    at = draw(grid)
    lo, hi = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
    ends = [(at, lo), (at, hi)] if kind == "vertical" else [(lo, at), (hi, at)]
    return LineString(ends)


@st.composite
def polygons(draw):
    x0, x1 = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
    kind = draw(st.sampled_from(("rectangle", "clockwise", "rotated", "triangle", "holed")))
    if kind == "triangle":  # collinear vertices make a zero-area ring
        return Polygon(draw(st.lists(coords, min_size=3, max_size=3, unique=True)))
    if kind == "holed" and x1 - x0 > 1 and y1 - y0 > 1:
        hole = rectangle(x0 + 0.5, y0 + 0.5, x1 - 0.5, y1 - 0.5).shell
        return Polygon(rectangle(x0, y0, x1, y1).shell, [hole])
    # Either winding, from any corner: every one takes the rectangle shortcut.
    start = draw(st.integers(1, 3)) if kind == "rotated" else 0
    return rectangle(x0, y0, x1, y1, clockwise=kind == "clockwise", start=start)


simple = st.one_of(points, lines(), polygons())


@st.composite
def collections(draw):
    kind, members, empties = draw(
        st.sampled_from(
            (
                (MultiPoint, points, [Point()]),
                (MultiLineString, lines(), [LineString()]),
                (MultiPolygon, polygons(), [Polygon()]),
                (GeometryCollection, simple, [Point(), LineString(), Polygon()]),
            )
        )
    )
    geoms = draw(st.lists(members, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):  # empty members anywhere
        geoms.insert(draw(st.integers(0, len(geoms))), draw(st.sampled_from(empties)))
    return kind(geoms)


geometries = st.one_of(simple, collections())


def edges(geom):
    """Every segment of *geom*'s lines and polygon rings."""
    for part in getattr(geom, "geoms", (geom,)):
        if isinstance(part, Polygon):
            for ring in part.rings():
                yield from ring.segments()
        elif isinstance(part, LineString):
            yield from part.segments()


def boundary_probes(geom):
    """Every vertex and edge midpoint of *geom*."""
    midpoints = [((s[0] + e[0]) / 2, (s[1] + e[1]) / 2) for s, e in edges(geom)]
    return geom.coordinates() + midpoints


@st.composite
def pairs(draw):
    """Two drawn geometries, or one and a point on its vertices or edges."""
    a = draw(geometries)
    if draw(st.booleans()):
        b = draw(geometries)
    else:
        b = Point(*draw(st.sampled_from(boundary_probes(a))))
    return (a, b) if draw(st.booleans()) else (b, a)


#: Non-dyadic coordinates, as a grid universe in thirds produces them.
thirds = st.integers(0, 60).map(lambda n: n / 3)


def nudge(value, ulps):
    """*value* moved *ulps* units in the last place (negative: down)."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def near_edge_pairs(draw):
    """A line or polygon, and a point a few ulps from one of its edges or a
    segment or triangle with that point as its first vertex."""
    x0, x1 = sorted(draw(st.lists(thirds, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(thirds, min_size=2, max_size=2, unique=True)))
    base = draw(
        st.sampled_from(
            (
                rectangle(x0, y0, x1, y1),
                rectangle(x0, y0, x1, y1, clockwise=True, start=2),
                Polygon([(x0, y0), (x1, y0), (x1, y1)]),
                LineString([(x0, y0), (x1, y1)]),
                LineString([(x0, y0), (x1, y0)]),
            )
        )
    )
    s, e = draw(st.sampled_from(list(edges(base))))
    t = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))
    x, y = s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])
    ulps = st.integers(-4, 4)
    p = (nudge(x, draw(ulps)), nudge(y, draw(ulps)))
    q = (p[0] + draw(st.integers(1, 6)) / 3, p[1] + draw(st.integers(-6, 6)) / 3)
    q = (q[0] if draw(st.booleans()) else 2 * p[0] - q[0], q[1])  # either side
    probe = draw(
        st.sampled_from((Point(*p), LineString([p, q]), Polygon([p, q, (q[0], p[1])])))
    )
    return (base, probe) if draw(st.booleans()) else (probe, base)


offsets = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(
    lambda n: (n[0] / 4, n[1] / 4)
)


@given(pairs(), offsets, st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_relations_survive_translation_and_scaling(pair, offset, power):
    factor = 2.0**power
    moved = [translate(scale(g, factor), *offset) for g in pair]
    for name, relation in RELATIONS.items():
        assert relation(*moved) == relation(*pair), name
    assert pred.distance(*moved) == pytest.approx(factor * pred.distance(*pair))


def check_symmetric(a, b):
    """Symmetric relations and distance ignore argument order; within is
    contains with the arguments swapped."""
    for relation in (pred.intersects, pred.touches, pred.overlaps, pred.crosses):
        assert relation(a, b) == relation(b, a), relation.__name__
    assert pred.distance(a, b) == pred.distance(b, a)
    assert a.within(b) == pred.contains(b, a)


def check_exclusive(a, b):
    """touches, overlaps, crosses: at most one holds, and it implies intersects.

    ``test_predicates_ext.py::TestMutualExclusion`` runs this and
    :func:`check_symmetric` on hand-picked pairs.
    """
    held = {rel.__name__: rel(a, b) for rel in (pred.touches, pred.overlaps, pred.crosses)}
    assert sum(held.values()) <= 1, held
    assert not any(held.values()) or pred.intersects(a, b), held


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_symmetric_relations_ignore_argument_order(pair):
    check_symmetric(*pair)


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_touches_overlaps_crosses_are_exclusive(pair):
    check_exclusive(*pair)


# Shrunk failures, each a pair with disjoint envelopes that one rounding
# measures at distance 0: a point 5e-324 below an edge (an edge's box
# widened by the tolerance); a point one ulp below the vertex a closing
# edge reaches (a projection rebuilding that vertex as 1 + (1/3 - 1));
# a point one ulp left of a triangle's vertex (the crossing count
# rebuilding its x the same way); segments ending a few ulps apart (an
# orientation that is zero only by tolerance taken for a crossing).
@example(pair=(Point(0, -5e-324), rectangle(0, 0, 1 / 3, 1 / 3)), d=0.0)
@example(pair=(Point(0, 0.33333333333333326), rectangle(0, 1 / 3, 1 / 3, 1)), d=0.0)
@example(
    pair=(Point(2.9999999999999996, 7 / 3), Polygon([(3, 7 / 3), (17 / 3, 7 / 3), (17 / 3, 16)])),
    d=0.0,
)
@example(
    pair=(
        LineString([(38 / 3, 2), (16, 37 / 3)]),
        LineString([(12.666666666666663, 1.9999999999999998), (11.666666666666663, 4)]),
    ),
    d=0.0,
)
@given(st.one_of(pairs(), near_edge_pairs()), st.sampled_from((0.0, 1e-15, 0.25)))
@settings(max_examples=200, deadline=None)
def test_refinement_never_accepts_what_the_envelope_test_rejects(pair, d):
    a, b = pair
    exact = pred.distance(a, b)
    for predicate in (
        INTERSECTS,
        CONTAINS,
        CONTAINED_BY,
        within_distance_predicate(d),
        within_distance_predicate(exact),  # spatially true by construction
    ):
        if predicate.spatial(a, b):
            assert predicate.envelope_test(a.envelope, b.envelope), predicate.name


# The converse, against a reference on Fractions: the tolerance may only
# add contact (a point within it of an edge counts as on the edge), never
# lose a pair that exactly intersects.


def exact_edges(geom):
    """*geom*'s segments as Fractions; a point is a zero-length segment."""
    if isinstance(geom, Point):
        p = tuple(map(Fraction, geom.coord))
        return [(p, p)]
    return [(tuple(map(Fraction, s)), tuple(map(Fraction, e))) for s, e in edges(geom)]


def exact_cross(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def exact_on(p, a, b):
    return (
        exact_cross(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def exact_meet(a1, a2, b1, b2):
    if (
        exact_cross(a1, a2, b1) * exact_cross(a1, a2, b2) < 0
        and exact_cross(b1, b2, a1) * exact_cross(b1, b2, a2) < 0
    ):
        return True
    return (
        exact_on(b1, a1, a2)
        or exact_on(b2, a1, a2)
        or exact_on(a1, b1, b2)
        or exact_on(a2, b1, b2)
    )


def exact_inside(p, poly):
    """Ray-crossing parity over *poly*'s rings (boundary points are
    :func:`exact_meet`'s to find)."""
    inside = False
    for s, e in exact_edges(poly):
        if (s[1] <= p[1] < e[1]) or (e[1] <= p[1] < s[1]):
            if s[0] + (p[1] - s[1]) * (e[0] - s[0]) / (e[1] - s[1]) > p[0]:
                inside = not inside
    return inside


def exact_intersects(a, b):
    """An edge of one meets an edge of the other, or a vertex of one lies
    inside the other."""
    if any(exact_meet(*ea, *eb) for ea in exact_edges(a) for eb in exact_edges(b)):
        return True
    return any(
        isinstance(outer, Polygon) and exact_inside(exact_edges(inner)[0][0], outer)
        for outer, inner in ((a, b), (b, a))
    )


@given(near_edge_pairs())
@settings(max_examples=200, deadline=None)
def test_refinement_keeps_every_pair_that_exactly_intersects(pair):
    if exact_intersects(*pair):
        assert pred.intersects(*pair)
        assert pred.distance(*pair) == 0.0

"""Exact binary predicates over geometries.

This module is the one place that decides how a pair of geometries is
classified.  It implements JTS-compatible semantics for the predicate
set STARK exposes:

- :func:`intersects` -- the geometries share at least one point,
- :func:`contains`   -- ``b`` lies within ``a`` and touches ``a``'s
  interior (JTS ``contains``: a polygon does *not* contain a point that
  only lies on its boundary),
- :func:`covers`     -- like contains but boundary contact suffices,
- :func:`distance`   -- minimum Euclidean distance (0 when intersecting),
- :func:`touches`    -- they intersect but their *interiors* do not:
  contact happens only along boundaries,
- :func:`overlaps`   -- same-dimension geometries whose interiors
  intersect, where neither covers the other (two partially-overlapping
  polygons; two collinear, partially-overlapping lines),
- :func:`crosses`    -- the interiors intersect in a set of lower
  dimension than the higher-dimensional operand (a line crossing a
  polygon; two lines meeting at interior points).

Every boolean predicate starts with an envelope test, so callers can
pass arbitrary geometries without pre-filtering; with the box tests of
:mod:`~repro.geometry.algorithms` exact, refinement never accepts a pair
that test rejects.  The symmetric relations (intersects, distance, the
interiors test behind touches/overlaps/crosses) find the kernel for a
pair of simple geometries by ``(type(a), type(b))`` in one dict lookup,
resolved once when the module loads (JTS resolves each pair of classes
once, too); a collection distributes over its non-empty parts
(:func:`_parts`).  Each :func:`intersects` kernel runs the envelope test
itself, and a point against a rectangle (:attr:`Polygon.is_rectangle`)
is answered by that test alone.  Containment branches on
:attr:`~repro.geometry.base.Geometry.dimension`.  Line tests probe
vertices plus segment midpoints, which is exact for the straight-edge
geometries this engine represents.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from repro.geometry import algorithms, base
from repro.geometry.algorithms import _EPS, EXTERIOR, INTERIOR
from repro.geometry.base import Geometry
from repro.geometry.linestring import LinearRing, LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

Coord = tuple[float, float]


# ---------------------------------------------------------------------------
# parts and dispatch
# ---------------------------------------------------------------------------


def _parts(geom: Geometry) -> list[Geometry]:
    """The non-empty points, lines and polygons *geom* is made of.

    A simple geometry is its own part; collections are flattened, so no
    caller ever meets a collection or an empty geometry among the parts.
    """
    if geom.is_collection:
        return [part for member in geom.geoms for part in _parts(member)]
    return [] if geom.is_empty else [geom]


def _dispatch_symmetric(a: Geometry, b: Geometry, table: dict) -> bool | float:
    """Apply a symmetric relation, looked up by the pair of types.

    A collection's answer combines its parts' answers: the minimum for
    distance, *any* for the boolean relations.
    """
    entry = table.get((type(a), type(b)))
    if entry is not None:
        kernel, swapped = entry
        return kernel(b, a) if swapped else kernel(a, b)
    if not (a.is_collection or b.is_collection):
        raise TypeError(f"no relation for {type(a).__name__} and {type(b).__name__}")
    answers = (
        _dispatch_symmetric(pa, pb, table) for pa in _parts(a) for pb in _parts(b)
    )
    return min(answers) if table is _DISTANCE else any(answers)


# ---------------------------------------------------------------------------
# intersects
# ---------------------------------------------------------------------------


def intersects(a: Geometry, b: Geometry) -> bool:
    """True when *a* and *b* share at least one point."""
    # _dispatch_symmetric's lookup, inlined: refinement calls this once
    # per candidate.
    entry = _INTERSECTS.get((type(a), type(b)))
    if entry is not None:
        # Each kernel starts with the envelope test, which also rejects
        # empty geometries (NaN coordinates, empty envelopes).
        kernel, swapped = entry
        return kernel(b, a) if swapped else kernel(a, b)
    return a.envelope.intersects(b.envelope) and _dispatch_symmetric(a, b, _INTERSECTS)


def _point_point_intersects(a: Point, b: Point) -> bool:
    return a._x == b._x and a._y == b._y


def _point_line_intersects(p: Point, line: LineString) -> bool:
    x, y = p._x, p._y
    env = line._envelope
    if not (env.min_x <= x <= env.max_x and env.min_y <= y <= env.max_y):
        return False
    return any(algorithms.on_segment((x, y), s, e) for s, e in line.segments())


def _point_polygon_intersects(p: Point, poly: Polygon) -> bool:
    # Polygon.locate with its envelope test inlined: refinement runs this
    # once per point-in-polygon candidate.
    x, y = p._x, p._y
    env = poly._envelope
    if not (env.min_x <= x <= env.max_x and env.min_y <= y <= env.max_y):
        return False
    if poly._is_rectangle:
        return True  # in the closed envelope is in the rectangle
    if poly._holes:
        return poly.locate(x, y) != EXTERIOR
    shell = poly._shell
    return algorithms.locate_in_edges(x, y, shell._edges or shell._prepare_edges()) != EXTERIOR


def _line_line_intersects(a: LineString, b: LineString) -> bool:
    if not a._envelope.intersects(b._envelope):
        return False
    for s1, e1 in a.segments():
        seg_env_min_x = min(s1[0], e1[0])
        seg_env_max_x = max(s1[0], e1[0])
        seg_env_min_y = min(s1[1], e1[1])
        seg_env_max_y = max(s1[1], e1[1])
        for s2, e2 in b.segments():
            if (
                max(s2[0], e2[0]) < seg_env_min_x
                or min(s2[0], e2[0]) > seg_env_max_x
                or max(s2[1], e2[1]) < seg_env_min_y
                or min(s2[1], e2[1]) > seg_env_max_y
            ):
                continue
            if algorithms.segments_intersect(s1, e1, s2, e2):
                return True
    return False


def _line_polygon_intersects(line: LineString, poly: Polygon) -> bool:
    if not line._envelope.intersects(poly._envelope):
        return False
    # Any crossing with any ring means contact.
    for ring in poly.rings():
        if _line_line_intersects(line, ring):
            return True
    # No boundary contact: the line is entirely inside or entirely
    # outside; one representative vertex decides.
    x, y = line.coords[0]
    return poly.locate(x, y) == INTERIOR


def _polygon_polygon_intersects(a: Polygon, b: Polygon) -> bool:
    if not a._envelope.intersects(b._envelope):
        return False
    for ring_a in a.rings():
        for ring_b in b.rings():
            if _line_line_intersects(ring_a, ring_b):
                return True
    # No boundary crossings: either disjoint or one fully inside the other
    # (possibly inside a hole -- locate() accounts for holes).
    ax, ay = a.shell.coords[0]
    if b.locate(ax, ay) == INTERIOR:
        return True
    bx, by = b.shell.coords[0]
    return a.locate(bx, by) == INTERIOR


# ---------------------------------------------------------------------------
# contains / covers
# ---------------------------------------------------------------------------


def contains(a: Geometry, b: Geometry) -> bool:
    """JTS ``contains``: *b* within *a* and *b* touches *a*'s interior."""
    # Envelope containment is False for empty envelopes on either side.
    if not a.envelope.contains(b.envelope):
        return False
    return _contains_dispatch(a, b, boundary_ok=False)


def covers(a: Geometry, b: Geometry) -> bool:
    """``covers``: every point of *b* is a point of *a* (boundary counts)."""
    if not a.envelope.contains(b.envelope):
        return False
    return _contains_dispatch(a, b, boundary_ok=True)


def _contains_dispatch(a: Geometry, b: Geometry, boundary_ok: bool) -> bool:
    if a.is_collection or b.is_collection:
        # Every part of b within some single part of a: sufficient, not
        # complete.  A union of polygons jointly covering b without one
        # covering it alone reports False; STARK's operators only
        # exercise simple geometries on the left.
        parts_a = _parts(a)
        return all(
            any(_contains_dispatch(pa, pb, boundary_ok) for pa in parts_a)
            for pb in _parts(b)
        )
    if a.dimension == 0:
        # A point contains only geometry degenerate to that very point.
        return all(c == a.coord for c in b.coordinates())
    if b.dimension > a.dimension:
        return False  # a line cannot contain an areal geometry
    if a.dimension == 1:
        # JTS contains() excludes the line's boundary (its two endpoints),
        # but STARK's usage treats containment set-theoretically; lines
        # keep the simpler covers-style semantics.
        if b.dimension == 0:
            return _point_line_intersects(b, a)
        return _line_contains_line(a, b)
    if b.dimension == 0:
        if boundary_ok:
            return _point_polygon_intersects(b, a)
        return _point_polygon_interiors(b, a)
    if b.dimension == 1:
        if boundary_ok:
            return _polygon_covers_line(a, b)
        return _polygon_contains_line(a, b)
    if boundary_ok:
        return _polygon_covers_polygon(a, b)
    return _polygon_contains_polygon(a, b)


def _sample_points(line: LineString) -> list[Coord]:
    """Vertices plus segment midpoints -- the probe set for on-line tests."""
    samples = list(line.coords)
    for s, e in line.segments():
        samples.append(((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0))
    return samples


def _line_contains_line(a: LineString, b: LineString) -> bool:
    # Sampled test: every vertex and midpoint of b lies on a.  Exact for
    # the straight-segment geometries used throughout the system.
    return all(
        any(algorithms.on_segment(pt, s, e) for s, e in a.segments())
        for pt in _sample_points(b)
    )


def _segment_properly_crosses_ring(s: Coord, e: Coord, ring: LineString) -> bool:
    """True when segment s-e crosses a ring edge at a single interior point.

    Touches at segment endpoints or collinear overlaps do not count: a
    contained geometry may touch the boundary from inside.
    """
    for rs, re in ring.segments():
        pt = algorithms.segment_intersection_point(s, e, rs, re)
        if pt is None:
            continue
        # Ignore crossings at the probe segment's own endpoints.
        if algorithms.coincident(pt, s) or algorithms.coincident(pt, e):
            continue
        return True
    return False


def _polygon_covers_line(poly: Polygon, line: LineString) -> bool:
    for pt in _sample_points(line):
        if poly.locate(pt[0], pt[1]) == EXTERIOR:
            return False
    # Sampled points inside is necessary but not sufficient: an edge can
    # dip out of the polygon and return between samples only by crossing
    # the boundary, which the proper-crossing test catches.
    for s, e in line.segments():
        for ring in poly.rings():
            if _segment_properly_crosses_ring(s, e, ring):
                return False
    return True


def _polygon_contains_line(poly: Polygon, line: LineString) -> bool:
    if not _polygon_covers_line(poly, line):
        return False
    # contains additionally requires interior contact: at least one probe
    # point strictly inside.
    return any(
        poly.locate(pt[0], pt[1]) == INTERIOR for pt in _sample_points(line)
    )


def _polygon_covers_polygon(a: Polygon, b: Polygon) -> bool:
    for ring in b.rings():
        if not _polygon_covers_line(a, ring):
            return False
    # Every hole of a must stay clear of b's interior: if a hole's
    # representative interior point is strictly inside b, part of b falls
    # into the hole (boundary-touching holes are fine and were already
    # vetted by the crossing tests above).
    for hole in a.holes:
        probe = _ring_interior_point(hole)
        if probe is not None and b.locate(*probe) == INTERIOR:
            return False
    return True


def _polygon_contains_polygon(a: Polygon, b: Polygon) -> bool:
    if not _polygon_covers_polygon(a, b):
        return False
    probe = _polygon_interior_point(b)
    return probe is not None and a.locate(*probe) == INTERIOR


def _ring_interior_point(ring: LinearRing) -> Coord | None:
    """A point strictly inside a closed ring (ignoring any holes)."""
    env = ring.envelope  # the empty ring's has width 0
    if env.width == 0 or env.height == 0:
        return None
    # Scan a few horizontal lines; the midpoint between consecutive
    # crossings (the half-open rule of ``locate_in_edges``) lies inside
    # for a simple ring.
    edges = algorithms.ring_edges(ring.coords)
    for frac in (0.5, 0.25, 0.75, 0.125, 0.875):
        y = env.min_y + env.height * frac
        xs = sorted(
            x1 + (y - y1) * dx / dy
            for y_lo, y_hi, _, _, x1, y1, dx, dy in edges
            if y_lo <= y < y_hi
        )
        for j in range(0, len(xs) - 1, 2):
            mid = ((xs[j] + xs[j + 1]) / 2.0, y)
            if ring.locate(*mid) == INTERIOR:
                return mid
    return None


def _polygon_interior_point(poly: Polygon) -> Coord | None:
    """A point strictly inside the polygon (holes respected)."""
    c = poly.centroid()
    if not c.is_empty and poly.locate(c.x, c.y) == INTERIOR:
        return c.coord
    env = poly.envelope
    if env.is_empty:
        return None
    steps = 16
    for iy in range(1, steps):
        y = env.min_y + env.height * iy / steps
        for ix in range(1, steps):
            x = env.min_x + env.width * ix / steps
            if poly.locate(x, y) == INTERIOR:
                return (x, y)
    return _ring_interior_point(poly.shell)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def distance(a: Geometry, b: Geometry) -> float:
    """Minimum Euclidean distance between *a* and *b* (0 when intersecting)."""
    if a.is_empty or b.is_empty:
        raise ValueError("distance undefined for empty geometries")
    return _dispatch_symmetric(a, b, _DISTANCE)


def _point_point_distance(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _point_line_distance(p: Point, line: LineString) -> float:
    # On the line is distance 0, as for every other pair: a projection
    # can round (or underflow) a point on a segment to a hair off it.
    if _point_line_intersects(p, line):
        return 0.0
    return min(
        algorithms.point_segment_distance(p.coord, s, e) for s, e in line.segments()
    )


def _point_polygon_distance(p: Point, poly: Polygon) -> float:
    if poly.locate(p.x, p.y) != EXTERIOR:
        return 0.0
    return min(_point_line_distance(p, ring) for ring in poly.rings())


def _line_line_distance(a: LineString, b: LineString) -> float:
    best = math.inf
    for s1, e1 in a.segments():
        for s2, e2 in b.segments():
            best = min(best, algorithms.segment_segment_distance(s1, e1, s2, e2))
            if best == 0.0:
                return 0.0
    return best


def _line_polygon_distance(line: LineString, poly: Polygon) -> float:
    if _line_polygon_intersects(line, poly):
        return 0.0
    return min(_line_line_distance(line, ring) for ring in poly.rings())


def _polygon_polygon_distance(a: Polygon, b: Polygon) -> float:
    if _polygon_polygon_intersects(a, b):
        return 0.0
    return min(
        _line_line_distance(ring_a, ring_b)
        for ring_a in a.rings()
        for ring_b in b.rings()
    )


# ---------------------------------------------------------------------------
# interior-interior intersection
# ---------------------------------------------------------------------------


def _point_is_line_interior(p: Coord, line: LineString) -> bool:
    """On the line but not one of its endpoints (a closed line has none)."""
    if not any(algorithms.on_segment(p, s, e) for s, e in line.segments()):
        return False
    first, last = line.coords[0], line.coords[-1]
    return first == last or (p != first and p != last)


def _point_polygon_interiors(p: Point, poly: Polygon) -> bool:
    return poly.locate(p.x, p.y) == INTERIOR


def _segments_cross_properly(a: LineString, b: LineString) -> bool:
    """Some pair of segments shares a point interior to both."""
    for s1, e1 in a.segments():
        for s2, e2 in b.segments():
            if algorithms.orientation(s1, e1, s2) * algorithms.orientation(s1, e1, e2) < 0 and (
                algorithms.orientation(s2, e2, s1) * algorithms.orientation(s2, e2, e1) < 0
            ):
                return True
    return False


def _collinear_overlap_length(a: LineString, b: LineString) -> bool:
    """Some collinear segment pair shares more than a single point."""
    for s1, e1 in a.segments():
        for s2, e2 in b.segments():
            if algorithms.orientation(s1, e1, s2) != 0 or algorithms.orientation(s1, e1, e2) != 0:
                continue
            # project onto the dominant axis of (s1, e1)
            axis = 0 if abs(e1[0] - s1[0]) >= abs(e1[1] - s1[1]) else 1
            lo = max(min(s1[axis], e1[axis]), min(s2[axis], e2[axis]))
            hi = min(max(s1[axis], e1[axis]), max(s2[axis], e2[axis]))
            if hi - lo > _EPS * max(abs(lo), abs(hi), 1.0):
                return True
    return False


def _line_line_interiors(a: LineString, b: LineString) -> bool:
    if _segments_cross_properly(a, b):
        return True
    if _collinear_overlap_length(a, b):
        return True
    # Endpoint-free contact: a vertex of one lying in the other's
    # interior only counts if it is also interior to its own line
    # (shared endpoints and T-junctions at endpoints are boundary contact).
    for p in a.coords[1:-1]:
        if _point_is_line_interior(p, b):
            return True
    for p in b.coords[1:-1]:
        if _point_is_line_interior(p, a):
            return True
    return False


def _line_polygon_interiors(line: LineString, poly: Polygon) -> bool:
    """Does the line's interior meet the polygon's open interior?"""
    # A sample strictly inside the polygon has interior points of the
    # line around it, even when it is one of the line's endpoints.
    if any(poly.locate(x, y) == INTERIOR for x, y in _sample_points(line)):
        return True
    # A segment could cross the polygon between samples only by
    # properly crossing a ring, which puts interior points inside.
    return any(_segments_cross_properly(line, ring) for ring in poly.rings())


def _polygon_polygon_interiors(a: Polygon, b: Polygon) -> bool:
    for ring_a in a.rings():
        for ring_b in b.rings():
            if _segments_cross_properly(ring_a, ring_b):
                return True
    probe_a = _polygon_interior_point(a)
    if probe_a is not None and b.locate(*probe_a) == INTERIOR:
        return True
    probe_b = _polygon_interior_point(b)
    return probe_b is not None and a.locate(*probe_b) == INTERIOR


def _lines(geom: Geometry) -> list[LineString]:
    return [part for part in _parts(geom) if part.dimension == 1]


# ---------------------------------------------------------------------------
# touches / overlaps / crosses
# ---------------------------------------------------------------------------


def touches(a: Geometry, b: Geometry) -> bool:
    """Boundary-only contact: they intersect, their interiors do not.

    Two equal points do not touch (point interiors are the points).
    """
    return intersects(a, b) and not _dispatch_symmetric(a, b, _INTERIORS)


def overlaps(a: Geometry, b: Geometry) -> bool:
    """Partial same-dimension overlap; neither side covers the other."""
    if a.dimension != b.dimension or not a.envelope.intersects(b.envelope):
        return False
    if covers(a, b) or covers(b, a):
        return False
    if a.dimension == 0:
        # multipoints overlap when they share some but not all members
        coords_a = set(a.coordinates())
        coords_b = set(b.coordinates())
        shared = coords_a & coords_b
        return bool(shared) and shared != coords_a and shared != coords_b
    if a.dimension == 1:
        # lines overlap only along collinear runs (a proper crossing is
        # a crosses relationship, not an overlap)
        return any(
            _collinear_overlap_length(la, lb) for la in _lines(a) for lb in _lines(b)
        )
    return _dispatch_symmetric(a, b, _INTERIORS)


def crosses(a: Geometry, b: Geometry) -> bool:
    """Interiors intersect with lower-dimensional contact.

    Supported shapes: line/line (proper interior crossing, no collinear
    overlap), line/polygon (the line has parts strictly inside and
    strictly outside), and point-set/higher-dim (some points interior,
    some disjoint).
    """
    if not a.envelope.intersects(b.envelope):
        return False
    if a.dimension > b.dimension:
        a, b = b, a
    if a.dimension == 0 and b.dimension > 0:
        # some point inside a line or polygon of b, some point off b
        points = _parts(a)
        inside = any(
            _dispatch_symmetric(p, q, _INTERIORS)
            for p in points
            for q in _parts(b)
            if q.dimension > 0
        )
        return inside and any(not intersects(p, b) for p in points)
    if a.dimension == 1 and b.dimension == 1:
        pairs = [(la, lb) for la in _lines(a) for lb in _lines(b)]
        properly = any(_segments_cross_properly(la, lb) for la, lb in pairs)
        return properly and not any(_collinear_overlap_length(la, lb) for la, lb in pairs)
    if a.dimension == 1 and b.dimension == 2:
        # Not covered: some part lies outside, even one leaving and
        # re-entering between sample points (a proper boundary crossing).
        outside = any(not covers(b, line) for line in _lines(a))
        return outside and _dispatch_symmetric(a, b, _INTERIORS)
    return False  # equal-dimension areal crossing does not exist


# ---------------------------------------------------------------------------
# dispatch tables: (type, type) -> (kernel, swapped)
# ---------------------------------------------------------------------------


def _by_type_pair(kernels: dict[tuple[type, type], Callable]) -> dict:
    """Key each kernel by both orders of its pair of simple types.

    A kernel takes its operands in the listed order, so the reversed
    pair maps to it with ``swapped`` set; a :class:`LinearRing` is keyed
    wherever a :class:`LineString` is.
    """
    table: dict[tuple[type, type], tuple[Callable, bool]] = {}
    for (type_a, type_b), kernel in kernels.items():
        for ta in _SUBTYPES.get(type_a, (type_a,)):
            for tb in _SUBTYPES.get(type_b, (type_b,)):
                table[ta, tb] = (kernel, False)
                table.setdefault((tb, ta), (kernel, True))
    return table


_SUBTYPES = {LineString: (LineString, LinearRing)}

#: Every kernel here runs the envelope test first.
_INTERSECTS = _by_type_pair({
    (Point, Point): _point_point_intersects,
    (Point, LineString): _point_line_intersects,
    (Point, Polygon): _point_polygon_intersects,
    (LineString, LineString): _line_line_intersects,
    (LineString, Polygon): _line_polygon_intersects,
    (Polygon, Polygon): _polygon_polygon_intersects,
})

_DISTANCE = _by_type_pair({
    (Point, Point): _point_point_distance,
    (Point, LineString): _point_line_distance,
    (Point, Polygon): _point_polygon_distance,
    (LineString, LineString): _line_line_distance,
    (LineString, Polygon): _line_polygon_distance,
    (Polygon, Polygon): _polygon_polygon_distance,
})

#: Do the interiors meet?  Point interiors are the points themselves.
_INTERIORS = _by_type_pair({
    (Point, Point): _point_point_intersects,
    (Point, LineString): lambda p, line: _point_is_line_interior(p.coord, line),
    (Point, Polygon): _point_polygon_interiors,
    (LineString, LineString): _line_line_interiors,
    (LineString, Polygon): _line_polygon_interiors,
    (Polygon, Polygon): _polygon_polygon_interiors,
})

# Geometry's predicate methods delegate here; hand them this module now
# that it is complete.
base._predicates = sys.modules[__name__]

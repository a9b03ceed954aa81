"""Constructive geometry operations.

Beyond the predicates, STARK's JTS dependency provides constructive
operations its users reach for in pre-/post-processing.  This module
implements the ones the examples and the Piglet builtins expose:

- :func:`clip_to_envelope` -- Sutherland-Hodgman clipping of a polygon
  (or the envelope-crop of other geometries) against a rectangle; used
  to crop results to a viewport,
- :func:`simplify` -- Douglas-Peucker polyline/polygon simplification,
- :func:`convex_hull_of` -- the convex hull of any geometry,
- :func:`translate`, :func:`scale`, :func:`rotate` -- affine
  transforms.

All functions return new geometries; inputs are never mutated.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.geometry import algorithms
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LinearRing, LineString
from repro.geometry.multi import (
    GeometryCollection,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

Coord = tuple[float, float]


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def _clip_ring_to_envelope(ring: Sequence[Coord], env: Envelope) -> list[Coord]:
    """Sutherland-Hodgman: clip a closed ring against a rectangle.

    Returns an open coordinate list (no repeated first point); empty
    when the ring lies fully outside.
    """
    # Each clip edge is (inside-test, intersection-solver).
    def clip_edge(
        coords: list[Coord],
        inside: Callable[[Coord], bool],
        intersect: Callable[[Coord, Coord], Coord],
    ) -> list[Coord]:
        out: list[Coord] = []
        if not coords:
            return out
        prev = coords[-1]
        prev_inside = inside(prev)
        for current in coords:
            current_inside = inside(current)
            if current_inside:
                if not prev_inside:
                    out.append(intersect(prev, current))
                out.append(current)
            elif prev_inside:
                out.append(intersect(prev, current))
            prev, prev_inside = current, current_inside
        return out

    def x_cross(a: Coord, b: Coord, x: float) -> Coord:
        t = (x - a[0]) / (b[0] - a[0])
        return (x, a[1] + t * (b[1] - a[1]))

    def y_cross(a: Coord, b: Coord, y: float) -> Coord:
        t = (y - a[1]) / (b[1] - a[1])
        return (a[0] + t * (b[0] - a[0]), y)

    coords = list(ring[:-1]) if ring and ring[0] == ring[-1] else list(ring)
    coords = clip_edge(coords, lambda p: p[0] >= env.min_x, lambda a, b: x_cross(a, b, env.min_x))
    coords = clip_edge(coords, lambda p: p[0] <= env.max_x, lambda a, b: x_cross(a, b, env.max_x))
    coords = clip_edge(coords, lambda p: p[1] >= env.min_y, lambda a, b: y_cross(a, b, env.min_y))
    coords = clip_edge(coords, lambda p: p[1] <= env.max_y, lambda a, b: y_cross(a, b, env.max_y))
    # Drop consecutive duplicates the clipping may introduce.
    deduped: list[Coord] = []
    for c in coords:
        if not deduped or not algorithms.coincident(c, deduped[-1]):
            deduped.append(c)
    return deduped


def clip_to_envelope(geom: Geometry, env: Envelope) -> Geometry:
    """Clip *geom* to a rectangle.

    Polygons are clipped exactly (Sutherland-Hodgman per ring; holes
    are clipped and re-attached when they survive).  Points and
    multipoints are filtered.  Line strings are split into the segments
    inside the window (segment-box clipping).  Returns an empty
    geometry of the input's type when nothing survives.
    """
    if env.is_empty or geom.is_empty:
        return _empty_like(geom)
    if isinstance(geom, Point):
        return geom if env.contains_point(geom.x, geom.y) else Point()
    if isinstance(geom, MultiPoint):
        kept = [p for p in geom.geoms if env.contains_point(p.x, p.y)]
        return MultiPoint(kept)
    if isinstance(geom, Polygon):
        shell = _clip_ring_to_envelope(geom.shell.coords, env)
        if not _ring_is_usable(shell):
            # Nothing or only a degenerate sliver (an edge/corner touch)
            # survives: the clipped polygon is empty.
            return Polygon()
        holes = []
        for hole in geom.holes:
            clipped = _clip_ring_to_envelope(hole.coords, env)
            if _ring_is_usable(clipped):
                holes.append(clipped)
        return Polygon(shell, holes)
    if isinstance(geom, LineString):
        return _clip_linestring(geom, env)
    if isinstance(geom, MultiPolygon):
        kept = [clip_to_envelope(p, env) for p in geom.geoms]
        return MultiPolygon([p for p in kept if not p.is_empty])
    if isinstance(geom, MultiLineString):
        parts = []
        for ls in geom.geoms:
            clipped = _clip_linestring(ls, env)
            if isinstance(clipped, MultiLineString):
                parts.extend(clipped.geoms)
            elif not clipped.is_empty:
                parts.append(clipped)
        return MultiLineString(parts)
    if isinstance(geom, GeometryCollection):
        kept = [clip_to_envelope(g, env) for g in geom.geoms]
        return GeometryCollection([g for g in kept if not g.is_empty])
    raise TypeError(f"cannot clip {type(geom).__name__}")


def _clip_segment(a: Coord, b: Coord, env: Envelope) -> tuple[Coord, Coord] | None:
    """Liang-Barsky segment clipping; None when fully outside."""
    t0, t1 = 0.0, 1.0
    dx, dy = b[0] - a[0], b[1] - a[1]
    for p, q in (
        (-dx, a[0] - env.min_x),
        (dx, env.max_x - a[0]),
        (-dy, a[1] - env.min_y),
        (dy, env.max_y - a[1]),
    ):
        if p == 0:
            if q < 0:
                return None
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    return (
        (a[0] + t0 * dx, a[1] + t0 * dy),
        (a[0] + t1 * dx, a[1] + t1 * dy),
    )


def _clip_linestring(line: LineString, env: Envelope) -> Geometry:
    runs: list[list[Coord]] = []
    current: list[Coord] = []
    for a, b in line.segments():
        clipped = _clip_segment(a, b, env)
        if clipped is None:
            if len(current) >= 2:
                runs.append(current)
            current = []
            continue
        start, end = clipped
        if current and algorithms.coincident(current[-1], start):
            current.append(end)
        else:
            if len(current) >= 2:
                runs.append(current)
            current = [start, end]
    if len(current) >= 2:
        runs.append(current)
    if not runs:
        return LineString()
    if len(runs) == 1:
        return LineString(runs[0])
    return MultiLineString([LineString(run) for run in runs])


def _ring_is_usable(coords: list[Coord]) -> bool:
    """True when the open coordinate list forms a ring with real area."""
    distinct = set(coords)
    if len(distinct) < 3:
        return False
    closed = coords + [coords[0]]
    return abs(algorithms.ring_signed_area(closed)) > algorithms._EPS


def _empty_like(geom: Geometry) -> Geometry:
    return type(geom)()  # every geometry type supports the empty constructor


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


def _douglas_peucker(coords: Sequence[Coord], tolerance: float) -> list[Coord]:
    if len(coords) <= 2:
        return list(coords)
    first, last = coords[0], coords[-1]
    worst_index, worst_distance = 0, -1.0
    for i in range(1, len(coords) - 1):
        d = algorithms.point_segment_distance(coords[i], first, last)
        if d > worst_distance:
            worst_index, worst_distance = i, d
    if worst_distance <= tolerance:
        return [first, last]
    left = _douglas_peucker(coords[: worst_index + 1], tolerance)
    right = _douglas_peucker(coords[worst_index:], tolerance)
    return left[:-1] + right


def simplify(geom: Geometry, tolerance: float) -> Geometry:
    """Douglas-Peucker simplification with the given distance tolerance.

    Rings keep at least 3 distinct vertices (a polygon never collapses
    below a triangle); points pass through unchanged.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if isinstance(geom, (Point, MultiPoint)) or geom.is_empty:
        return geom
    if isinstance(geom, Polygon):
        return Polygon(
            _simplify_ring(geom.shell.coords, tolerance),
            [
                simplified
                for hole in geom.holes
                if len(simplified := _simplify_ring(hole.coords, tolerance)) >= 3
            ],
        )
    if isinstance(geom, LineString):
        return LineString(_douglas_peucker(geom.coords, tolerance))
    if isinstance(geom, MultiLineString):
        return MultiLineString([simplify(ls, tolerance) for ls in geom.geoms])
    if isinstance(geom, MultiPolygon):
        return MultiPolygon([simplify(p, tolerance) for p in geom.geoms])
    if isinstance(geom, GeometryCollection):
        return GeometryCollection([simplify(g, tolerance) for g in geom.geoms])
    raise TypeError(f"cannot simplify {type(geom).__name__}")


def _simplify_ring(coords: Sequence[Coord], tolerance: float) -> list[Coord]:
    open_coords = list(coords[:-1])
    if len(open_coords) <= 3:
        return open_coords
    # Simplify as a closed chain: anchor at vertex 0, include the
    # closing point so the wrap-around edge participates.
    simplified = _douglas_peucker(open_coords + [open_coords[0]], tolerance)[:-1]
    if len(simplified) < 3:
        # Fall back to the three most mutually distant original
        # vertices: never collapse a polygon completely.
        return open_coords[:3]
    return simplified


# ---------------------------------------------------------------------------
# hull & transforms
# ---------------------------------------------------------------------------


def convex_hull_of(geom: Geometry) -> Geometry:
    """The convex hull: a polygon, a segment, or the point itself."""
    coords = geom.coordinates()
    if not coords:
        return _empty_like(geom)
    hull = algorithms.convex_hull(coords)
    if len(hull) >= 3:
        return Polygon(hull)
    if len(hull) == 2:
        return LineString(hull)
    return Point(*hull[0])


def transform(geom: Geometry, fn: Callable[[float, float], Coord]) -> Geometry:
    """Apply a coordinate mapping to every vertex."""
    if isinstance(geom, Point):
        return Point(*fn(geom.x, geom.y)) if not geom.is_empty else geom
    if isinstance(geom, LinearRing):
        return LinearRing([fn(x, y) for x, y in geom.coords])
    if isinstance(geom, LineString):
        return LineString([fn(x, y) for x, y in geom.coords])
    if isinstance(geom, Polygon):
        if geom.is_empty:
            return geom
        return Polygon(
            [fn(x, y) for x, y in geom.shell.coords],
            [[fn(x, y) for x, y in hole.coords] for hole in geom.holes],
        )
    if isinstance(geom, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)):
        return type(geom)([transform(g, fn) for g in geom.geoms])
    raise TypeError(f"cannot transform {type(geom).__name__}")


def translate(geom: Geometry, dx: float, dy: float) -> Geometry:
    """Shift by (dx, dy)."""
    return transform(geom, lambda x, y: (x + dx, y + dy))


def scale(
    geom: Geometry, factor_x: float, factor_y: float | None = None,
    origin: Coord = (0.0, 0.0),
) -> Geometry:
    """Scale about *origin* (uniform when factor_y is omitted)."""
    fy = factor_x if factor_y is None else factor_y
    ox, oy = origin
    return transform(
        geom, lambda x, y: (ox + (x - ox) * factor_x, oy + (y - oy) * fy)
    )


def rotate(geom: Geometry, radians: float, origin: Coord = (0.0, 0.0)) -> Geometry:
    """Rotate counter-clockwise about *origin*."""
    cos_a, sin_a = math.cos(radians), math.sin(radians)
    ox, oy = origin

    def fn(x: float, y: float) -> Coord:
        rx, ry = x - ox, y - oy
        return (ox + rx * cos_a - ry * sin_a, oy + rx * sin_a + ry * cos_a)

    return transform(geom, fn)

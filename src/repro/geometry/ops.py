"""Constructive geometry operations.

Beyond the predicates, STARK's JTS dependency provides constructive
operations its users reach for in pre-/post-processing.  This module
implements the ones a caller in this repository uses:

- :func:`simplify` -- Douglas-Peucker polyline/polygon simplification
  (the Piglet ``SIMPLIFY`` builtin),
- :func:`convex_hull_of` -- the convex hull of any geometry (the Piglet
  ``CONVEXHULL`` builtin),
- :func:`translate`, :func:`scale` -- affine transforms (the metamorphic
  predicate suite).

All functions return new geometries; inputs are never mutated.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.geometry import algorithms
from repro.geometry.base import Geometry
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


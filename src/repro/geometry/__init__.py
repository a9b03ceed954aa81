"""A from-scratch 2D computational geometry engine.

This package is the reproduction's substitute for the JTS library that
STARK uses on the JVM.  It provides:

- :class:`~repro.geometry.envelope.Envelope` -- axis-aligned bounding boxes,
- the geometry type hierarchy (:class:`Point`, :class:`LineString`,
  :class:`LinearRing`, :class:`Polygon`, :class:`MultiPoint`,
  :class:`MultiLineString`, :class:`MultiPolygon`,
  :class:`GeometryCollection`),
- exact binary predicates (``intersects``, ``contains``, ``within``,
  ``disjoint``, ``covers``) in :mod:`~repro.geometry.predicates`,
- distance computations and pluggable distance functions in
  :mod:`~repro.geometry.distance`,
- a WKT reader and writer in :mod:`~repro.geometry.wkt`.

All coordinates are 2D ``(x, y)`` floats.  Geometries are immutable value
objects: they hash, compare by value and can be pickled, which the engine
relies on when shuffling data between partitions.
"""

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
from repro.geometry.wkt import WKTParseError, parse_wkt, to_wkt

# Last: loading it binds the predicate methods of every Geometry.
from repro.geometry import predicates  # noqa: E402,F401  isort: skip

__all__ = [
    "Envelope",
    "Geometry",
    "GeometryCollection",
    "LineString",
    "LinearRing",
    "MultiLineString",
    "MultiPoint",
    "MultiPolygon",
    "Point",
    "Polygon",
    "WKTParseError",
    "parse_wkt",
    "to_wkt",
]

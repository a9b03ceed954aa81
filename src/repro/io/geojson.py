"""GeoJSON input (RFC 7946).

The paper's event data comes from text extraction; modern pipelines
exchange such data as GeoJSON.  This module decodes it into the
engine's geometries/STObjects -- what
:class:`~repro.streaming.sources.DirectorySource` reads with
``format="geojson"``:

- ``{"type": "Point", "coordinates": [...]}`` -> geometry for all seven
  OGC types plus GeometryCollection,
- a GeoJSON *Feature* -> ``(STObject, properties)``, the temporal
  component read from the reserved properties ``repro:time_start`` /
  ``repro:time_end`` (an instant has equal values or no end),
- a FeatureCollection file -> a list of such pairs.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.stobject import STObject
from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.multi import (
    GeometryCollection,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.temporal.instant import Instant
from repro.temporal.interval import Interval

TIME_START_KEY = "repro:time_start"
TIME_END_KEY = "repro:time_end"


class GeoJSONError(ValueError):
    """Raised for malformed GeoJSON input."""


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def geojson_to_geometry(obj: dict[str, Any]) -> Geometry:
    """Decode a GeoJSON geometry object."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise GeoJSONError(f"not a GeoJSON geometry: {obj!r}")
    kind = obj["type"]
    try:
        if kind == "GeometryCollection":
            return GeometryCollection(
                [geojson_to_geometry(g) for g in obj["geometries"]]
            )
        coords = obj["coordinates"]
        if kind == "Point":
            return Point(*coords[:2]) if coords else Point()
        if kind == "LineString":
            return LineString([tuple(c[:2]) for c in coords])
        if kind == "Polygon":
            return (
                Polygon(coords[0], coords[1:]) if coords else Polygon()
            )
        if kind == "MultiPoint":
            return MultiPoint([Point(*c[:2]) for c in coords])
        if kind == "MultiLineString":
            return MultiLineString(
                [LineString([tuple(p[:2]) for p in line]) for line in coords]
            )
        if kind == "MultiPolygon":
            return MultiPolygon(
                [Polygon(rings[0], rings[1:]) for rings in coords]
            )
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise GeoJSONError(f"malformed {kind} geometry: {error}") from error
    raise GeoJSONError(f"unknown GeoJSON geometry type {kind!r}")


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def feature_to(obj: dict[str, Any]) -> tuple[STObject, dict[str, Any]]:
    """Decode a GeoJSON Feature into (STObject, properties)."""
    kind = obj.get("type") if isinstance(obj, dict) else type(obj).__name__
    if kind != "Feature":
        raise GeoJSONError(f"not a GeoJSON Feature: {kind!r}")
    geom = geojson_to_geometry(obj.get("geometry") or {})
    try:
        props = dict(obj.get("properties") or {})
        start = props.pop(TIME_START_KEY, None)
        end = props.pop(TIME_END_KEY, None)
        if start is None:
            time = None
        elif end is None or end == start:
            time = Instant(start)
        else:
            time = Interval(start, end)
    except (TypeError, ValueError) as error:
        raise GeoJSONError(f"malformed Feature properties: {error}") from error
    return (STObject(geom, time), props)


def read_features(path: str) -> list:
    """A FeatureCollection file's features, undecoded; raises for any other file."""
    with open(path) as f:
        data = json.load(f)
    kind = data.get("type") if isinstance(data, dict) else type(data).__name__
    if kind != "FeatureCollection":
        raise GeoJSONError(f"expected a FeatureCollection, got {kind!r}")
    return data.get("features", [])


def read_geojson(path: str) -> list[tuple[STObject, dict[str, Any]]]:
    """Read a FeatureCollection file into ``(STObject, properties)`` pairs."""
    return [feature_to(feature) for feature in read_features(path)]

"""Well-Known Text reader and writer.

Supports the seven OGC geometry types plus ``GEOMETRYCOLLECTION`` and the
``EMPTY`` keyword, with arbitrary whitespace and scientific-notation
numbers.  Z/M ordinates are not supported (the engine is strictly 2D,
matching STARK's usage).
"""

from __future__ import annotations

import re

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


class WKTParseError(ValueError):
    """Raised for malformed WKT input, with position information."""

    def __init__(self, message: str, position: int, text: str) -> None:
        snippet = text[max(0, position - 20) : position + 20]
        super().__init__(f"{message} at position {position} (near {snippet!r})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<word>[A-Za-z]+)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


class _Tokens:
    """A tiny cursor over the WKT token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise WKTParseError("unexpected character", pos, text)
            kind = m.lastgroup or ""
            if kind != "ws":
                self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise WKTParseError("unexpected end of input", len(self.text), self.text)
        self.index += 1
        return tok

    def expect(self, kind: str) -> str:
        tok_kind, value, pos = self.next()
        if tok_kind != kind:
            raise WKTParseError(f"expected {kind}, got {value!r}", pos, self.text)
        return value

    def accept_word(self, word: str) -> bool:
        tok = self.peek()
        if tok is not None and tok[0] == "word" and tok[1].upper() == word:
            self.index += 1
            return True
        return False


def parse_wkt(text: str) -> Geometry:
    """Parse a WKT string into a geometry.

    Raises :class:`WKTParseError` on malformed input, including trailing
    garbage after a complete geometry.
    """
    tokens = _Tokens(text)
    geom = _parse_geometry(tokens)
    trailing = tokens.peek()
    if trailing is not None:
        raise WKTParseError("trailing input after geometry", trailing[2], text)
    return geom


def _parse_geometry(tokens: _Tokens) -> Geometry:
    kind, value, pos = tokens.next()
    if kind != "word":
        raise WKTParseError(f"expected geometry type, got {value!r}", pos, tokens.text)
    tag = value.upper()
    parser = _PARSERS.get(tag)
    if parser is None:
        raise WKTParseError(f"unknown geometry type {tag!r}", pos, tokens.text)
    return parser(tokens)


def _parse_coord(tokens: _Tokens) -> tuple[float, float]:
    x = float(tokens.expect("number"))
    y = float(tokens.expect("number"))
    # Reject Z/M ordinates explicitly rather than silently mis-parsing.
    tok = tokens.peek()
    if tok is not None and tok[0] == "number":
        raise WKTParseError("only 2D coordinates are supported", tok[2], tokens.text)
    return (x, y)


def _parse_coord_list(tokens: _Tokens) -> list[tuple[float, float]]:
    tokens.expect("lparen")
    coords = [_parse_coord(tokens)]
    while tokens.peek() is not None and tokens.peek()[0] == "comma":
        tokens.next()
        coords.append(_parse_coord(tokens))
    tokens.expect("rparen")
    return coords


def _parse_point(tokens: _Tokens) -> Point:
    if tokens.accept_word("EMPTY"):
        return Point()
    tokens.expect("lparen")
    x, y = _parse_coord(tokens)
    tokens.expect("rparen")
    return Point(x, y)


def _parse_linestring(tokens: _Tokens) -> LineString:
    if tokens.accept_word("EMPTY"):
        return LineString()
    return LineString(_parse_coord_list(tokens))


def _parse_polygon(tokens: _Tokens) -> Polygon:
    if tokens.accept_word("EMPTY"):
        return Polygon()
    tokens.expect("lparen")
    rings = [_parse_coord_list(tokens)]
    while tokens.peek() is not None and tokens.peek()[0] == "comma":
        tokens.next()
        rings.append(_parse_coord_list(tokens))
    tokens.expect("rparen")
    return Polygon(rings[0], rings[1:])


def _parse_multipoint(tokens: _Tokens) -> MultiPoint:
    if tokens.accept_word("EMPTY"):
        return MultiPoint()
    tokens.expect("lparen")
    points: list[Point] = []
    while True:
        # Both MULTIPOINT ((1 2), (3 4)) and MULTIPOINT (1 2, 3 4) occur
        # in the wild; accept either.
        tok = tokens.peek()
        if tok is not None and tok[0] == "lparen":
            tokens.next()
            points.append(Point(*_parse_coord(tokens)))
            tokens.expect("rparen")
        else:
            points.append(Point(*_parse_coord(tokens)))
        if tokens.peek() is not None and tokens.peek()[0] == "comma":
            tokens.next()
            continue
        break
    tokens.expect("rparen")
    return MultiPoint(points)


def _parse_multilinestring(tokens: _Tokens) -> MultiLineString:
    if tokens.accept_word("EMPTY"):
        return MultiLineString()
    tokens.expect("lparen")
    lines = [LineString(_parse_coord_list(tokens))]
    while tokens.peek() is not None and tokens.peek()[0] == "comma":
        tokens.next()
        lines.append(LineString(_parse_coord_list(tokens)))
    tokens.expect("rparen")
    return MultiLineString(lines)


def _parse_multipolygon(tokens: _Tokens) -> MultiPolygon:
    if tokens.accept_word("EMPTY"):
        return MultiPolygon()
    tokens.expect("lparen")
    polys = [_parse_polygon_body(tokens)]
    while tokens.peek() is not None and tokens.peek()[0] == "comma":
        tokens.next()
        polys.append(_parse_polygon_body(tokens))
    tokens.expect("rparen")
    return MultiPolygon(polys)


def _parse_polygon_body(tokens: _Tokens) -> Polygon:
    tokens.expect("lparen")
    rings = [_parse_coord_list(tokens)]
    while tokens.peek() is not None and tokens.peek()[0] == "comma":
        tokens.next()
        rings.append(_parse_coord_list(tokens))
    tokens.expect("rparen")
    return Polygon(rings[0], rings[1:])


def _parse_geometrycollection(tokens: _Tokens) -> GeometryCollection:
    if tokens.accept_word("EMPTY"):
        return GeometryCollection()
    tokens.expect("lparen")
    geoms = [_parse_geometry(tokens)]
    while tokens.peek() is not None and tokens.peek()[0] == "comma":
        tokens.next()
        geoms.append(_parse_geometry(tokens))
    tokens.expect("rparen")
    return GeometryCollection(geoms)


_PARSERS = {
    "POINT": _parse_point,
    "LINESTRING": _parse_linestring,
    "LINEARRING": _parse_linestring,
    "POLYGON": _parse_polygon,
    "MULTIPOINT": _parse_multipoint,
    "MULTILINESTRING": _parse_multilinestring,
    "MULTIPOLYGON": _parse_multipolygon,
    "GEOMETRYCOLLECTION": _parse_geometrycollection,
}


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Render a coordinate without a trailing ``.0`` for whole numbers."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _coords_body(coords) -> str:
    return ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords)


def to_wkt(geom: Geometry) -> str:
    """Serialize a geometry to WKT.  Round-trips with :func:`parse_wkt`."""
    if geom.is_empty:
        return f"{geom.geom_type} EMPTY"
    if isinstance(geom, Point):
        return f"POINT ({_fmt(geom.x)} {_fmt(geom.y)})"
    if isinstance(geom, Polygon):
        rings = ", ".join(f"({_coords_body(r.coords)})" for r in geom.rings())
        return f"POLYGON ({rings})"
    if isinstance(geom, LineString):  # includes LinearRing
        return f"LINESTRING ({_coords_body(geom.coords)})"
    if isinstance(geom, MultiPoint):
        body = ", ".join(f"({_fmt(p.x)} {_fmt(p.y)})" for p in geom.geoms)
        return f"MULTIPOINT ({body})"
    if isinstance(geom, MultiLineString):
        body = ", ".join(f"({_coords_body(ls.coords)})" for ls in geom.geoms)
        return f"MULTILINESTRING ({body})"
    if isinstance(geom, MultiPolygon):
        parts = []
        for poly in geom.geoms:
            rings = ", ".join(f"({_coords_body(r.coords)})" for r in poly.rings())
            parts.append(f"({rings})")
        return f"MULTIPOLYGON ({', '.join(parts)})"
    if isinstance(geom, GeometryCollection):
        body = ", ".join(to_wkt(g) for g in geom.geoms)
        return f"GEOMETRYCOLLECTION ({body})"
    raise TypeError(f"cannot serialize {type(geom).__name__} to WKT")

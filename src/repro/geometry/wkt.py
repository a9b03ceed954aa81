"""Well-Known Text reader and writer.

Supports the seven OGC geometry types plus ``GEOMETRYCOLLECTION`` and the
``EMPTY`` keyword, with arbitrary whitespace and scientific-notation
numbers.  Z/M ordinates are not supported (the engine is strictly 2D,
matching STARK's usage).

The reader is one recursive-descent parser over a list of token
strings, read by index.  The list comes from one regular-expression
scan (``findall``); a token's kind is never stored: the parser knows
what it expects at each index, and ``float`` decides whether a number
is one.  Token kinds and positions are computed only to report an
error.  Geometry collections nest at most :data:`MAX_COLLECTION_DEPTH`
deep.
"""

from __future__ import annotations

import re
from typing import Iterable

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

#: Deepest nesting of ``GEOMETRYCOLLECTION`` the reader accepts; deeper
#: input is a :class:`WKTParseError`, not a ``RecursionError``.
MAX_COLLECTION_DEPTH = 100


class WKTParseError(ValueError):
    """Raised for malformed WKT input, with position information."""

    def __init__(self, message: str, position: int, text: str) -> None:
        snippet = text[max(0, position - 20) : position + 20]
        super().__init__(f"{message} at position {position} (near {snippet!r})")
        self.position = position


#: The token grammar by kind: words, maximal-munch numbers, punctuation,
#: and any other single non-space character (which no production accepts).
_GRAMMAR = {
    "word": r"[A-Za-z]+",
    "number": r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?",
    "punct": r"[(),]",
    "stray": r"\S",
}
#: The tokenizer: ``findall`` returns the tokens and skips exactly the
#: whitespace between them.
_tokenize = re.compile("|".join(_GRAMMAR.values())).findall
#: The grammar with a named group per kind: a match's ``lastgroup`` is
#: its token's kind.
_KIND_RE = re.compile("|".join(f"(?P<{kind}>{p})" for kind, p in _GRAMMAR.items()))


def _kind(token: str) -> str | None:
    """A token's kind; ``None`` for the end-of-input sentinel."""
    match = _KIND_RE.fullmatch(token)
    return match.lastgroup if match else None


class _Stop(Exception):
    """The parse failed at token ``index`` while expecting ``expected``."""

    def __init__(self, index: int, expected: str) -> None:
        self.index = index
        self.expected = expected


def parse_wkt(text: str) -> Geometry:
    """Parse a WKT string into a geometry.

    Raises :class:`WKTParseError` on malformed input, including trailing
    garbage after a complete geometry.
    """
    tokens = _tokenize(text)
    tokens.append("")  # the end: equal to nothing a production accepts
    try:
        geom, i = _geometry(tokens, 0, 0)
        if tokens[i]:
            raise _Stop(i, "end")
        return geom
    except _Stop as stop:
        raise _error(text, stop) from None
    except ValueError:
        # A geometry refused its coordinates; a stray character fails
        # the read first, wherever it stands.
        stray = _first_stray(_KIND_RE.finditer(text))
        if stray is None:
            raise
        raise WKTParseError("unexpected character", stray.start(), text) from None


def _first_stray(matches: Iterable[re.Match]) -> re.Match | None:
    """The first token no production accepts, if any."""
    return next((m for m in matches if m.lastgroup == "stray"), None)


def _error(text: str, stop: _Stop) -> WKTParseError:
    """The error for a failed parse, positioned at the offending token."""
    matches = list(_KIND_RE.finditer(text))
    stray = _first_stray(matches)
    if stray is not None:
        return WKTParseError("unexpected character", stray.start(), text)
    index, expected = stop.index, stop.expected
    if index >= len(matches):
        return WKTParseError("unexpected end of input", len(text), text)
    match = matches[index]
    token, pos, kind = match.group(), match.start(), match.lastgroup
    if expected == "geometry type" and kind == "word":
        message = f"unknown geometry type {token.upper()!r}"
    elif expected == "coordinate end" and kind == "number":
        message = "only 2D coordinates are supported"
    elif expected == "coordinate end":
        message = f"expected rparen, got {token!r}"
    elif expected == "end":
        message = "trailing input after geometry"
    elif expected == "depth":
        message = f"geometry collections nest deeper than {MAX_COLLECTION_DEPTH}"
    else:
        message = f"expected {expected}, got {token!r}"
    return WKTParseError(message, pos, text)


def _geometry(tokens: list[str], i: int, depth: int) -> tuple[Geometry, int]:
    """The tagged geometry at ``tokens[i]`` and the index after it."""
    tag = tokens[i]
    entry = _TYPES.get(tag) or _TYPES.get(tag.upper())
    if entry is None:
        raise _Stop(i, "geometry type")
    empty, body = entry
    nxt = tokens[i + 1]
    if nxt != "(" and nxt.upper() == "EMPTY":
        return empty(), i + 2
    return body(tokens, i + 1, depth)


def _point_at(tokens: list[str], i: int) -> Point:
    """The point whose ``x y`` stand at ``tokens[i]`` and ``tokens[i + 1]``."""
    try:
        x = float(tokens[i])
        y = float(tokens[i + 1])
    except ValueError:
        _check_coords(tokens, i, single=True)
        raise
    if x - x or y - y:  # inf or nan: "1e999" spells one, but so do "inf", "nan"
        _check_coords(tokens, i, single=True)
    return Point(x, y)


def _check_coords(tokens: list[str], i: int, single: bool = False) -> None:
    """Raise where the ``x y, x y, ...`` run at ``tokens[i]`` breaks.

    The slow, token-by-token statement of the coordinate grammar: the
    fast paths call it only when their own checks fail, and it returns
    only for a valid run that spelled an infinite ordinate.
    """
    while True:
        for j in (i, i + 1):
            if _kind(tokens[j]) != "number":
                raise _Stop(j, "number")
        i += 2
        if single or tokens[i] != ",":
            break
        i += 1
    if not single and tokens[i] != ")":
        raise _Stop(i, "coordinate end")


def _coord_list(tokens: list[str], i: int, depth: int = 0) -> tuple[list, int]:
    """The ``(x y, x y, ...)`` at ``tokens[i]`` and the index after it.

    A valid list ends at the first ``)`` and has a number at every x and
    y index and a comma between coordinates, so the list is read with
    slices; any failed check hands over to :func:`_check_coords`.
    """
    if tokens[i] != "(":
        raise _Stop(i, "lparen")
    try:
        end = tokens.index(")", i)
        xs = [*map(float, tokens[i + 1 : end : 3])]
        ys = [*map(float, tokens[i + 2 : end : 3])]
    except ValueError:
        _check_coords(tokens, i + 1)
        raise
    separators = tokens[i + 3 : end : 3]
    total = sum(xs) + sum(ys)
    if (end - i) % 3 or separators.count(",") != len(separators) or not xs or total - total:
        _check_coords(tokens, i + 1)
    return [*zip(xs, ys)], end + 1


def _sequence(item, tokens: list[str], i: int, depth: int) -> tuple[list, int]:
    """``(item, item, ...)`` at ``tokens[i]``, each read by *item*."""
    if tokens[i] != "(":
        raise _Stop(i, "lparen")
    items = []
    while True:
        value, i = item(tokens, i + 1, depth)
        items.append(value)
        if tokens[i] != ",":
            break
    if tokens[i] != ")":
        raise _Stop(i, "rparen")
    return items, i + 1


def _point(tokens: list[str], i: int, depth: int) -> tuple[Point, int]:
    if tokens[i] != "(":
        raise _Stop(i, "lparen")
    point = _point_at(tokens, i + 1)
    if tokens[i + 3] != ")":
        raise _Stop(i + 3, "coordinate end")
    return point, i + 4


def _linestring(tokens: list[str], i: int, depth: int) -> tuple[LineString, int]:
    coords, i = _coord_list(tokens, i)
    return LineString(coords), i


def _polygon(tokens: list[str], i: int, depth: int) -> tuple[Polygon, int]:
    rings, i = _sequence(_coord_list, tokens, i, depth)
    return Polygon(rings[0], rings[1:]), i


def _multipoint(tokens: list[str], i: int, depth: int) -> tuple[MultiPoint, int]:
    # Both MULTIPOINT ((1 2), (3 4)) and MULTIPOINT (1 2, 3 4) occur in
    # the wild, mixed even; accept either per member.
    if tokens[i] != "(":
        raise _Stop(i, "lparen")
    points = []
    while True:
        if tokens[i + 1] == "(":
            points.append(_point_at(tokens, i + 2))
            if tokens[i + 4] != ")":
                raise _Stop(i + 4, "coordinate end")
            i, end = i + 5, "rparen"
        elif tokens[i + 1].upper() == "EMPTY":
            points.append(Point())
            i, end = i + 2, "rparen"
        else:
            points.append(_point_at(tokens, i + 1))
            i, end = i + 3, "coordinate end"
        if tokens[i] != ",":
            if tokens[i] != ")":
                raise _Stop(i, end)
            break
    return MultiPoint(points), i + 1


def _or_empty(item, empty):
    """A multi type's member reader: *item*, or ``EMPTY`` for ``empty()``."""
    return lambda tokens, i, depth: (
        (empty(), i + 1)
        if tokens[i] != "(" and tokens[i].upper() == "EMPTY"
        else item(tokens, i, depth)
    )


def _multilinestring(tokens: list[str], i: int, depth: int) -> tuple[MultiLineString, int]:
    lines, i = _sequence(_or_empty(_linestring, LineString), tokens, i, depth)
    return MultiLineString(lines), i


def _multipolygon(tokens: list[str], i: int, depth: int) -> tuple[MultiPolygon, int]:
    polygons, i = _sequence(_or_empty(_polygon, Polygon), tokens, i, depth)
    return MultiPolygon(polygons), i


def _collection(tokens: list[str], i: int, depth: int) -> tuple[GeometryCollection, int]:
    if depth == MAX_COLLECTION_DEPTH:
        raise _Stop(i - 1, "depth")
    geoms, i = _sequence(_geometry, tokens, i, depth + 1)
    return GeometryCollection(geoms), i


#: Tag -> (the empty geometry's constructor, the body parser).
_TYPES = {
    "POINT": (Point, _point),
    "LINESTRING": (LineString, _linestring),
    "LINEARRING": (LineString, _linestring),
    "POLYGON": (Polygon, _polygon),
    "MULTIPOINT": (MultiPoint, _multipoint),
    "MULTILINESTRING": (MultiLineString, _multilinestring),
    "MULTIPOLYGON": (MultiPolygon, _multipolygon),
    "GEOMETRYCOLLECTION": (GeometryCollection, _collection),
}


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Render a coordinate without a trailing ``.0`` for whole numbers.

    An infinite ordinate renders as ``1e999`` / ``-1e999``: a number the
    reader's grammar accepts and that overflows back to the same value.
    """
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    if value - value:  # only inf (NaN never reaches a geometry)
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def _coords_body(coords) -> str:
    return ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords)


def to_wkt(geom: Geometry) -> str:
    """Serialize a geometry to WKT.  Round-trips with :func:`parse_wkt`."""
    if geom.is_empty and not (geom.is_collection and geom.geoms):
        # A collection keeps its empty members, as the grammar allows:
        # ``MultiPoint([Point()])`` writes ``MULTIPOINT (EMPTY)``.
        return f"{geom.geom_type} EMPTY"
    if isinstance(geom, Point):
        return f"POINT ({_fmt(geom.x)} {_fmt(geom.y)})"
    if isinstance(geom, Polygon):
        rings = ", ".join(f"({_coords_body(r.coords)})" for r in geom.rings())
        return f"POLYGON ({rings})"
    if isinstance(geom, LineString):  # includes LinearRing
        return f"LINESTRING ({_coords_body(geom.coords)})"
    if isinstance(geom, GeometryCollection):
        body = ", ".join(to_wkt(g) for g in geom.geoms)
        return f"GEOMETRYCOLLECTION ({body})"
    if geom.is_collection:  # a multi type: its members' bodies, untagged
        body = ", ".join(
            "EMPTY" if g.is_empty else to_wkt(g).split(" ", 1)[1] for g in geom.geoms
        )
        return f"{geom.geom_type} ({body})"
    raise TypeError(f"cannot serialize {type(geom).__name__} to WKT")

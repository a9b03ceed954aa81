"""WKT reader/writer: all types, edge cases, error reporting."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    WKTParseError,
    parse_wkt,
    to_wkt,
)
from repro.geometry.wkt import MAX_COLLECTION_DEPTH


class TestParsing:
    def test_point(self):
        assert parse_wkt("POINT (1 2)") == Point(1, 2)

    def test_point_negative_and_scientific(self):
        p = parse_wkt("POINT (-1.5e2 .25)")
        assert p == Point(-150.0, 0.25)

    def test_case_insensitive_tag(self):
        assert parse_wkt("point (1 2)") == Point(1, 2)

    def test_whitespace_tolerance(self):
        assert parse_wkt("  POINT\n(\t1   2 )  ") == Point(1, 2)

    def test_linestring(self):
        assert parse_wkt("LINESTRING (0 0, 1 1, 2 0)") == LineString(
            [(0, 0), (1, 1), (2, 0)]
        )

    def test_polygon_with_hole(self):
        poly = parse_wkt(
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))"
        )
        assert isinstance(poly, Polygon)
        assert len(poly.holes) == 1
        assert poly.area == 96

    def test_multipoint_with_parens(self):
        mp = parse_wkt("MULTIPOINT ((1 2), (3 4))")
        assert mp == MultiPoint([Point(1, 2), Point(3, 4)])

    def test_multipoint_bare_style(self):
        mp = parse_wkt("MULTIPOINT (1 2, 3 4)")
        assert mp == MultiPoint([Point(1, 2), Point(3, 4)])

    def test_multilinestring(self):
        mls = parse_wkt("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))")
        assert isinstance(mls, MultiLineString)
        assert len(mls) == 2

    def test_multipolygon(self):
        mp = parse_wkt(
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))"
        )
        assert isinstance(mp, MultiPolygon)
        assert len(mp) == 2

    def test_geometrycollection(self):
        gc = parse_wkt("GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))")
        assert isinstance(gc, GeometryCollection)
        assert len(gc) == 2
        assert gc[0] == Point(1, 2)

    def test_nested_collection(self):
        gc = parse_wkt("GEOMETRYCOLLECTION (GEOMETRYCOLLECTION (POINT (0 0)))")
        assert isinstance(gc[0], GeometryCollection)

    @pytest.mark.parametrize(
        "text",
        [
            "POINT EMPTY",
            "LINESTRING EMPTY",
            "POLYGON EMPTY",
            "MULTIPOINT EMPTY",
            "MULTILINESTRING EMPTY",
            "MULTIPOLYGON EMPTY",
            "GEOMETRYCOLLECTION EMPTY",
        ],
    )
    def test_empty_forms(self, text):
        assert parse_wkt(text).is_empty


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "POINT",
            "POINT (1)",
            "POINT (1 2",
            "POINT 1 2)",
            "CIRCLE (0 0, 5)",
            "POINT (1 2) POINT (3 4)",
            "POINT (a b)",
            "LINESTRING ((0 0), (1 1))",
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(WKTParseError):
            parse_wkt(bad)

    def test_z_coordinate_rejected(self):
        with pytest.raises(WKTParseError, match="2D"):
            parse_wkt("POINT (1 2 3)")

    def test_error_carries_position(self):
        with pytest.raises(WKTParseError) as info:
            parse_wkt("POINT @")
        assert info.value.position == 6


class TestWriter:
    @pytest.mark.parametrize(
        "text",
        [
            "POINT (1 2)",
            "POINT (1.5 -2.25)",
            "POINT EMPTY",
            "LINESTRING (0 0, 1 1, 2 0)",
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))",
            "MULTIPOINT ((1 2), (3 4))",
            "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
            "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
            "GEOMETRYCOLLECTION EMPTY",
            "GEOMETRYCOLLECTION (POINT EMPTY)",
            "GEOMETRYCOLLECTION (POINT (0 0), GEOMETRYCOLLECTION (POINT EMPTY))",
            "MULTIPOINT (EMPTY)",
            "MULTIPOINT (EMPTY, (1 2))",
            "MULTILINESTRING (EMPTY, (0 0, 1 1))",
            "MULTIPOLYGON (EMPTY, ((0 0, 1 0, 1 1, 0 0)))",
        ],
    )
    def test_roundtrip_canonical(self, text):
        geom = parse_wkt(text)
        assert to_wkt(geom) == text
        assert parse_wkt(to_wkt(geom)) == geom

    def test_whole_floats_render_without_decimal(self):
        assert to_wkt(Point(3.0, -4.0)) == "POINT (3 -4)"

    def test_wkt_method_matches_function(self):
        p = Point(1, 2)
        assert p.wkt() == to_wkt(p)

    def test_repr_is_wkt(self):
        assert repr(Point(1, 2)) == "POINT (1 2)"

    def test_empty_members_of_multi_types_write_as_empty(self):
        assert repr(MultiPoint([Point(), Point(1, 2)])) == "MULTIPOINT (EMPTY, (1 2))"
        assert repr(MultiPoint([Point()])) == "MULTIPOINT (EMPTY)"
        lines = MultiLineString([LineString(), LineString([(0, 0), (1, 1)])])
        assert to_wkt(lines) == "MULTILINESTRING (EMPTY, (0 0, 1 1))"
        assert parse_wkt(to_wkt(lines)) == lines


def _nested(depth: int) -> str:
    return "GEOMETRYCOLLECTION (" * depth + "POINT (1 2)" + ")" * depth


class TestNesting:
    def test_deepest_allowed_collection_parses(self):
        gc = parse_wkt(_nested(MAX_COLLECTION_DEPTH))
        for _ in range(MAX_COLLECTION_DEPTH - 1):
            gc = gc[0]
        assert gc[0] == Point(1, 2)

    @pytest.mark.parametrize("depth", [MAX_COLLECTION_DEPTH + 1, 600])
    def test_deeper_nesting_is_a_parse_error(self, depth):
        with pytest.raises(WKTParseError, match="nest deeper") as info:
            parse_wkt(_nested(depth))
        assert info.value.position == len("GEOMETRYCOLLECTION (") * MAX_COLLECTION_DEPTH

    def test_unclosed_deep_nesting_is_a_parse_error(self):
        with pytest.raises(WKTParseError):
            parse_wkt("GEOMETRYCOLLECTION (" * 600)


class TestInfiniteOrdinates:
    """An overflowing literal reads as inf and is written back as one."""

    @pytest.mark.parametrize(
        "text, x, y",
        [
            ("POINT (1e999 2)", math.inf, 2.0),
            ("POINT (-1e999 2)", -math.inf, 2.0),
            ("POINT (3 1E+400)", 3.0, math.inf),
        ],
    )
    def test_overflow_reads_as_infinity(self, text, x, y):
        assert parse_wkt(text) == Point(x, y)

    @pytest.mark.parametrize(
        "geom",
        [
            Point(math.inf, 0),
            Point(-math.inf, math.inf),
            LineString([(0, 0), (math.inf, 1)]),
            MultiPoint([Point(1, -math.inf)]),
        ],
    )
    def test_repr_round_trips(self, geom):
        assert parse_wkt(repr(geom)) == geom
        assert parse_wkt(to_wkt(geom)) == geom

    def test_rendering(self):
        assert repr(Point(math.inf, 0)) == "POINT (1e999 0)"
        assert repr(parse_wkt("POINT (1e999 2)")) == "POINT (1e999 2)"
        assert to_wkt(Point(-math.inf, 0.5)) == "POINT (-1e999 0.5)"

    @pytest.mark.parametrize(
        "text",
        ["POINT (inf 1)", "POINT (1 INF)", "POINT (nan 1)", "POINT (Infinity 0)", "LINESTRING (0 0, NaN 1)"],
    )
    def test_words_are_not_numbers(self, text):
        with pytest.raises(WKTParseError, match="expected number"):
            parse_wkt(text)


class TestTokenBoundaries:
    """Numbers are read maximal-munch, whatever the blanks between them say."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("POINT (1-2)", Point(1, -2)),
            ("POINT(1.2.3)", Point(1.2, 0.3)),
            ("POINT (+1.-.5e1)", Point(1, -5)),
            ("LINESTRING (0 0,1-1)", LineString([(0, 0), (1, -1)])),
            ("MULTIPOINT((1 2),3 4)", MultiPoint([Point(1, 2), Point(3, 4)])),
            ("POINT (\u0661 \u0662)", Point(1, 2)),  # \d: any decimal digit
            ("\x1cPOINT\x1f(1\x1d2)\x1e", Point(1, 2)),  # \s: any blank
        ],
    )
    def test_reads_like_the_token_grammar(self, text, expected):
        assert parse_wkt(text) == expected

    @pytest.mark.parametrize(
        "text, position",
        [
            ("POINT (1_0 2)", 8),
            ("POINT (1 2)_", 11),
            ("PO\u0131NT (1 2)", 2),  # dotless i upper-cases to I
            ("POINT (1 2) @", 12),
            ("POINT (1 2 3) #", 14),
        ],
    )
    def test_stray_character_wins(self, text, position):
        with pytest.raises(WKTParseError, match="unexpected character") as info:
            parse_wkt(text)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "unexpected end of input", 0),
            ("POINT (1 2", "unexpected end of input", 10),
            ("POINT 1 2)", "expected lparen, got '1'", 6),
            ("POINT (1 2 3)", "only 2D", 11),
            ("POINT (1 2) POINT (3 4)", "trailing input", 12),
            ("CIRCLE (0 0, 5)", "unknown geometry type 'CIRCLE'", 0),
            ("(0 0)", "expected geometry type, got '('", 0),
            ("LINESTRING ((0 0), (1 1))", "expected number, got '('", 12),
            ("MULTIPOINT ((1 2) 3)", "expected rparen, got '3'", 18),
            ("POLYGON ((0 0, 1 0, 1 1, 0 0) 5)", "expected rparen, got '5'", 30),
            ("LINESTRING (1 2, 3)", "expected number, got ')'", 18),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(WKTParseError, match=re.escape(message)) as info:
            parse_wkt(text)
        assert info.value.position == position

    def test_member_error_comes_before_later_syntax_error(self):
        # A member is built as soon as it is read.
        with pytest.raises(ValueError, match="at least 2 points") as info:
            parse_wkt("MULTILINESTRING ((0 0), (1 1")
        assert type(info.value) is ValueError

    def test_stray_character_comes_before_member_error(self):
        with pytest.raises(WKTParseError, match="unexpected character") as info:
            parse_wkt("GEOMETRYCOLLECTION (LINESTRING (0 0), @")
        assert info.value.position == 38


# -- property tests ------------------------------------------------------

_BLANKS = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n "])
_GAPS = st.sampled_from([" ", "  ", "\t", "\n", " \r\n "])


@st.composite
def _number(draw):
    """A number's spelling and the value the reader must give it."""
    value = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, -3.0, 0.25, 12.5, 1e-7, 123456.789, 7e20]),
            st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
        )
    )
    style = draw(st.sampled_from(["repr", "e", "E", "plus", "dot", "int"]))
    text = repr(value)
    if style == "e":
        text = f"{value:.17e}"
    elif style == "E":
        text = f"{value:.6E}"
    elif style == "plus" and not text.startswith("-"):
        text = "+" + text
    elif style == "dot" and text.startswith("0."):
        text = text[1:]  # leading dot: .25
    elif style == "int" and value.is_integer() and abs(value) < 1e15:
        text = f"{int(value)}."  # trailing dot: 12.
    return text, float(text)


def _tag(draw, name):
    case = draw(st.sampled_from(["upper", "lower", "title", "mixed"]))
    if case == "mixed":
        flips = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
        return "".join(c.lower() if f else c for c, f in zip(name, flips))
    return getattr(name, case)()


@st.composite
def _coord(draw):
    (xs, x), (ys, y) = draw(_number()), draw(_number())
    text = f"{draw(_BLANKS)}{xs}{draw(_GAPS)}{ys}{draw(_BLANKS)}"
    return text, (x, y)


@st.composite
def _coord_list(draw, min_size):
    coords = draw(st.lists(_coord(), min_size=min_size, max_size=5))
    return "(" + ",".join(t for t, _ in coords) + ")", [c for _, c in coords]


@st.composite
def _ring(draw):
    (a, pa), (b, pb), (c, pc) = draw(_coord()), draw(_coord()), draw(_coord())
    return f"({a},{b},{c},{a})", [pa, pb, pc, pa]


@st.composite
def _polygon_body(draw):
    rings = draw(st.lists(_ring(), min_size=1, max_size=3))
    text = "(" + ",".join(t for t, _ in rings) + ")"
    return text, Polygon(rings[0][1], [r for _, r in rings[1:]])


@st.composite
def _wkt(draw, depth=0):
    """A WKT spelling and the geometry it must read as."""
    kinds = ["point", "line", "polygon", "multipoint", "multiline", "multipolygon", "empty"]
    kind = draw(st.sampled_from(kinds + (["collection"] if depth < 2 else [])))
    gap = draw(_BLANKS)
    if kind == "point":
        text, (x, y) = draw(_coord())
        return f"{_tag(draw, 'POINT')}{gap}({text})", Point(x, y)
    if kind == "line":
        text, coords = draw(_coord_list(2))
        return f"{_tag(draw, 'LINESTRING')}{gap}{text}", LineString(coords)
    if kind == "polygon":
        text, polygon = draw(_polygon_body())
        return f"{_tag(draw, 'POLYGON')}{gap}{text}", polygon
    # A multi type's member may be EMPTY (drawn as None), in any case.
    if kind == "multipoint":
        forms = st.sampled_from(["wrapped", "bare", "empty"])
        coords = draw(st.lists(st.tuples(_coord(), forms), min_size=1, max_size=4))
        body = ",".join(
            _tag(draw, "EMPTY") if form == "empty" else f"({t})" if form == "wrapped" else t
            for (t, _), form in coords
        )
        return f"{_tag(draw, 'MULTIPOINT')}{gap}({body})", MultiPoint(
            [Point() if form == "empty" else Point(*c) for (_, c), form in coords]
        )
    if kind == "multiline":
        lines = draw(st.lists(st.none() | _coord_list(2), min_size=1, max_size=3))
        body = ",".join(_tag(draw, "EMPTY") if line is None else line[0] for line in lines)
        return f"{_tag(draw, 'MULTILINESTRING')}{gap}({body})", MultiLineString(
            [LineString() if line is None else LineString(line[1]) for line in lines]
        )
    if kind == "multipolygon":
        polygons = draw(st.lists(st.none() | _polygon_body(), min_size=1, max_size=2))
        body = ",".join(_tag(draw, "EMPTY") if p is None else p[0] for p in polygons)
        return f"{_tag(draw, 'MULTIPOLYGON')}{gap}({body})", MultiPolygon(
            [Polygon() if p is None else p[1] for p in polygons]
        )
    if kind == "collection":
        members = draw(st.lists(_wkt(depth + 1), min_size=1, max_size=3))
        body = ",".join(f"{draw(_BLANKS)}{t}{draw(_BLANKS)}" for t, _ in members)
        return f"{_tag(draw, 'GEOMETRYCOLLECTION')}{gap}({body})", GeometryCollection(
            [g for _, g in members]
        )
    empty = draw(st.sampled_from([Point, LineString, Polygon, MultiPoint, MultiLineString, MultiPolygon, GeometryCollection]))
    return f"{_tag(draw, empty().geom_type)}{draw(_GAPS)}{_tag(draw, 'EMPTY')}", empty()


class TestReaderProperties:
    @settings(max_examples=300, deadline=None)
    @given(_wkt(), _BLANKS, _BLANKS)
    def test_generated_text_reads_as_its_geometry(self, drawn, before, after):
        text, geometry = drawn
        parsed = parse_wkt(before + text + after)
        assert type(parsed) is type(geometry)
        assert parsed == geometry
        assert parse_wkt(to_wkt(parsed)) == parsed

    @settings(max_examples=300, deadline=None)
    @given(
        _wkt(),
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(min_value=0),
        st.sampled_from(list("(),. -+eE019aPYZ@_;\t\u0661\u0131")),
    )
    def test_one_character_edit_reads_or_fails_typed(self, drawn, edit, at, char):
        text = drawn[0]
        at %= len(text) + 1
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + char + text[at + 1 :]
        try:
            parse_wkt(text)
        except ValueError:
            pass

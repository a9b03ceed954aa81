"""Constructive operations: simplification, hulls, transforms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    LineString,
    MultiPoint,
    Point,
    Polygon,
    parse_wkt,
)
from repro.geometry.envelope import Envelope
from repro.geometry.ops import (
    convex_hull_of,
    scale,
    simplify,
    translate,
)


class TestSimplify:
    def test_collinear_vertices_removed(self):
        ls = LineString([(0, 0), (1, 0), (2, 0), (3, 0), (10, 0)])
        assert simplify(ls, 0.01).coords == ((0, 0), (10, 0))

    def test_significant_vertices_kept(self):
        ls = LineString([(0, 0), (5, 5), (10, 0)])
        assert simplify(ls, 0.5).coords == ((0, 0), (5, 5), (10, 0))

    def test_tolerance_controls_detail(self):
        ls = LineString([(0, 0), (2, 0.4), (4, -0.4), (6, 0.4), (8, 0)])
        rough = simplify(ls, 1.0)
        fine = simplify(ls, 0.1)
        assert len(rough.coords) < len(fine.coords)

    def test_polygon_never_collapses(self):
        poly = Polygon([(0, 0), (10, 0.1), (20, 0), (10, 0.2)])
        simplified = simplify(poly, 5.0)
        assert not simplified.is_empty
        assert len(simplified.shell.coords) >= 4  # closed triangle at minimum

    def test_square_with_midpoints(self):
        poly = Polygon([(0, 0), (5, 0), (10, 0), (10, 10), (0, 10)])
        simplified = simplify(poly, 0.01)
        assert simplified.area == pytest.approx(100.0)
        assert len(simplified.shell.coords) == 5  # 4 distinct corners

    def test_point_passthrough(self):
        p = Point(1, 2)
        assert simplify(p, 10.0) is p

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            simplify(LineString([(0, 0), (1, 1)]), -1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=2,
            max_size=30,
        ),
        st.floats(min_value=0, max_value=20, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_simplified_within_tolerance(self, coords, tolerance):
        from repro.geometry import algorithms

        ls = LineString(coords)
        simplified = simplify(ls, tolerance)
        # every dropped vertex is within tolerance of the simplified chain
        for c in coords:
            d = min(
                algorithms.point_segment_distance(c, a, b)
                for a, b in simplified.segments()
            )
            assert d <= tolerance + 1e-9


class TestHull:
    def test_hull_of_points(self):
        mp = MultiPoint([Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4), Point(2, 2)])
        hull = convex_hull_of(mp)
        assert isinstance(hull, Polygon)
        assert hull.area == pytest.approx(16.0)

    def test_hull_of_linestring(self):
        hull = convex_hull_of(LineString([(0, 0), (2, 2), (4, 0)]))
        assert isinstance(hull, Polygon)

    def test_hull_collinear_is_segment(self):
        hull = convex_hull_of(MultiPoint([Point(0, 0), Point(1, 1), Point(2, 2)]))
        assert isinstance(hull, LineString)

    def test_hull_of_single_point(self):
        assert convex_hull_of(Point(3, 4)) == Point(3, 4)

    def test_hull_of_empty(self):
        assert convex_hull_of(MultiPoint()).is_empty


class TestTransforms:
    def test_translate_point(self):
        assert translate(Point(1, 2), 10, -5) == Point(11, -3)

    def test_translate_polygon_preserves_area(self):
        poly = parse_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
        moved = translate(poly, 100, 200)
        assert moved.area == pytest.approx(poly.area)
        assert moved.envelope == Envelope(100, 200, 104, 204)

    def test_translate_keeps_holes(self):
        poly = parse_wkt(
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))"
        )
        moved = translate(poly, 1, 1)
        assert len(moved.holes) == 1
        assert moved.area == pytest.approx(96.0)

    def test_scale_uniform(self):
        poly = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        scaled = scale(poly, 3)
        assert scaled.area == pytest.approx(4 * 9)

    def test_scale_about_origin(self):
        p = scale(Point(2, 2), 2, origin=(1, 1))
        assert p == Point(3, 3)

    def test_scale_anisotropic(self):
        poly = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        scaled = scale(poly, 4, 2)
        assert scaled.envelope == Envelope(0, 0, 4, 2)

    def test_transform_multigeometry(self):
        mp = MultiPoint([Point(0, 0), Point(1, 1)])
        assert translate(mp, 5, 5) == MultiPoint([Point(5, 5), Point(6, 6)])


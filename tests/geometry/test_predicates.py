"""Exact binary predicates across all geometry type pairs."""

import pytest

from repro.core.predicates import within_distance_predicate
from repro.core.stobject import STObject
from repro.geometry import parse_wkt
from repro.geometry import predicates as pred
from repro.geometry.point import Point


def g(text):
    return parse_wkt(text)


SQUARE = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
DONUT = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))")


class TestIntersectsPointPairs:
    def test_point_point_equal(self):
        assert pred.intersects(g("POINT (1 1)"), g("POINT (1 1)"))

    def test_point_point_different(self):
        assert not pred.intersects(g("POINT (1 1)"), g("POINT (1 2)"))

    def test_point_on_line(self):
        assert pred.intersects(g("POINT (1 1)"), g("LINESTRING (0 0, 2 2)"))

    def test_point_off_line(self):
        assert not pred.intersects(g("POINT (1 0)"), g("LINESTRING (0 0, 2 2)"))

    def test_point_in_polygon(self):
        assert pred.intersects(g("POINT (5 5)"), SQUARE)

    def test_point_on_polygon_boundary(self):
        assert pred.intersects(g("POINT (0 5)"), SQUARE)

    def test_point_in_hole_does_not_intersect(self):
        assert not pred.intersects(g("POINT (5 5)"), DONUT)

    def test_point_on_hole_boundary_intersects(self):
        assert pred.intersects(g("POINT (4 5)"), DONUT)


class TestIntersectsLinePairs:
    def test_crossing_lines(self):
        assert pred.intersects(g("LINESTRING (0 0, 2 2)"), g("LINESTRING (0 2, 2 0)"))

    def test_touching_endpoints(self):
        assert pred.intersects(g("LINESTRING (0 0, 1 1)"), g("LINESTRING (1 1, 2 0)"))

    def test_parallel_lines(self):
        assert not pred.intersects(g("LINESTRING (0 0, 2 0)"), g("LINESTRING (0 1, 2 1)"))

    def test_line_through_polygon(self):
        assert pred.intersects(g("LINESTRING (-1 5, 11 5)"), SQUARE)

    def test_line_inside_polygon(self):
        assert pred.intersects(g("LINESTRING (1 1, 2 2)"), SQUARE)

    def test_line_entirely_in_hole(self):
        assert not pred.intersects(g("LINESTRING (4.5 4.5, 5.5 5.5)"), DONUT)

    def test_line_outside_polygon(self):
        assert not pred.intersects(g("LINESTRING (20 20, 30 30)"), SQUARE)


class TestIntersectsPolygonPairs:
    def test_overlapping(self):
        assert pred.intersects(SQUARE, g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"))

    def test_touching_edges(self):
        assert pred.intersects(SQUARE, g("POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))"))

    def test_one_inside_other(self):
        inner = g("POLYGON ((2 2, 3 2, 3 3, 2 3, 2 2))")
        assert pred.intersects(SQUARE, inner)
        assert pred.intersects(inner, SQUARE)

    def test_polygon_inside_hole_disjoint(self):
        in_hole = g("POLYGON ((4.5 4.5, 5.5 4.5, 5.5 5.5, 4.5 5.5, 4.5 4.5))")
        assert not pred.intersects(DONUT, in_hole)
        assert not pred.intersects(in_hole, DONUT)

    def test_disjoint(self):
        assert not pred.intersects(SQUARE, g("POLYGON ((20 20, 30 20, 30 30, 20 20))"))

    def test_symmetric(self):
        other = g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))")
        assert pred.intersects(SQUARE, other) == pred.intersects(other, SQUARE)


class TestIntersectsCollections:
    def test_multipoint_hits_polygon(self):
        assert pred.intersects(g("MULTIPOINT ((50 50), (5 5))"), SQUARE)

    def test_multipoint_misses_polygon(self):
        assert not pred.intersects(g("MULTIPOINT ((50 50), (60 60))"), SQUARE)

    def test_collection_vs_collection(self):
        a = g("GEOMETRYCOLLECTION (POINT (0 0), POINT (100 100))")
        b = g("GEOMETRYCOLLECTION (POINT (100 100))")
        assert pred.intersects(a, b)

    def test_empty_never_intersects(self):
        assert not pred.intersects(g("POINT EMPTY"), SQUARE)
        assert not pred.intersects(SQUARE, g("MULTIPOINT EMPTY"))


class TestContains:
    def test_polygon_contains_interior_point(self):
        assert pred.contains(SQUARE, g("POINT (5 5)"))

    def test_polygon_does_not_contain_boundary_point(self):
        # JTS semantics: boundary-only contact is not containment.
        assert not pred.contains(SQUARE, g("POINT (0 5)"))

    def test_covers_accepts_boundary_point(self):
        assert pred.covers(SQUARE, g("POINT (0 5)"))

    def test_polygon_contains_line(self):
        assert pred.contains(SQUARE, g("LINESTRING (1 1, 9 9)"))

    def test_polygon_contains_line_touching_boundary_from_inside(self):
        assert pred.contains(SQUARE, g("LINESTRING (0 0, 5 5)"))

    def test_polygon_not_contains_crossing_line(self):
        assert not pred.contains(SQUARE, g("LINESTRING (5 5, 15 5)"))

    def test_polygon_contains_polygon(self):
        assert pred.contains(SQUARE, g("POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))"))

    def test_polygon_not_contains_overlapping_polygon(self):
        assert not pred.contains(SQUARE, g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"))

    def test_donut_does_not_contain_polygon_over_hole(self):
        over_hole = g("POLYGON ((3 3, 7 3, 7 7, 3 7, 3 3))")
        assert not pred.contains(DONUT, over_hole)

    def test_donut_contains_polygon_beside_hole(self):
        beside = g("POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))")
        assert pred.contains(DONUT, beside)

    def test_line_contains_point(self):
        assert pred.contains(g("LINESTRING (0 0, 2 2)"), g("POINT (1 1)"))

    def test_line_contains_subline(self):
        assert pred.contains(g("LINESTRING (0 0, 4 4)"), g("LINESTRING (1 1, 2 2)"))

    def test_line_not_contains_divergent_line(self):
        assert not pred.contains(g("LINESTRING (0 0, 4 4)"), g("LINESTRING (1 1, 2 0)"))

    def test_point_contains_equal_point(self):
        assert pred.contains(g("POINT (1 1)"), g("POINT (1 1)"))

    def test_point_not_contains_line(self):
        assert not pred.contains(g("POINT (1 1)"), g("LINESTRING (0 0, 2 2)"))

    def test_contains_multipoint_requires_all(self):
        assert pred.contains(SQUARE, g("MULTIPOINT ((2 2), (3 3))"))
        assert not pred.contains(SQUARE, g("MULTIPOINT ((2 2), (30 3))"))

    def test_envelope_prefilter_rejects_fast(self):
        assert not pred.contains(SQUARE, g("POINT (100 100)"))

    def test_empty_geometry_never_contains(self):
        assert not pred.contains(g("POINT EMPTY"), g("POINT EMPTY"))


class TestWithinViaMethod:
    def test_within_is_reverse_contains(self):
        inner = g("POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))")
        assert inner.within(SQUARE)
        assert not SQUARE.within(inner)

    def test_disjoint_method(self):
        assert g("POINT (50 50)").disjoint(SQUARE)
        assert not g("POINT (5 5)").disjoint(SQUARE)


class TestDistance:
    def test_point_point(self):
        assert pred.distance(g("POINT (0 0)"), g("POINT (3 4)")) == 5.0

    def test_point_line(self):
        assert pred.distance(g("POINT (1 1)"), g("LINESTRING (0 0, 2 0)")) == 1.0

    def test_point_inside_polygon_is_zero(self):
        assert pred.distance(g("POINT (5 5)"), SQUARE) == 0.0

    def test_point_in_hole_positive(self):
        assert pred.distance(g("POINT (5 5)"), DONUT) == 1.0

    def test_point_outside_polygon(self):
        assert pred.distance(g("POINT (13 14)"), SQUARE) == 5.0

    def test_line_line(self):
        assert pred.distance(g("LINESTRING (0 0, 1 0)"), g("LINESTRING (0 3, 1 3)")) == 3.0

    def test_intersecting_lines_zero(self):
        assert pred.distance(g("LINESTRING (0 0, 2 2)"), g("LINESTRING (0 2, 2 0)")) == 0.0

    def test_polygon_polygon(self):
        far = g("POLYGON ((13 0, 20 0, 20 10, 13 10, 13 0))")
        assert pred.distance(SQUARE, far) == 3.0

    def test_collection_distance_is_min(self):
        mp = g("MULTIPOINT ((100 100), (13 14))")
        assert pred.distance(mp, SQUARE) == 5.0

    def test_symmetric(self):
        a, b = g("POINT (0 0)"), g("LINESTRING (3 4, 10 10)")
        assert pred.distance(a, b) == pred.distance(b, a)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pred.distance(g("POINT EMPTY"), SQUARE)

    def test_method_matches_function(self):
        assert Point(0, 0).distance(Point(3, 4)) == 5.0


class TestRefinementWithinEnvelope:
    """A point two ulps right of a polygon's envelope is outside it.

    It is collinear with the right edge within the tolerance, but beyond
    the edge's box: were the box widened by the tolerance, the point would
    sit on the edge at distance 0, and ``withinDistance(0)`` would accept
    a pair that envelope pruning drops.
    """

    POLY = g(
        "POLYGON ((0 0, 15.333333333333332 0, 15.333333333333332 0.3333333333333333,"
        " 0 0.3333333333333333, 0 0))"
    )
    OUTSIDE = g("POINT (15.333333333333334 0)")

    def test_distance_is_positive(self):
        assert pred.distance(self.POLY, self.OUTSIDE) > 0

    def test_within_distance_zero_rejects(self):
        predicate = within_distance_predicate(0.0)
        assert not predicate.evaluate(STObject(self.POLY), STObject(self.OUTSIDE))

    def test_distance_agrees_with_envelope_distance(self):
        assert pred.distance(self.POLY, self.OUTSIDE) == self.POLY.envelope.distance(
            self.OUTSIDE.envelope
        )


class TestCrossingFromNearEdge:
    """A line or triangle whose first vertex lies 1e-13 outside a
    rectangle's edge -- collinear with it within the tolerance, beyond its
    zero-height box -- while another vertex lies strictly inside.

    The crossing is decided on the raw signs, so the pair intersects; the
    tolerance must not turn a proper crossing into a miss.
    """

    RECT = g("POLYGON ((0 -1, 1 -1, 1 0, 0 0, 0 -1))")

    @pytest.mark.parametrize(
        "probe",
        [
            "LINESTRING (0.5 1e-13, 0.5 -0.5)",
            "POLYGON ((0.5 1e-13, 0.8 -0.5, 0.2 -0.5, 0.5 1e-13))",
        ],
    )
    def test_intersects_at_distance_zero(self, probe):
        probe = g(probe)
        assert pred.intersects(self.RECT, probe)
        assert pred.intersects(probe, self.RECT)
        assert pred.distance(self.RECT, probe) == 0.0

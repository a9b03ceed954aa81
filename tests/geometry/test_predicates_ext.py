"""The DE-9IM-derived predicates: touches, overlaps, crosses."""

import pytest

from repro.geometry import parse_wkt
from repro.geometry.predicates import crosses, overlaps, touches
from tests.geometry.test_metamorphic import check_exclusive, check_symmetric


def g(text):
    return parse_wkt(text)


SQUARE = g("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")


class TestTouches:
    def test_edge_adjacent_polygons(self):
        neighbour = g("POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))")
        assert touches(SQUARE, neighbour)
        assert touches(neighbour, SQUARE)

    def test_corner_adjacent_polygons(self):
        corner = g("POLYGON ((10 10, 20 10, 20 20, 10 20, 10 10))")
        assert touches(SQUARE, corner)

    def test_overlapping_polygons_do_not_touch(self):
        overlapping = g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))")
        assert not touches(SQUARE, overlapping)

    def test_disjoint_polygons_do_not_touch(self):
        far = g("POLYGON ((50 50, 60 50, 60 60, 50 60, 50 50))")
        assert not touches(SQUARE, far)

    def test_point_on_boundary_touches_polygon(self):
        assert touches(g("POINT (0 5)"), SQUARE)
        assert touches(SQUARE, g("POINT (0 5)"))

    def test_point_inside_does_not_touch(self):
        assert not touches(g("POINT (5 5)"), SQUARE)

    def test_point_at_line_endpoint_touches(self):
        assert touches(g("POINT (0 0)"), g("LINESTRING (0 0, 5 5)"))

    def test_point_on_line_interior_does_not_touch(self):
        assert not touches(g("POINT (2 2)"), g("LINESTRING (0 0, 5 5)"))

    def test_equal_points_do_not_touch(self):
        assert not touches(g("POINT (1 1)"), g("POINT (1 1)"))

    def test_lines_sharing_endpoint(self):
        assert touches(g("LINESTRING (0 0, 5 5)"), g("LINESTRING (5 5, 10 0)"))

    def test_t_junction_at_endpoint_touches(self):
        # endpoint of one line on the interior of the other
        assert touches(g("LINESTRING (5 0, 5 5)"), g("LINESTRING (0 5, 10 5)"))

    def test_crossing_lines_do_not_touch(self):
        assert not touches(g("LINESTRING (0 0, 10 10)"), g("LINESTRING (0 10, 10 0)"))

    def test_line_along_polygon_edge_touches(self):
        assert touches(g("LINESTRING (2 0, 8 0)"), SQUARE)

    def test_line_entering_polygon_does_not_touch(self):
        assert not touches(g("LINESTRING (5 -5, 5 5)"), SQUARE)

    def test_empty_never_touches(self):
        assert not touches(g("POINT EMPTY"), SQUARE)


class TestOverlaps:
    def test_partially_overlapping_polygons(self):
        other = g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))")
        assert overlaps(SQUARE, other)
        assert overlaps(other, SQUARE)

    def test_contained_polygon_does_not_overlap(self):
        inner = g("POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))")
        assert not overlaps(SQUARE, inner)
        assert not overlaps(inner, SQUARE)

    def test_equal_polygons_do_not_overlap(self):
        assert not overlaps(SQUARE, g(SQUARE.wkt()))

    def test_touching_polygons_do_not_overlap(self):
        neighbour = g("POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))")
        assert not overlaps(SQUARE, neighbour)

    def test_different_dimensions_never_overlap(self):
        assert not overlaps(SQUARE, g("LINESTRING (0 0, 20 20)"))
        assert not overlaps(g("POINT (5 5)"), SQUARE)

    def test_collinear_partially_overlapping_lines(self):
        assert overlaps(g("LINESTRING (0 0, 6 0)"), g("LINESTRING (4 0, 10 0)"))

    def test_crossing_lines_do_not_overlap(self):
        assert not overlaps(g("LINESTRING (0 0, 10 10)"), g("LINESTRING (0 10, 10 0)"))

    def test_contained_line_does_not_overlap(self):
        assert not overlaps(g("LINESTRING (0 0, 10 0)"), g("LINESTRING (2 0, 5 0)"))

    def test_multipoints_sharing_some(self):
        a = g("MULTIPOINT ((0 0), (1 1))")
        b = g("MULTIPOINT ((1 1), (2 2))")
        assert overlaps(a, b)

    def test_multipoints_subset_do_not_overlap(self):
        a = g("MULTIPOINT ((0 0), (1 1))")
        b = g("MULTIPOINT ((1 1))")
        assert not overlaps(a, b)


class TestCrosses:
    def test_line_crosses_line(self):
        assert crosses(g("LINESTRING (0 0, 10 10)"), g("LINESTRING (0 10, 10 0)"))

    def test_touching_lines_do_not_cross(self):
        assert not crosses(g("LINESTRING (0 0, 5 5)"), g("LINESTRING (5 5, 10 0)"))

    def test_collinear_lines_do_not_cross(self):
        assert not crosses(g("LINESTRING (0 0, 6 0)"), g("LINESTRING (4 0, 10 0)"))

    def test_line_crosses_polygon(self):
        assert crosses(g("LINESTRING (-5 5, 15 5)"), SQUARE)
        assert crosses(SQUARE, g("LINESTRING (-5 5, 15 5)"))  # symmetric

    def test_line_inside_polygon_does_not_cross(self):
        assert not crosses(g("LINESTRING (2 2, 8 8)"), SQUARE)

    def test_line_outside_polygon_does_not_cross(self):
        assert not crosses(g("LINESTRING (20 20, 30 30)"), SQUARE)

    def test_line_touching_boundary_does_not_cross(self):
        assert not crosses(g("LINESTRING (0 -5, 0 15)"), SQUARE)

    @pytest.mark.parametrize(
        "line, polygon",
        [
            # out through the notch (1 < x < 1.2) and back in
            (
                "LINESTRING (0.5 2, 2.5 2)",
                "POLYGON ((0 0, 3 0, 3 3, 1.2 3, 1.2 1, 1 1, 1 3, 0 3, 0 0))",
            ),
            # through the hole between y = 2.5 and y = 2
            (
                "LINESTRING (2 3, 1.5 2, 2.5 1.5)",
                "POLYGON ((0.5 1.5, 3.5 1.5, 3.5 3, 0.5 3, 0.5 1.5), (1 2, 3 2, 3 2.5, 1 2.5, 1 2))",
            ),
        ],
    )
    def test_line_leaving_between_sample_points_crosses(self, line, polygon):
        # Every vertex and midpoint of the line is inside or on the
        # boundary, yet part of the line lies outside.
        assert crosses(g(line), g(polygon))
        assert crosses(g(polygon), g(line))

    def test_multipoint_crosses_polygon(self):
        mp = g("MULTIPOINT ((5 5), (50 50))")
        assert crosses(mp, SQUARE)

    def test_multipoint_all_inside_does_not_cross(self):
        mp = g("MULTIPOINT ((5 5), (2 2))")
        assert not crosses(mp, SQUARE)

    def test_polygons_never_cross(self):
        other = g("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))")
        assert not crosses(SQUARE, other)


class TestMutualExclusion:
    """Hand-picked pairs for the drawn exclusivity and symmetry properties
    of ``test_metamorphic.py``, checked by the same functions."""

    CASES = [
        ("POLYGON ((10 0, 20 0, 20 10, 10 10, 10 0))", SQUARE.wkt()),
        ("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))", SQUARE.wkt()),
        ("LINESTRING (-5 5, 15 5)", SQUARE.wkt()),
        ("LINESTRING (0 0, 10 10)", "LINESTRING (0 10, 10 0)"),
        ("LINESTRING (0 0, 6 0)", "LINESTRING (4 0, 10 0)"),
        ("POINT (0 5)", SQUARE.wkt()),
    ]

    @pytest.mark.parametrize("wkt_a, wkt_b", CASES)
    def test_at_most_one_relation_holds(self, wkt_a, wkt_b):
        check_exclusive(g(wkt_a), g(wkt_b))

    @pytest.mark.parametrize("wkt_a, wkt_b", CASES)
    def test_symmetry(self, wkt_a, wkt_b):
        check_symmetric(g(wkt_a), g(wkt_b))

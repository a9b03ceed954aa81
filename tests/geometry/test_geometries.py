"""The geometry type hierarchy: construction, value semantics, metrics."""

import math
import pickle

import pytest

from repro.geometry import (
    GeometryCollection,
    LinearRing,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry.envelope import Envelope
from repro.geometry.predicates import covers


class TestPoint:
    def test_coordinates(self):
        p = Point(1.5, -2.5)
        assert p.x == 1.5
        assert p.y == -2.5
        assert p.coord == (1.5, -2.5)

    def test_envelope_is_degenerate(self):
        assert Point(1, 2).envelope == Envelope(1, 2, 1, 2)

    def test_empty_point(self):
        p = Point()
        assert p.is_empty
        assert p.envelope.is_empty
        with pytest.raises(ValueError):
            _ = p.x

    def test_half_given_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Point(1.0, None)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0)

    def test_centroid_is_self(self):
        p = Point(3, 4)
        assert p.centroid() is p

    def test_equality_and_hash(self):
        assert Point(1, 2) == Point(1.0, 2.0)
        assert Point(1, 2) != Point(2, 1)
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert Point() == Point()

    def test_pickle_roundtrip(self):
        p = Point(1, 2)
        clone = pickle.loads(pickle.dumps(p))
        assert clone == p
        assert clone.envelope == p.envelope


class TestLineString:
    def test_basic(self):
        ls = LineString([(0, 0), (3, 4), (3, 10)])
        assert ls.length == 11.0
        assert ls.envelope == Envelope(0, 0, 3, 10)
        assert not ls.is_empty

    def test_empty(self):
        assert LineString().is_empty
        assert LineString().envelope.is_empty

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            LineString([(0, 0)])

    def test_segments(self):
        ls = LineString([(0, 0), (1, 0), (1, 1)])
        assert list(ls.segments()) == [((0, 0), (1, 0)), ((1, 0), (1, 1))]

    def test_centroid_on_line(self):
        assert LineString([(0, 0), (10, 0)]).centroid() == Point(5, 0)

    def test_equality(self):
        assert LineString([(0, 0), (1, 1)]) == LineString([(0, 0), (1, 1)])
        assert LineString([(0, 0), (1, 1)]) != LineString([(1, 1), (0, 0)])

    def test_pickle_roundtrip(self):
        ls = LineString([(0, 0), (2, 3)])
        assert pickle.loads(pickle.dumps(ls)) == ls


class TestLinearRing:
    def test_auto_close(self):
        ring = LinearRing([(0, 0), (1, 0), (1, 1)])
        assert ring.coords[0] == ring.coords[-1]
        assert len(ring.coords) == 4

    def test_already_closed_unchanged(self):
        ring = LinearRing([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert len(ring.coords) == 4

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            LinearRing([(0, 0), (1, 1)])

    def test_signed_area_orientation(self):
        ccw = LinearRing([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert ccw.signed_area == 16
        assert ccw.is_ccw
        cw = LinearRing([(0, 0), (0, 4), (4, 4), (4, 0)])
        assert cw.signed_area == -16


class TestPolygon:
    def test_simple(self):
        poly = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert poly.area == 16
        assert poly.envelope == Envelope(0, 0, 4, 4)

    def test_with_hole(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert poly.area == 96
        assert covers(poly, Point(1, 1))
        assert not covers(poly, Point(5, 5))  # inside the hole
        assert covers(poly, Point(4, 5))  # on hole boundary

    def test_locate_classification(self):
        from repro.geometry import algorithms as alg

        poly = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert poly.locate(2, 2) == alg.INTERIOR
        assert poly.locate(0, 2) == alg.BOUNDARY
        assert poly.locate(9, 9) == alg.EXTERIOR

    def test_empty(self):
        assert Polygon().is_empty
        assert Polygon().area == 0

    def test_empty_with_holes_rejected(self):
        with pytest.raises(ValueError):
            Polygon((), holes=[[(0, 0), (1, 0), (1, 1)]])

    def test_centroid_square(self):
        assert Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]).centroid() == Point(2, 2)

    def test_centroid_accounts_for_hole(self):
        # Hole on the right pushes the centroid left.
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(6, 4), (9, 4), (9, 6), (6, 6)]],
        )
        assert poly.centroid().x < 5

    def test_from_envelope(self):
        poly = Polygon.from_envelope(Envelope(1, 2, 3, 4))
        assert poly.area == 4
        assert poly.envelope == Envelope(1, 2, 3, 4)

    def test_pickle_roundtrip(self):
        poly = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert pickle.loads(pickle.dumps(poly)) == poly


class TestMultiGeometries:
    def test_multipoint(self):
        mp = MultiPoint([Point(0, 0), Point(2, 2)])
        assert len(mp) == 2
        assert mp.envelope == Envelope(0, 0, 2, 2)
        assert mp.centroid() == Point(1, 1)

    def test_multipoint_type_check(self):
        with pytest.raises(TypeError):
            MultiPoint([LineString([(0, 0), (1, 1)])])

    def test_multilinestring(self):
        mls = MultiLineString([
            LineString([(0, 0), (1, 0)]),
            LineString([(5, 5), (6, 5)]),
        ])
        assert mls.envelope == Envelope(0, 0, 6, 5)

    def test_multipolygon_area(self):
        mp = MultiPolygon([
            Polygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
            Polygon([(10, 10), (12, 10), (12, 12), (10, 12)]),
        ])
        assert mp.area == 8

    def test_collection_heterogeneous(self):
        gc = GeometryCollection([Point(1, 1), LineString([(0, 0), (2, 2)])])
        assert len(gc) == 2
        assert gc.envelope == Envelope(0, 0, 2, 2)

    def test_empty_collection(self):
        assert MultiPoint().is_empty
        assert GeometryCollection().is_empty
        assert GeometryCollection([Point()]).is_empty

    def test_indexing_and_iteration(self):
        mp = MultiPoint([Point(0, 0), Point(1, 1)])
        assert mp[1] == Point(1, 1)
        assert [p.x for p in mp] == [0, 1]

    def test_equality_respects_type(self):
        points = [Point(0, 0)]
        assert MultiPoint(points) != GeometryCollection(points)

    def test_pickle_roundtrip(self):
        mp = MultiPoint([Point(0, 0), Point(1, 1)])
        clone = pickle.loads(pickle.dumps(mp))
        assert clone == mp
        assert clone.envelope == mp.envelope

"""The rectangle flag and the point-in-rectangle shortcut.

A hole-free, axis-aligned rectangle answers point ``intersects`` and
``covers`` from its closed envelope.  The oracle for every answer here
is ``Polygon.locate`` on the same shape, and the same rectangle with an
extra collinear vertex, which is not flagged and so takes the general
crossing-count path.
"""

import math
import pickle

import pytest

from repro.core.spatial_rdd import IndexedSpatialRDD, spatial
from repro.core.stobject import STObject
from repro.geometry import predicates as pred
from repro.geometry.algorithms import EXTERIOR, INTERIOR
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

CORNERS = [(1.0, 2.0), (4.0, 2.0), (4.0, 7.0), (1.0, 7.0)]  # counter-clockwise


def rotations(corners):
    return [corners[i:] + corners[:i] for i in range(len(corners))]


RECTANGLE_ORDERS = rotations(CORNERS) + rotations(CORNERS[::-1])


class TestFlag:
    @pytest.mark.parametrize("order", RECTANGLE_ORDERS)
    def test_either_winding_from_any_corner_is_a_rectangle(self, order):
        assert Polygon(order).is_rectangle

    def test_bowtie_of_the_same_corners_is_not(self):
        a, b, c, d = CORNERS
        bowtie = Polygon([a, c, b, d])
        assert set(bowtie.shell.coords) == set(CORNERS)
        assert not bowtie.is_rectangle

    def test_extra_collinear_vertex_is_not(self):
        assert not Polygon(CORNERS[:1] + [(2.5, 2.0)] + CORNERS[1:]).is_rectangle

    def test_holed_box_is_not(self):
        hole = [(2.0, 3.0), (3.0, 3.0), (3.0, 4.0), (2.0, 4.0)]
        assert not Polygon(CORNERS, [hole]).is_rectangle

    def test_zero_width_box_is_not(self):
        flat = Polygon.from_envelope(Envelope(1.0, 2.0, 1.0, 7.0))
        assert not flat.is_empty
        assert not flat.is_rectangle

    def test_other_shapes_are_not(self):
        assert not Polygon([(0, 0), (4, 0), (4, 4)]).is_rectangle
        assert not Polygon().is_rectangle
        unbounded = [(0.0, 0.0), (math.inf, 0.0), (math.inf, 1.0), (0.0, 1.0)]
        assert not Polygon(unbounded).is_rectangle

    def test_from_envelope_is_a_rectangle(self):
        assert Polygon.from_envelope(Envelope(1.0, 2.0, 4.0, 7.0)).is_rectangle

    @pytest.mark.parametrize("order", RECTANGLE_ORDERS[:2])
    def test_flag_survives_a_pickle_round_trip(self, order):
        assert pickle.loads(pickle.dumps(Polygon(order))).is_rectangle
        a, b, c, d = CORNERS
        assert not pickle.loads(pickle.dumps(Polygon([a, c, b, d]))).is_rectangle

    def test_flag_survives_a_persisted_index_reload(self, sc, tmp_path):
        rows = [
            (STObject(Polygon(order)), i) for i, order in enumerate(RECTANGLE_ORDERS)
        ]
        rows.append((STObject(Polygon([(0, 0), (4, 0), (4, 4)])), len(rows)))
        path = str(tmp_path / "idx")
        spatial(sc.parallelize(rows, 2)).index(order=4).save(path)
        reloaded = IndexedSpatialRDD.load(sc, path)
        everything = STObject("POLYGON ((-9 -9, 9 -9, 9 9, -9 9, -9 -9))")
        found = reloaded.intersects(everything).collect()
        flags = {i: st.geo.is_rectangle for st, i in found}
        assert flags == {i: i < len(RECTANGLE_ORDERS) for i in range(len(rows))}
        query = STObject("POINT (4 7)")  # a shared corner
        hits = sorted(i for _st, i in reloaded.intersects(query).collect())
        assert hits == list(range(len(RECTANGLE_ORDERS)))


def ulps(v):
    """*v* and its neighbours one ulp below and above."""
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


# Points on an edge, on each corner and inside, and one ulp either side.
PROBES = [
    Point(px, py)
    for x in (1.0, 2.5, 4.0)
    for y in (2.0, 4.5, 7.0)
    for px in ulps(x)
    for py in ulps(y)
]
# The general path's twin: the same point set, not flagged.
TWIN = Polygon(CORNERS[:1] + [(2.5, 2.0)] + CORNERS[1:])


@pytest.mark.parametrize("order", RECTANGLE_ORDERS)
def test_point_answers_match_locate(order):
    rect = Polygon(order)
    assert rect.is_rectangle and not TWIN.is_rectangle
    for p in PROBES:
        where = rect.locate(p.x, p.y)
        assert where == TWIN.locate(p.x, p.y), p
        assert pred.intersects(p, rect) == (where != EXTERIOR), p
        assert pred.intersects(rect, p) == (where != EXTERIOR), p
        assert pred.covers(rect, p) == (where != EXTERIOR), p
        assert pred.contains(rect, p) == (where == INTERIOR), p
        assert pred.intersects(p, rect) == pred.intersects(p, TWIN), p
        assert pred.covers(rect, p) == pred.covers(TWIN, p), p
        assert pred.contains(rect, p) == pred.contains(TWIN, p), p


def test_probes_cover_every_answer():
    rect = Polygon(CORNERS)
    seen = {rect.locate(p.x, p.y) for p in PROBES}
    assert len(seen) == 3  # interior, boundary and exterior all drawn

"""Low-level computational-geometry primitives."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import LineString, Point, Polygon
from repro.geometry import algorithms as alg
from repro.geometry.algorithms import BOUNDARY, EXTERIOR, INTERIOR, on_segment
from repro.geometry.envelope import Envelope
from tests.geometry.test_metamorphic import nudge


class TestOrientation:
    def test_counter_clockwise(self):
        assert alg.orientation((0, 0), (1, 0), (1, 1)) == 1

    def test_clockwise(self):
        assert alg.orientation((0, 0), (1, 1), (1, 0)) == -1

    def test_collinear(self):
        assert alg.orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_collinear_with_large_coordinates(self):
        assert alg.orientation((1e9, 1e9), (2e9, 2e9), (3e9, 3e9)) == 0


class TestOnSegment:
    def test_midpoint(self):
        assert alg.on_segment((1, 1), (0, 0), (2, 2))

    def test_endpoint(self):
        assert alg.on_segment((0, 0), (0, 0), (2, 2))

    def test_collinear_but_outside(self):
        assert not alg.on_segment((3, 3), (0, 0), (2, 2))

    def test_off_line(self):
        assert not alg.on_segment((1, 0), (0, 0), (2, 2))


class TestSegmentsIntersect:
    def test_proper_crossing(self):
        assert alg.segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_shared_endpoint(self):
        assert alg.segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_t_junction(self):
        assert alg.segments_intersect((0, 0), (2, 0), (1, -1), (1, 0))

    def test_collinear_overlap(self):
        assert alg.segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not alg.segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_parallel_disjoint(self):
        assert not alg.segments_intersect((0, 0), (2, 0), (0, 1), (2, 1))

    def test_near_miss(self):
        assert not alg.segments_intersect((0, 0), (1, 1), (1.01, 1.0), (2, 0.5))


class TestIntersectionPoint:
    def test_proper_crossing_point(self):
        pt = alg.segment_intersection_point((0, 0), (2, 2), (0, 2), (2, 0))
        assert pt == pytest.approx((1, 1))

    def test_parallel_returns_none(self):
        assert alg.segment_intersection_point((0, 0), (1, 0), (0, 1), (1, 1)) is None

    def test_non_crossing_returns_none(self):
        assert alg.segment_intersection_point((0, 0), (1, 1), (3, 0), (4, 1)) is None


class TestDistances:
    def test_point_segment_perpendicular(self):
        assert alg.point_segment_distance((1, 1), (0, 0), (2, 0)) == 1.0

    def test_point_segment_beyond_endpoint(self):
        assert alg.point_segment_distance((5, 0), (0, 0), (2, 0)) == 3.0

    def test_point_degenerate_segment(self):
        assert alg.point_segment_distance((3, 4), (0, 0), (0, 0)) == 5.0

    def test_short_segment_is_projected_onto(self):
        # A 1e-6 long segment is still a segment: the point sits 1e-9
        # above its middle, not 5e-7 from an endpoint.
        p, a, b = (5e-7, 1e-9), (0.0, 0.0), (1e-6, 0.0)
        assert alg.point_segment_distance(p, a, b) == pytest.approx(1e-9)
        assert Point(*p).distance(LineString([a, b])) == pytest.approx(1e-9)

    def test_segment_segment_crossing_is_zero(self):
        assert alg.segment_segment_distance((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0

    def test_segment_segment_parallel(self):
        assert alg.segment_segment_distance((0, 0), (2, 0), (0, 3), (2, 3)) == 3.0


RING = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]


class TestPointInRing:
    def test_interior(self):
        assert alg.locate_point_in_ring((2, 2), RING) == alg.INTERIOR

    def test_exterior(self):
        assert alg.locate_point_in_ring((5, 2), RING) == alg.EXTERIOR

    def test_boundary_edge(self):
        assert alg.locate_point_in_ring((2, 0), RING) == alg.BOUNDARY

    def test_boundary_vertex(self):
        assert alg.locate_point_in_ring((4, 4), RING) == alg.BOUNDARY

    def test_ray_through_vertex_counted_once(self):
        # Point whose +x ray passes exactly through ring vertices.
        diamond = [(0, 0), (2, 2), (4, 0), (2, -2), (0, 0)]
        assert alg.locate_point_in_ring((1, 0), diamond) == alg.INTERIOR
        assert alg.locate_point_in_ring((-1, 0), diamond) == alg.EXTERIOR

    def test_concave_ring(self):
        # U-shape: the notch is exterior.
        u_shape = [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4), (0, 0)]
        assert alg.locate_point_in_ring((3, 3), u_shape) == alg.EXTERIOR
        assert alg.locate_point_in_ring((1, 3), u_shape) == alg.INTERIOR
        assert alg.locate_point_in_ring((3, 1), u_shape) == alg.INTERIOR

    def test_too_short_ring_raises(self):
        with pytest.raises(ValueError):
            alg.locate_point_in_ring((0, 0), [(0, 0), (1, 1), (0, 0)])


class TestRingMetrics:
    def test_signed_area_ccw_positive(self):
        assert alg.ring_signed_area(RING) == 16.0

    def test_signed_area_cw_negative(self):
        assert alg.ring_signed_area(list(reversed(RING))) == -16.0

    def test_is_ccw(self):
        assert alg.ring_is_ccw(RING)
        assert not alg.ring_is_ccw(list(reversed(RING)))

    def test_centroid_of_square(self):
        assert alg.ring_centroid(RING) == pytest.approx((2, 2))

    def test_centroid_of_degenerate_ring_falls_back_to_mean(self):
        line_ring = [(0, 0), (2, 0), (1, 0), (0, 0)]
        cx, cy = alg.ring_centroid(line_ring)
        assert cy == 0.0
        assert 0 <= cx <= 2


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 3)]
        hull = alg.convex_hull(pts)
        assert sorted(hull) == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_hull_is_ccw(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]
        hull = alg.convex_hull(pts)
        closed = hull + [hull[0]]
        assert alg.ring_signed_area(closed) > 0

    def test_collinear_points(self):
        assert alg.convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]

    def test_single_point(self):
        assert alg.convex_hull([(1, 2)]) == [(1, 2)]

    def test_duplicates_ignored(self):
        assert sorted(alg.convex_hull([(0, 0), (0, 0), (1, 0), (0, 1)])) == [
            (0, 0), (0, 1), (1, 0),
        ]


class TestPolyline:
    def test_length(self):
        assert alg.polyline_length([(0, 0), (3, 4), (3, 10)]) == 11.0

    def test_centroid_weighted_by_length(self):
        # Two segments: long one dominates.
        cx, cy = alg.polyline_centroid([(0, 0), (10, 0), (10, 1)])
        assert cx == pytest.approx((5 * 10 + 10 * 1) / 11)

    def test_centroid_degenerate(self):
        assert alg.polyline_centroid([(1, 1), (1, 1)]) == (1, 1)


# ---------------------------------------------------------------------------
# The one-pass point location against the two-pass original
# ---------------------------------------------------------------------------


def two_pass_locate_point_in_ring(p, ring):
    """The boundary pass, then the crossing count: point location before
    the two became one pass over prepared edges, kept as the oracle."""
    if len(ring) < 4:
        raise ValueError("a closed ring needs at least 4 coordinates")
    px, py = p
    # Boundary pass first: crossing counts are unreliable on the boundary.
    for i in range(len(ring) - 1):
        if on_segment(p, ring[i], ring[i + 1]):
            return BOUNDARY

    crossings = 0
    for i in range(len(ring) - 1):
        x1, y1 = ring[i]
        x2, y2 = ring[i + 1]
        # Count edges crossed by the ray going in +x from p.  The
        # half-open test (y1 <= py < y2 or y2 <= py < y1) ensures a
        # vertex exactly at py is counted once.
        if (y1 <= py < y2) or (y2 <= py < y1):
            x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if x_at > px:
                crossings += 1
    return INTERIOR if crossings % 2 == 1 else EXTERIOR


def oracle_ring_locate(ring, x, y):
    """``LinearRing.locate`` over the oracle: outside the envelope is outside."""
    if not Envelope.of_points(ring).contains_point(x, y):
        return EXTERIOR
    return two_pass_locate_point_in_ring((x, y), ring)


def oracle_polygon_locate(shell, holes, x, y):
    loc = oracle_ring_locate(shell, x, y)
    if loc != INTERIOR:
        return loc
    for hole in holes:
        hole_loc = oracle_ring_locate(hole, x, y)
        if hole_loc != EXTERIOR:
            return EXTERIOR if hole_loc == INTERIOR else BOUNDARY
    return INTERIOR


#: Non-dyadic centres, so that vertices and points on edges are rounded.
centres = st.integers(-30, 30).map(lambda n: n / 3)


@st.composite
def star_ring(draw, cx, cy, r_lo, r_hi, kind):
    """A closed ring around ``(cx, cy)``: regular (convex), free radii
    (concave), snapped to a grid of halves (horizontal edges, repeated
    and collinear vertices), or with points inserted on its edges
    (collinear vertices)."""
    k = draw(st.integers(3, 8))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "convex":
        radii = [draw(st.floats(r_lo, r_hi))] * k
    else:
        radii = draw(st.lists(st.floats(r_lo, r_hi), min_size=k, max_size=k))
    ring = [
        (cx + r * math.cos(phase + 2.0 * math.pi * a / k),
         cy + r * math.sin(phase + 2.0 * math.pi * a / k))
        for a, r in enumerate(radii)
    ]
    if kind == "grid":
        ring = [(round(x * 2) / 2, round(y * 2) / 2) for x, y in ring]
    if kind == "collinear":
        t = draw(st.sampled_from((0.5, 0.25, 1.0 / 3.0)))
        ring = [
            c
            for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1])
            for c in ((x1, y1), (x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
        ]
    return ring + ring[:1]


@st.composite
def ring_polygons(draw):
    """``(shell, holes)`` as closed coordinate lists."""
    kind = draw(st.sampled_from(("convex", "concave", "grid", "collinear", "holed")))
    cx, cy = draw(centres), draw(centres)
    if kind != "holed":
        return draw(star_ring(cx, cy, 2.0, 6.0, kind)), []
    shell = draw(star_ring(cx, cy, 4.0, 6.0, "concave"))
    return shell, [draw(star_ring(cx, cy, 0.5, 1.5, draw(st.sampled_from(("convex", "grid")))))]


def probes(rings):
    """Every vertex; each vertex's y with the least, middle and greatest
    vertex x; points on every edge; and each of those a few ulps either
    side in x, in y, or both, and about the tolerance away."""
    vertices = [c for ring in rings for c in ring[:-1]]
    xs = sorted({x for x, _ in vertices})
    exact = list(vertices)
    exact += [(x, y) for _, y in vertices for x in (xs[0], xs[len(xs) // 2], xs[-1])]
    for ring in rings:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            exact += [(x1 + t * (x2 - x1), y1 + t * (y2 - y1)) for t in (0.5, 1.0 / 3.0)]
    for x, y in exact:
        yield x, y
        yield x - 1e-11, y + 1e-11
        for ulps in (-2, 1):
            yield nudge(x, ulps), y
            yield x, nudge(y, ulps)
            yield nudge(x, ulps), nudge(y, -ulps)


@given(ring_polygons())
@settings(max_examples=50, deadline=None)
def test_one_pass_locates_like_the_two_pass_original(drawn):
    shell, holes = drawn
    polygon = Polygon(shell, holes)
    rings = [polygon.shell, *polygon.holes]
    points = list(probes([shell, *holes]))
    for x, y in points:
        for coords, ring in zip([shell, *holes], rings):
            assert alg.locate_point_in_ring((x, y), coords) == two_pass_locate_point_in_ring(
                (x, y), coords
            ), (x, y, coords)
            assert ring.locate(x, y) == oracle_ring_locate(coords, x, y), (x, y, coords)
        assert polygon.locate(x, y) == oracle_polygon_locate(shell, holes, x, y), (x, y)

    # The prepared edges stay out of the pickle: a restored polygon
    # pickles like a fresh one, prepares its own and answers the same.
    restored = pickle.loads(pickle.dumps(polygon))
    assert all(ring._edges is not None for ring in rings)
    assert all(ring._edges is None for ring in (restored.shell, *restored.holes))
    assert pickle.dumps(polygon) == pickle.dumps(Polygon(shell, holes))
    assert [restored.locate(x, y) for x, y in points] == [polygon.locate(x, y) for x, y in points]

"""Low-level computational-geometry primitives.

These free functions operate on bare coordinate tuples and back the exact
predicates in :mod:`repro.geometry.predicates`.  They follow the classic
robust-enough formulations used by JTS: orientation tests with an epsilon
collapse, segment intersection via orientation signs, and ray-crossing
point-in-polygon that reports the boundary in the same pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Coord = tuple[float, float]

# The one tolerance of the geometry kernel.  It applies where a value is
# computed: collinearity (``orientation``, relative to the squared
# scale of the coordinate differences) and coordinates compared after
# arithmetic (``coincident``, relative to their magnitude).  Box tests
# -- whether a point lies within a segment's extent -- are exact, so
# whatever the kernel places on an edge lies inside that edge's envelope
# and refinement never accepts a pair the envelope test rejects.  The
# tolerance only adds contact: a segment reaching across an edge from a
# point collinear with it only within the tolerance still crosses it
# (``segments_intersect`` decides that case on exact signs).  JTS uses
# exact arithmetic; STARK's observable behaviour only needs the outcomes
# to be stable for non-degenerate inputs.
_EPS = 1e-12


def cross(p: Coord, q: Coord, r: Coord) -> float:
    """The cross product (q - p) x (r - p), with no tolerance applied."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def orientation(p: Coord, q: Coord, r: Coord) -> int:
    """Sign of the cross product (q - p) x (r - p).

    Returns 1 for a counter-clockwise turn, -1 for clockwise and 0 for
    (nearly) collinear points.
    """
    turn = cross(p, q, r)
    scale = max(
        abs(q[0] - p[0]), abs(q[1] - p[1]), abs(r[0] - p[0]), abs(r[1] - p[1]), 1.0
    )
    if abs(turn) <= _EPS * scale * scale:
        return 0
    return 1 if turn > 0 else -1


def exact_orientation(p: Coord, q: Coord, r: Coord) -> int:
    """:func:`orientation` without the tolerance, decided on Fractions
    (no rounding, no underflow; slow, so kept for near-collinear input)."""
    turn = cross(*((Fraction(c[0]), Fraction(c[1])) for c in (p, q, r)))
    return (turn > 0) - (turn < 0)


def on_segment(p: Coord, a: Coord, b: Coord) -> bool:
    """True when *p* lies on the closed segment ``a-b``.

    Assumes nothing: collinearity is checked here as well (with the
    tolerance), the segment's extent exactly.
    """
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def coincident(p: Coord, q: Coord) -> bool:
    """True when two computed coordinates agree up to the tolerance,
    taken relative to their magnitude (at least 1)."""
    tolerance = _EPS * max(abs(p[0]), abs(p[1]), abs(q[0]), abs(q[1]), 1.0)
    return abs(p[0] - q[0]) <= tolerance and abs(p[1] - q[1]) <= tolerance


def segments_intersect(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> bool:
    """True when closed segments ``a1-a2`` and ``b1-b2`` share a point."""
    o1 = orientation(a1, a2, b1)
    o2 = orientation(a1, a2, b2)
    o3 = orientation(b1, b2, a1)
    o4 = orientation(b1, b2, a2)

    if o1 * o2 < 0 and o3 * o4 < 0:
        return True  # a proper crossing
    # An endpoint collinear within the tolerance touches the other
    # segment only inside that segment's box ...
    if (
        (o1 == 0 and on_segment(b1, a1, a2))
        or (o2 == 0 and on_segment(b2, a1, a2))
        or (o3 == 0 and on_segment(a1, b1, b2))
        or (o4 == 0 and on_segment(a2, b1, b2))
    ):
        return True
    if o1 and o2 and o3 and o4:
        return False
    # ... but may still lie strictly across the other line: then the
    # exact signs decide whether the segments properly cross.
    s1 = exact_orientation(a1, a2, b1)
    s2 = exact_orientation(a1, a2, b2)
    s3 = exact_orientation(b1, b2, a1)
    s4 = exact_orientation(b1, b2, a2)
    return s1 * s2 < 0 and s3 * s4 < 0


def segment_intersection_point(
    a1: Coord, a2: Coord, b1: Coord, b2: Coord
) -> Coord | None:
    """The intersection point of two *properly* crossing segments.

    Returns ``None`` for parallel or non-crossing segments; collinear
    overlaps also return ``None`` (there is no single point).
    """
    d1x, d1y = a2[0] - a1[0], a2[1] - a1[1]
    d2x, d2y = b2[0] - b1[0], b2[1] - b1[1]
    denom = d1x * d2y - d1y * d2x
    if abs(denom) <= _EPS:
        return None
    t = ((b1[0] - a1[0]) * d2y - (b1[1] - a1[1]) * d2x) / denom
    u = ((b1[0] - a1[0]) * d1y - (b1[1] - a1[1]) * d1x) / denom
    if -_EPS <= t <= 1 + _EPS and -_EPS <= u <= 1 + _EPS:
        return (a1[0] + t * d1x, a1[1] + t * d1y)
    return None


def point_segment_distance(p: Coord, a: Coord, b: Coord) -> float:
    """Euclidean distance from point *p* to the closed segment ``a-b``."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        # No projection (a point, or deltas whose squares underflow):
        # take the nearer endpoint, so a point at ``b`` measures 0.  Any
        # longer segment, however short, is projected onto.
        return min(math.hypot(px - ax, py - ay), math.hypot(px - bx, py - by))
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    if t <= 0.0:
        return math.hypot(px - ax, py - ay)
    if t >= 1.0:
        # The endpoint itself: ``ay + dy`` can round past ``by``, which
        # would measure a point beside the segment's box as on it.
        return math.hypot(px - bx, py - by)
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segment_segment_distance(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> float:
    """Minimum distance between two closed segments (0 when they intersect)."""
    if segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(
        point_segment_distance(a1, b1, b2),
        point_segment_distance(a2, b1, b2),
        point_segment_distance(b1, a1, a2),
        point_segment_distance(b2, a1, a2),
    )


# Location of a point relative to a ring: interior / boundary / exterior.
INTERIOR = 1
BOUNDARY = 0
EXTERIOR = -1


def ring_edges(ring: Sequence[Coord]) -> tuple[tuple[float, ...], ...]:
    """A closed ring's edges for :func:`locate_in_edges`: each its exact
    box ``(y_lo, y_hi, x_lo, x_hi)``, first vertex and deltas ``(x1, y1,
    dx, dy)``."""
    return tuple(
        (min(y1, y2), max(y1, y2), min(x1, x2), max(x1, x2), x1, y1, x2 - x1, y2 - y1)
        for (x1, y1), (x2, y2) in zip(ring, ring[1:])
    )


def locate_in_edges(px: float, py: float, edges: Sequence[tuple[float, ...]]) -> int:
    """Classify ``(px, py)`` against a ring's :func:`ring_edges` in one pass:
    only an edge whose y-range holds the point can touch it or cross its +x
    ray.  In the edge's box, :func:`on_segment`'s collinearity test answers
    :data:`BOUNDARY`, which wins over any count; else the crossing counts
    by the half-open rule (``py < y_hi`` here), so a vertex counts once."""
    crossings = 0
    for y_lo, y_hi, x_lo, x_hi, x1, y1, dx, dy in edges:
        if not y_lo <= py <= y_hi:
            continue
        if x_lo <= px <= x_hi:
            ox, oy = px - x1, py - y1
            scale = max(abs(dx), abs(dy), abs(ox), abs(oy), 1.0)
            if abs(dx * oy - dy * ox) <= _EPS * scale * scale:
                return BOUNDARY
        if py < y_hi and x1 + (py - y1) * dx / dy > px:
            crossings += 1
    return INTERIOR if crossings % 2 == 1 else EXTERIOR


def locate_point_in_ring(p: Coord, ring: Sequence[Coord]) -> int:
    """Classify *p* against a closed ring (``ring[0] == ring[-1]``) given
    as coordinates: :func:`locate_in_edges` over :func:`ring_edges`."""
    if len(ring) < 4:
        raise ValueError("a closed ring needs at least 4 coordinates")
    return locate_in_edges(p[0], p[1], ring_edges(ring))


def ring_signed_area(ring: Sequence[Coord]) -> float:
    """Signed shoelace area; positive for counter-clockwise rings."""
    total = 0.0
    for i in range(len(ring) - 1):
        x1, y1 = ring[i]
        x2, y2 = ring[i + 1]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def ring_is_ccw(ring: Sequence[Coord]) -> bool:
    """True when the closed ring winds counter-clockwise."""
    return ring_signed_area(ring) > 0


def ring_centroid(ring: Sequence[Coord]) -> Coord:
    """Area centroid of a closed ring (falls back to vertex mean if degenerate).

    The shoelace sums run relative to the first vertex, so they are the
    fan triangles' centroids weighted by the fan triangles' areas, and
    the weights' own sum is the divisor.  Over a convex ring every weight
    has one sign and the result is a weighted mean of points inside the
    ring: a sliver's centroid stays inside it.  With absolute coordinates
    the cross products cancel, and for a triangle 1e-7 wide at y ~ 23
    the error (~2e-7) exceeds its width.
    """
    x0, y0 = ring[0]
    cx = cy = twice_area = 0.0
    for i in range(1, len(ring) - 2):
        x1, y1 = ring[i][0] - x0, ring[i][1] - y0
        x2, y2 = ring[i + 1][0] - x0, ring[i + 1][1] - y0
        cross = x1 * y2 - x2 * y1
        cx += (x1 + x2) * cross
        cy += (y1 + y2) * cross
        twice_area += cross
    if abs(twice_area) <= 2.0 * _EPS:
        xs = [c[0] for c in ring[:-1]]
        ys = [c[1] for c in ring[:-1]]
        return (sum(xs) / len(xs), sum(ys) / len(ys))
    factor = 1.0 / (3.0 * twice_area)
    return (x0 + cx * factor, y0 + cy * factor)


def convex_hull(points: Sequence[Coord]) -> list[Coord]:
    """Andrew's monotone chain convex hull.

    Returns hull vertices in counter-clockwise order without repeating
    the first point.  Degenerate inputs (all collinear) return the two
    extreme points; a single point returns itself.
    """
    unique = sorted(set(points))
    if len(unique) <= 2:
        return unique

    def build(half: list[Coord]) -> list[Coord]:
        chain: list[Coord] = []
        for p in half:
            while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(unique)
    upper = build(list(reversed(unique)))
    return lower[:-1] + upper[:-1]


def polyline_length(coords: Sequence[Coord]) -> float:
    """Total Euclidean length of a coordinate chain."""
    return sum(
        math.hypot(coords[i + 1][0] - coords[i][0], coords[i + 1][1] - coords[i][1])
        for i in range(len(coords) - 1)
    )


def polyline_centroid(coords: Sequence[Coord]) -> Coord:
    """Length-weighted centroid of a polyline (vertex mean when degenerate)."""
    total_len = polyline_length(coords)
    if total_len <= _EPS:
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        return (sum(xs) / len(xs), sum(ys) / len(ys))
    cx = cy = 0.0
    for i in range(len(coords) - 1):
        x1, y1 = coords[i]
        x2, y2 = coords[i + 1]
        seg_len = math.hypot(x2 - x1, y2 - y1)
        cx += (x1 + x2) / 2.0 * seg_len
        cy += (y1 + y2) / 2.0 * seg_len
    return (cx / total_len, cy / total_len)

"""Cells are separated, and MR-DBSCAN's interior shortcut relies on it.

``SpatialPartitioner`` promises that any two cells are separated along
``x`` or ``y`` (one's max edge ``<=`` the other's min edge, shared edges
as the same float).  ``replication_targets`` skips the per-cell scan for
a point more than eps inside its home cell, and scans only its home's
neighbours (``home_neighbours``) for a point inside its home's bounds;
the differentials below hold both routes to the full scan on grid and
BSP partitioners, clamped points included.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering.mr_dbscan import home_neighbours, replication_targets
from repro.core.stobject import STObject
from repro.geometry.point import Point
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner

_COORD = st.one_of(
    st.integers(0, 100).map(float), st.floats(0, 100, allow_nan=False)
)


@st.composite
def partitioners(draw):
    """A grid or BSP over drawn data, maybe a zero-width universe."""
    sample = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=60))
    flat = draw(st.sampled_from([None, 0, 1]))  # collapse x or y to one value
    if flat is not None:
        sample = [(p[0], 50.0) if flat else (50.0, p[1]) for p in sample]
    keys = [STObject(Point(x, y)) for x, y in sample]
    kind = draw(st.sampled_from(["grid", "bsp"]))
    budget = draw(st.integers(1, 12))
    if kind == "grid":
        return GridPartitioner(keys, draw(st.integers(1, 5)))
    side = draw(st.sampled_from([None, 1.0, 7.5]))
    return BSPartitioner(keys, max_cost_per_partition=budget, side_length=side)


def _cells(part):
    return [part.partition_bounds(pid) for pid in range(part.num_partitions)]


@st.composite
def probes(draw, part, eps):
    """Points from other data (inside and outside the universe), on cell
    edges, and exactly eps from an edge."""
    cells = _cells(part)
    edges_x = sorted({v for b in cells for v in (b.min_x, b.max_x)})
    edges_y = sorted({v for b in cells for v in (b.min_y, b.max_y)})

    def axis(edges):
        edge = st.sampled_from(edges)
        return st.one_of(
            st.floats(-60, 160, allow_nan=False),
            edge,
            edge.map(lambda e: e + eps),
            edge.map(lambda e: e - eps),
        )

    return draw(st.lists(st.tuples(axis(edges_x), axis(edges_y)), min_size=1, max_size=25))


def _assert_routes_like_the_full_scan(part, x, y, eps, near):
    home, targets = replication_targets(part, x, y, eps, near)
    assert home == part.partition_of_point(x, y)
    assert len(set(targets)) == len(targets)
    full = set(part.partitions_within_distance(x, y, eps)) | {home}
    assert set(targets) == full, (part, x, y, eps)
    b = part.partition_bounds(home)
    if b.min_x <= x <= b.max_x and b.min_y <= y <= b.max_y:
        # The lemma the route rests on, without the clamped fallback.
        assert full <= set(near[home]), (part, x, y, eps)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_replication_targets_equal_the_full_scan(data):
    part = data.draw(partitioners())
    # Up to wider than a cell: a home's neighbours then go past the ring.
    eps = data.draw(st.sampled_from([0.1, 1 / 3, 1.0, 2.0, 7.5, 30.0]))
    near = home_neighbours(part, eps)
    assert all(pid in cells for pid, cells in enumerate(near))
    for x, y in data.draw(probes(part, eps)):
        _assert_routes_like_the_full_scan(part, x, y, eps, near)


def test_clamped_points_route_like_the_full_scan():
    """Points outside the universe land in a border home they are not
    in, and take the full scan: the neighbour lists are only proven for
    points inside their home's bounds."""
    keys = [STObject(Point(x, y)) for x in range(0, 101, 5) for y in range(0, 101, 7)]
    clamped = 0
    for part in (
        GridPartitioner(keys, 4),
        BSPartitioner(keys, max_cost_per_partition=20, side_length=1.0),
    ):
        u = part.universe
        for eps in (0.5, 3.0, 30.0):
            near = home_neighbours(part, eps)
            for dx in (-eps, -eps / 2, 0.0, eps / 2, eps):
                for x in (u.min_x + dx, u.max_x + dx, (u.min_x + u.max_x) / 2):
                    for y in (u.min_y - eps / 2, u.max_y + eps / 2, u.min_y + dx):
                        b = part.partition_bounds(part.partition_of_point(x, y))
                        clamped += not (b.min_x <= x <= b.max_x and b.min_y <= y <= b.max_y)
                        _assert_routes_like_the_full_scan(part, x, y, eps, near)
    assert clamped > 100


@given(partitioners())
@settings(max_examples=300, deadline=None)
def test_every_pair_of_cells_is_separated(part):
    for a, b in combinations(_cells(part), 2):
        assert (
            a.max_x <= b.min_x
            or b.max_x <= a.min_x
            or a.max_y <= b.min_y
            or b.max_y <= a.min_y
        ), (part, a, b)

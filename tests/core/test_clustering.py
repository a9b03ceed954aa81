"""DBSCAN: union-find, the sequential reference, the distributed version."""

import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clustering import NOISE, UnionFind, dbscan, local_dbscan
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.index.rtree import STRTree
from repro.io.datagen import clustered_points
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind([1, 2, 3])
        assert not uf.connected(1, 2)

    def test_union_connects(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.connected(1, 3)
        assert not uf.connected(1, 4)

    def test_find_idempotent_root(self):
        uf = UnionFind()
        uf.union("a", "b")
        root = uf.find("a")
        assert uf.find(root) == root
        assert uf.find("b") == root

    def test_groups(self):
        uf = UnionFind(range(5))
        uf.union(0, 1)
        uf.union(3, 4)
        groups = sorted(sorted(g) for g in uf.groups().values())
        assert groups == [[0, 1], [2], [3, 4]]

    def test_implicit_add(self):
        uf = UnionFind()
        assert uf.find("new") == "new"
        assert "new" in uf

    def test_len(self):
        uf = UnionFind([1, 2])
        uf.union(1, 2)
        assert len(uf) == 2


def blobs(seed=1, n_per=60, centers=((20, 20), (80, 80))):
    rng = random.Random(seed)
    pts = []
    for cx, cy in centers:
        pts += [(rng.gauss(cx, 1.5), rng.gauss(cy, 1.5)) for _ in range(n_per)]
    return pts


class TestLocalDBSCAN:
    def test_two_blobs_two_clusters(self):
        pts = blobs()
        labels, core = local_dbscan(pts, eps=3.0, min_pts=5)
        assert set(labels) == {0, 1}
        # blob membership must match cluster membership
        first_blob_labels = set(labels[:60])
        second_blob_labels = set(labels[60:])
        assert first_blob_labels.isdisjoint(second_blob_labels)

    def test_isolated_points_are_noise(self):
        pts = blobs() + [(500.0, 500.0), (-300.0, 200.0)]
        labels, core = local_dbscan(pts, eps=3.0, min_pts=5)
        assert labels[-1] == NOISE
        assert labels[-2] == NOISE
        assert not core[-1]

    def test_min_pts_one_makes_everything_core(self):
        pts = [(0.0, 0.0), (100.0, 100.0)]
        labels, core = local_dbscan(pts, eps=1.0, min_pts=1)
        assert labels == [0, 1]
        assert core == [True, True]

    def test_chain_connectivity(self):
        # A chain of points spaced just under eps forms one cluster.
        pts = [(float(i), 0.0) for i in range(20)]
        labels, _core = local_dbscan(pts, eps=1.1, min_pts=2)
        assert set(labels) == {0}

    def test_chain_broken_by_gap(self):
        pts = [(float(i), 0.0) for i in range(10)]
        pts += [(float(i) + 100, 0.0) for i in range(10)]
        labels, _core = local_dbscan(pts, eps=1.1, min_pts=2)
        assert len(set(labels)) == 2

    def test_empty_input(self):
        assert local_dbscan([], 1.0, 3) == ([], [])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            local_dbscan([(0, 0)], eps=0, min_pts=1)
        with pytest.raises(ValueError):
            local_dbscan([(0, 0)], eps=1.0, min_pts=0)

    def test_core_points_have_enough_neighbours(self):
        pts = blobs(seed=3)
        eps, min_pts = 3.0, 5
        labels, core = local_dbscan(pts, eps, min_pts)
        for i, is_core in enumerate(core):
            neighbours = sum(
                1 for q in pts if math.hypot(q[0] - pts[i][0], q[1] - pts[i][1]) <= eps
            )
            assert is_core == (neighbours >= min_pts)

    def test_labels_dense_from_zero(self):
        pts = blobs(seed=4, centers=((10, 10), (50, 50), (90, 90)))
        labels, _ = local_dbscan(pts, eps=3.0, min_pts=5)
        real = sorted(set(l for l in labels if l != NOISE))
        assert real == list(range(len(real)))


def _expand(n, neighbours, min_pts):
    """``local_dbscan``'s expansion loop over any neighbour function."""
    labels, core, next_label = [None] * n, [False] * n, 0
    for seed in range(n):
        if labels[seed] is not None:
            continue
        seed_neighbours = neighbours(seed)
        if len(seed_neighbours) < min_pts:
            labels[seed] = NOISE
            continue
        label, next_label = next_label, next_label + 1
        labels[seed], core[seed] = label, True
        queue = deque(seed_neighbours)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = label
            if labels[j] is not None:
                continue
            labels[j] = label
            j_neighbours = neighbours(j)
            if len(j_neighbours) >= min_pts:
                core[j] = True
                queue.extend(j_neighbours)
    return labels, core


def brute_force_dbscan(points, eps, min_pts):
    """The O(n^2) reference: every pair goes through the hypot test."""

    def neighbours(i):
        x, y = points[i]
        return [
            j for j, (xj, yj) in enumerate(points) if math.hypot(xj - x, yj - y) <= eps
        ]

    return _expand(len(points), neighbours, min_pts)


def str_tree_dbscan(points, eps, min_pts):
    """The STR-tree ``local_dbscan`` the eps-grid replaced: the tree answers
    the float box ``[x - eps, x + eps]``, then the hypot test refines."""
    tree = STRTree((Envelope.of_point(x, y), i) for i, (x, y) in enumerate(points))

    def neighbours(i):
        x, y = points[i]
        box = Envelope(x - eps, y - eps, x + eps, y + eps)
        return [
            j
            for j in tree.query(box)
            if math.hypot(points[j][0] - x, points[j][1] - y) <= eps
        ]

    return _expand(len(points), neighbours, min_pts)


def box_drops_a_neighbour(points, eps):
    """Whether a pair passes the hypot test but misses the float eps-box.

    ``fl(x + eps)`` can round below an ``xj`` whose difference to ``x``
    still rounds to ``eps``; the STR-tree version then loses the pair.
    """
    for x, y in points:
        box = Envelope(x - eps, y - eps, x + eps, y + eps)
        for xj, yj in points:
            if math.hypot(xj - x, yj - y) <= eps and not box.contains_point(xj, yj):
                return True
    return False


def _ulps(value, steps):
    """*value* moved *steps* floats up (or down, for negative steps)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


_EPS = st.sampled_from([0.1, 1 / 3, 1.0, 2.5, 12.0])


@st.composite
def dbscan_inputs(draw):
    """(points, eps, min_pts): blobs, duplicates, exact-eps lattices and
    coordinates whose ``x / eps`` lies within a few ulps of an integer."""
    eps = draw(_EPS)
    min_pts = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["blobs", "duplicates", "lattice", "near_edges"]))
    offsets = st.floats(-2.5, 2.5, allow_nan=False)
    if kind == "blobs":
        centres = draw(st.lists(st.tuples(offsets, offsets), min_size=1, max_size=3))
        members = draw(st.lists(
            st.tuples(st.integers(0, len(centres) - 1), offsets, offsets), max_size=50
        ))
        points = [
            ((centres[c][0] * 10 + dx) * eps, (centres[c][1] * 10 + dy) * eps)
            for c, dx, dy in members
        ]
    elif kind == "duplicates":
        pool = draw(st.lists(st.tuples(offsets, offsets), min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
        points = [(pool[k][0] * eps, pool[k][1] * eps) for k in picks]
    else:
        cells = st.integers(-6, 6)
        steps = st.integers(-3, 3) if kind == "near_edges" else st.just(0)
        grid = draw(st.lists(st.tuples(cells, cells, steps, steps), max_size=50))
        points = [
            (_ulps(i * eps, sx), _ulps(j * eps, sy)) for i, j, sx, sy in grid
        ]
    return points, eps, min_pts


#: Inputs the STR-tree version answered before the grid replaced it.
DEGENERATE = [
    ([(math.inf, 0.0), (math.inf, 0.0), (0.0, 0.0)], 1.0, 1, [-1, -1, 0]),
    ([(1.0, 0.0), (1.0 + 5e-311, 0.0)], 1e-310, 2, [0, 0]),  # subnormal eps
    ([(1e308, 0.0), (1e308, 0.0)], 1e-3, 2, [0, 0]),  # x / eps overflows
    ([(-math.inf, 5.0), (3.0, math.inf), (3.0, 5.0), (3.0, 5.0)], 1e-300, 2,
     [-1, -1, 0, 0]),
]


class TestNeighbourSearch:
    """The eps-grid against an O(n^2) scan and the STR-tree it replaced."""

    @given(dbscan_inputs())
    # |dy| exceeds eps, yet rounds to it, across two cells: a plain 3x3
    # block around the point's own cell misses the pair.
    @example(([(0.1, 0.1), (0.1, -6.195560541091805e-133)], 0.1, 1))
    @settings(max_examples=400, deadline=None)
    def test_equals_brute_force(self, case):
        points, eps, min_pts = case
        assert local_dbscan(points, eps, min_pts) == brute_force_dbscan(
            points, eps, min_pts
        )

    @given(dbscan_inputs())
    @settings(max_examples=200, deadline=None)
    def test_equals_str_tree_version(self, case):
        points, eps, min_pts = case
        if not box_drops_a_neighbour(points, eps):
            assert local_dbscan(points, eps, min_pts) == str_tree_dbscan(
                points, eps, min_pts
            )

    def test_pair_the_tree_box_dropped(self):
        # fl(-0.0279... + 1.0) < 0.9720..., yet the difference rounds to
        # exactly eps: the pair are neighbours, which the tree missed.
        points = [(-0.02798621357347142, 0.0), (0.9720137864265287, 0.0)]
        assert box_drops_a_neighbour(points, 1.0)
        assert str_tree_dbscan(points, 1.0, 2) == ([NOISE, NOISE], [False, False])
        assert local_dbscan(points, 1.0, 2) == ([0, 0], [True, True])
        assert local_dbscan(points, 1.0, 2) == brute_force_dbscan(points, 1.0, 2)

    @pytest.mark.parametrize("points, eps, min_pts, labels", DEGENERATE)
    def test_degenerate_input(self, points, eps, min_pts, labels):
        got = local_dbscan(points, eps, min_pts)
        assert got[0] == labels
        assert got == str_tree_dbscan(points, eps, min_pts)
        assert got == brute_force_dbscan(points, eps, min_pts)

    @pytest.mark.parametrize("nan_at", [0, 1])
    def test_nan_raises(self, nan_at):
        point = [1.0, 2.0]
        point[nan_at] = math.nan
        with pytest.raises(ValueError):
            local_dbscan([(0.0, 0.0), tuple(point)], 1.0, 1)


def _canonical_clusters(points, labels, core):
    """Frozensets of core-point indices per cluster (border ties excluded)."""
    groups = {}
    for i, label in enumerate(labels):
        if label != NOISE and core[i]:
            groups.setdefault(label, set()).add(i)
    return sorted(map(frozenset, groups.values()), key=sorted)


class TestDistributedDBSCAN:
    @pytest.mark.parametrize("num_input_partitions", [1, 4, 7])
    def test_matches_sequential_reference(self, sc, num_input_partitions):
        pts = clustered_points(400, num_clusters=4, seed=51, noise_fraction=0.08)
        coords = [(p.x, p.y) for p in pts]
        rdd = sc.parallelize(
            [(STObject(p), i) for i, p in enumerate(pts)], num_input_partitions
        )
        eps, min_pts = 12.0, 5
        result = dict(
            (i, label) for _st, (i, label) in dbscan(rdd, eps, min_pts).collect()
        )
        ref_labels, ref_core = local_dbscan(coords, eps, min_pts)
        got_labels = [result[i] for i in range(len(pts))]
        assert _canonical_clusters(coords, got_labels, ref_core) == (
            _canonical_clusters(coords, ref_labels, ref_core)
        )
        # noise/cluster status matches exactly for core points
        for i, is_core in enumerate(ref_core):
            if is_core:
                assert (got_labels[i] == NOISE) == (ref_labels[i] == NOISE)

    def test_one_clustering_runs_three_jobs(self, sc):
        # The replication shuffle's map side, one job that clusters every
        # partition into the cache and reads back the "C" and "S" rows,
        # and the collect.
        pts = clustered_points(300, seed=57)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 4)
        grid = GridPartitioner.from_rdd(rdd, 3)
        sc.metrics.reset()
        dbscan(rdd, 12.0, 5, partitioner=grid).collect()
        assert sc.metrics.jobs_run == 3
        # 4 map tasks, then 9 local and 9 relabel tasks over the 3x3 grid.
        assert sc.metrics.tasks_launched == 4 + 9 + 9

    def test_every_input_appears_exactly_once(self, sc):
        pts = clustered_points(300, seed=52)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 5)
        rows = dbscan(rdd, eps=15.0, min_pts=4).collect()
        ids = sorted(i for _st, (i, _label) in rows)
        assert ids == list(range(300))

    def test_cluster_split_across_partitions_is_merged(self, sc):
        # One tight cluster straddling the boundary of a 2x2 grid at x=50.
        rng = random.Random(53)
        pts = [Point(50 + rng.uniform(-2, 2), 50 + rng.uniform(-2, 2)) for _ in range(80)]
        corners = [Point(1, 1), Point(99, 1), Point(1, 99), Point(99, 99)]
        all_pts = pts + corners
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(all_pts)], 4)
        grid = GridPartitioner([STObject(p) for p in all_pts], 2)
        result = dict(
            (i, label)
            for _st, (i, label) in dbscan(rdd, eps=2.0, min_pts=4, partitioner=grid).collect()
        )
        cluster_labels = {result[i] for i in range(80)}
        assert len(cluster_labels) == 1  # merged into a single cluster
        assert NOISE not in cluster_labels
        for i in range(80, 84):
            assert result[i] == NOISE

    def test_uses_rdds_spatial_partitioner(self, sc):
        pts = clustered_points(300, seed=54)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 5)
        bsp = BSPartitioner.from_rdd(rdd, max_cost_per_partition=80)
        partitioned = rdd.partition_by(bsp)
        rows = dbscan(partitioned, eps=12.0, min_pts=5).collect()
        assert len(rows) == 300

    def test_output_keeps_spatial_partitioner(self, sc):
        from repro.partitioners.base import SpatialPartitioner

        pts = clustered_points(200, seed=55)
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 4)
        result = dbscan(rdd, eps=12.0, min_pts=5)
        assert isinstance(result.partitioner, SpatialPartitioner)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_empty_rdd(self, sc, explicit):
        rdd = sc.parallelize([(STObject(Point(1, 1)), 0)], 2).filter(lambda _: False)
        grid = GridPartitioner([Point(0, 0), Point(9, 9)], 2) if explicit else None
        assert spatial(rdd).cluster(1.0, 1, grid).collect() == []

    def test_invalid_parameters(self, sc):
        rdd = sc.parallelize([(STObject("POINT (0 0)"), 1)], 1)
        with pytest.raises(ValueError):
            dbscan(rdd, eps=0.0, min_pts=3)
        with pytest.raises(ValueError):
            dbscan(rdd, eps=1.0, min_pts=0)

    def test_all_noise_dataset(self, sc):
        pts = [Point(i * 1000.0, 0) for i in range(20)]
        rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 4)
        rows = dbscan(rdd, eps=1.0, min_pts=3).collect()
        assert all(label == NOISE for _st, (_i, label) in rows)

    def test_single_partition_equals_local(self, sc):
        pts = blobs(seed=56)
        rdd = sc.parallelize(
            [(STObject(Point(x, y)), i) for i, (x, y) in enumerate(pts)], 1
        )
        bsp_single = BSPartitioner(
            [STObject(Point(x, y)) for x, y in pts], max_cost_per_partition=10**6
        )
        result = dict(
            (i, label)
            for _st, (i, label) in dbscan(rdd, 3.0, 5, partitioner=bsp_single).collect()
        )
        ref_labels, _ = local_dbscan(pts, 3.0, 5)
        # single partition: exact same clustering up to label names
        mapping = {}
        for i in range(len(pts)):
            got, want = result[i], ref_labels[i]
            assert (got == NOISE) == (want == NOISE)
            if want != NOISE:
                assert mapping.setdefault(want, got) == got


class TestDBSCANProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_local_dbscan_label_invariants(self, pts):
        labels, core = local_dbscan(pts, eps=10.0, min_pts=3)
        assert len(labels) == len(pts)
        # every core point is clustered
        for label, is_core in zip(labels, core):
            if is_core:
                assert label != NOISE
        # every cluster contains at least one core point
        clusters = {l for l in labels if l != NOISE}
        for cluster in clusters:
            assert any(
                core[i] for i, l in enumerate(labels) if l == cluster
            )

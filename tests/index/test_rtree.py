"""The STR-tree: construction, range queries, kNN -- vs brute force."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index import INDEX_MODES, build_partition_index
from repro.index.rtree import STRTree
from repro.temporal import Interval


def point_entries(n, seed=1, extent=100.0):
    rng = random.Random(seed)
    pts = [(rng.uniform(0, extent), rng.uniform(0, extent)) for _ in range(n)]
    return pts, [(Envelope.of_point(x, y), (x, y)) for x, y in pts]


class TestConstruction:
    def test_empty_tree(self):
        tree = STRTree([])
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.envelope.is_empty

    def test_single_entry(self):
        tree = STRTree([(Envelope.of_point(1, 2), "a")])
        assert len(tree) == 1
        assert tree.height == 1
        assert tree.query(Envelope(0, 0, 3, 3)) == ["a"]

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            STRTree([], node_capacity=1)

    def test_empty_envelopes_skipped(self):
        tree = STRTree([(Envelope.empty(), "ghost"), (Envelope.of_point(0, 0), "real")])
        assert len(tree) == 1

    def test_height_logarithmic(self):
        _, entries = point_entries(1000)
        tree = STRTree(entries, node_capacity=10)
        assert 2 <= tree.height <= 4

    def test_envelope_covers_entries(self):
        pts, entries = point_entries(200)
        tree = STRTree(entries)
        for x, y in pts:
            assert tree.envelope.contains_point(x, y)

    def test_iter_entries_complete(self):
        _, entries = point_entries(50)
        tree = STRTree(entries)
        assert sorted(item for _e, item in tree.iter_entries()) == sorted(
            item for _e, item in entries
        )


class TestRangeQuery:
    @pytest.mark.parametrize("capacity", [2, 4, 10, 50])
    def test_matches_brute_force(self, capacity):
        pts, entries = point_entries(500, seed=3)
        tree = STRTree(entries, node_capacity=capacity)
        for qx, qy, size in [(10, 10, 20), (50, 50, 5), (0, 0, 100), (90, 90, 0.5)]:
            box = Envelope(qx, qy, qx + size, qy + size)
            expected = sorted(p for p in pts if box.contains_point(*p))
            assert sorted(tree.query(box)) == expected

    def test_query_everything(self):
        pts, entries = point_entries(100)
        tree = STRTree(entries)
        assert len(tree.query(Envelope(-1, -1, 101, 101))) == 100

    def test_query_nothing(self):
        _, entries = point_entries(100)
        tree = STRTree(entries)
        assert tree.query(Envelope(200, 200, 300, 300)) == []

    def test_query_empty_envelope(self):
        _, entries = point_entries(10)
        assert STRTree(entries).query(Envelope.empty()) == []

    def test_query_point(self):
        tree = STRTree([(Envelope(0, 0, 10, 10), "box")])
        assert tree.query(Envelope.of_point(5, 5)) == ["box"]
        assert tree.query(Envelope.of_point(11, 5)) == []

    def test_rectangle_entries(self):
        rng = random.Random(5)
        boxes = []
        for i in range(200):
            x, y = rng.uniform(0, 90), rng.uniform(0, 90)
            boxes.append(Envelope(x, y, x + rng.uniform(1, 10), y + rng.uniform(1, 10)))
        tree = STRTree((b, i) for i, b in enumerate(boxes))
        query = Envelope(40, 40, 60, 60)
        expected = sorted(i for i, b in enumerate(boxes) if b.intersects(query))
        assert sorted(tree.query(query)) == expected


class TestNearest:
    def test_matches_brute_force(self):
        pts, entries = point_entries(400, seed=7)
        tree = STRTree(entries)
        for qx, qy in [(50, 50), (0, 0), (120, 50)]:
            for k in (1, 5, 20):
                result = tree.nearest(qx, qy, k)
                expected = sorted(pts, key=lambda p: math.hypot(p[0] - qx, p[1] - qy))[:k]
                assert [item for _d, item in result] == expected

    def test_distances_ascending(self):
        _, entries = point_entries(100)
        tree = STRTree(entries)
        result = tree.nearest(50, 50, 10)
        distances = [d for d, _ in result]
        assert distances == sorted(distances)

    def test_k_larger_than_size(self):
        _, entries = point_entries(5)
        tree = STRTree(entries)
        assert len(tree.nearest(0, 0, 100)) == 5

    def test_k_zero_or_empty_tree(self):
        _, entries = point_entries(5)
        assert STRTree(entries).nearest(0, 0, 0) == []
        assert STRTree([]).nearest(0, 0, 3) == []

    def test_exact_distance_callback_reranks(self):
        # Two boxes: envelope distance prefers A, exact prefers B.
        entries = [
            (Envelope(1, 0, 2, 1), "A"),
            (Envelope(1.5, 0, 2.5, 1), "B"),
        ]
        tree = STRTree(entries)
        exact = {"A": 10.0, "B": 0.5}
        result = tree.nearest(0, 0, 1, exact_distance=lambda item: exact[item])
        assert result == [(0.5, "B")]


# -- every index kind against brute force -------------------------------------
#
# The 2D tree, the 3D tree and the forest are faces over one kernel, so the
# same properties run over all three.  Integer coordinates make closed-bound
# touching boxes (in x, y and t) and exact-distance kNN ties the common case.

_cell = st.integers(min_value=0, max_value=8).map(float)
_span = st.integers(min_value=0, max_value=2).map(float)
_row = st.tuples(_cell, _cell, _span, _span, st.none() | st.tuples(_cell, _span))
_probe_time = st.none() | st.tuples(_cell, _span)


def _stobject(x, y, w, h, when):
    ring = [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)]
    geo = Polygon(ring) if w and h else LineString([(x, y), (x + w, y + h)]) if w or h else Point(x, y)
    return STObject(geo, None if when is None else Interval(when[0], when[0] + when[1]))


def _times_meet(entry_time, probe_time):
    """The combined semantics on the time axis: an untimed side meets only
    an untimed side, two timed sides meet on closed-bound overlap."""
    if entry_time is None or probe_time is None:
        return entry_time is probe_time
    return entry_time.start <= probe_time.end and probe_time.start <= entry_time.end


@pytest.mark.parametrize("kind", INDEX_MODES)
class TestEveryKindAgainstBruteForce:
    @given(
        st.lists(_row, max_size=60),
        st.sampled_from([2, 3, 10]),
        st.tuples(_cell, _cell, _span, _span),
        _probe_time,
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_st_probes(self, kind, rows, capacity, box, when):
        entries = [(_stobject(*row), i) for i, row in enumerate(rows)]
        tree = build_partition_index(entries, capacity, kind)
        assert len(tree) == len(entries)
        region = Envelope(box[0], box[1], box[0] + box[2], box[1] + box[3])
        probe_time = None if when is None else Interval(when[0], when[0] + when[1])
        spatial = [i for st_obj, i in entries if st_obj.geo.envelope.intersects(region)]
        assert sorted(kv[1] for kv in tree.query(region)) == spatial
        candidates, pruned = tree.query_st(region, probe_time)
        got = sorted(kv[1] for kv in candidates)
        timed = {i for i in spatial if entries[i][0].time is not None}
        if kind == "spatial":  # time is left to refinement
            assert (got, pruned) == (spatial, 0)
        elif kind == "3d":  # box test in x, y and t; untimed rows in the 2D tree
            in_time = [i for i in spatial if _times_meet(entries[i][0].time, probe_time)]
            assert (got, pruned) == (in_time, 0)
        elif probe_time is None:  # the forest keeps untimed entries apart
            assert (got, pruned) == (sorted(set(spatial) - timed), tree.num_slices)
        else:  # ... and routes a timed probe to whole slices
            in_time = {i for i in timed if _times_meet(entries[i][0].time, probe_time)}
            assert in_time <= set(got) <= timed
            assert 0 <= pruned <= tree.num_slices
            assert pruned < tree.num_slices or not got
        assert sorted(kv[1] for _env, kv in tree.iter_entries()) == list(range(len(entries)))

    @given(
        st.lists(_row, max_size=60),
        st.sampled_from([2, 3, 10]),
        _cell,
        _cell,
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_knn_distances_with_ties(self, kind, rows, capacity, x, y, k):
        entries = [(_stobject(*row), i) for i, row in enumerate(rows)]
        tree = build_partition_index(entries, capacity, kind)
        distance_of = {
            i: st_obj.geo.envelope.distance_to_point(x, y) for st_obj, i in entries
        }
        got = tree.nearest(x, y, k)
        # With ties any of the equidistant items may be reported, but the
        # distances are exact and each belongs to the item it comes with.
        assert [d for d, _kv in got] == sorted(distance_of.values())[:k]
        assert all(d == distance_of[kv[1]] for d, kv in got)
        assert len({kv[1] for _d, kv in got}) == len(got)

    def test_empty_and_single_entry(self, kind):
        empty = build_partition_index([], 2, kind)
        assert len(empty) == 0 and empty.envelope.is_empty
        assert empty.query(Envelope(0, 0, 9, 9)) == []
        assert empty.query_st(Envelope(0, 0, 9, 9), Interval(0, 1)) == ([], 0)
        assert empty.nearest(0, 0, 3) == []
        entry = (_stobject(1.0, 2.0, 0.0, 0.0, (5.0, 1.0)), "only")
        single = build_partition_index([entry], 2, kind)
        assert single.envelope == Envelope(1, 2, 1, 2)
        assert single.query_st(Envelope(1, 2, 1, 2), Interval(6, 7))[0] == [entry]
        assert single.nearest(4, 6, 5) == [(5.0, entry)]

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
from tests.index import assert_matches_oracle, mixed_rows, nearest_queries, probe, square


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


class TestNearestRefinesLazily:
    """Exact distances are deferred until an item tops the heap; answers,
    ties included, are those of refining every item of an opened leaf."""

    @pytest.mark.parametrize("capacity", [2, 10])
    def test_distances_equal_a_scan(self, capacity):
        rows = mixed_rows(120, seed=capacity)
        rows += [(STObject(Point(5.0, 5.0)), 120 + i) for i in range(6)]  # duplicates
        tree = build_partition_index(rows, capacity)
        for geo, k in nearest_queries(12, seed=capacity) + [(Point(5.0, 5.0), 3)]:
            assert_matches_oracle(tree, rows, geo, k)
        assert_matches_oracle(tree, rows, Point(30.0, -4.5), len(rows) + 5)

    def test_empty_tree_and_k_past_the_size(self):
        assert probe(build_partition_index([], 4), Point(1.0, 1.0), 3) == []
        rows = mixed_rows(7, seed=3)
        tree = build_partition_index(rows, 4)
        assert_matches_oracle(tree, rows, Polygon(square(2.0, 2.0, 3.0, 3.0)), 20)

    #: ``(distance, id)`` per query, recorded with refinement at leaf
    #: opening.  The squares' bounds are an ulp over some exact
    #: distances here (rows on a corner's diagonal), so a key that lets
    #: the rounding through pops a tied row too late (id 4 for id 14).
    GOLDEN = [
        [(0.0, 57), (0.0, 48), (0.0, 49), (1.0, 52), (1.0, 42), (2.0, 16), (2.0, 46),
         (2.23606797749979, 35)],
        [(0.5, 9), (0.7071067811865476, 37), (1.5, 29), (1.5811388300841898, 21),
         (1.5811388300841898, 0), (2.5495097567963922, 17), (2.9154759474226504, 19),
         (3.5355339059327378, 13)],
        [(0.0, 22), (0.5, 49), (0.5, 52), (1.5, 39), (1.5, 20), (2.9154759474226504, 31),
         (2.9154759474226504, 46), (3.5, 48), (3.5355339059327378, 38),
         (3.5355339059327378, 30), (3.5355339059327378, 14)],
        [(1.118033988749895, 22), (1.8027756377319946, 20), (2.5, 39), (3.0413812651491097, 4),
         (4.6097722286464435, 38), (4.6097722286464435, 5), (4.716990566028302, 49),
         (4.716990566028302, 52), (5.5901699437494745, 31), (6.020797289396148, 33),
         (6.5, 36), (6.5, 6)],
        [(1.5, 58)],
        [(0.0, 7), (0.0, 41), (0.5, 45), (1.0, 59)],
    ]

    def test_golden_answers_and_tie_order(self):
        tree = build_partition_index(mixed_rows(60, seed=52), 10)
        got = [
            [(d, kv[1]) for d, kv in probe(tree, geo, k)]
            for geo, k in nearest_queries(6, seed=1052)
        ]
        assert got == self.GOLDEN

    def test_refines_about_k_items(self):
        _, entries = point_entries(1000, seed=4)
        tree = STRTree(entries)
        calls = []

        def exact(item):
            calls.append(item)
            return math.hypot(item[0] - 50.0, item[1] - 50.0)

        assert [item for _d, item in tree.nearest(50.0, 50.0, 10, exact)] == [
            item for _d, item in tree.nearest(50.0, 50.0, 10)
        ]
        assert len(calls) <= 2 * 10


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

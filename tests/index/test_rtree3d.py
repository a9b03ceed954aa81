"""The 3D (x, y, t) STR tree vs brute force."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stobject import STObject
from repro.core.summaries import temporal_extent_of
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index import build_partition_index
from repro.index.rtree3d import STRTree3D
from repro.temporal import Interval
from tests.index import assert_matches_oracle, mixed_rows, nearest_queries


def make_entries(n, seed=1, untimed_every=None, span=1000.0):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if untimed_every and i % untimed_every == 0:
            rows.append((STObject(Point(x, y)), i))
        else:
            start = rng.uniform(0, span)
            rows.append((STObject(Point(x, y), Interval(start, start + 5)), i))
    return rows


REGION = Envelope(20, 20, 70, 70)
INF = math.inf


def boxed(x0, y0, x1, y1, time=None):
    ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    return STObject(Polygon(ring), time)


class TestBoxing:
    """What the (x, y, t) boxes do, seen through the tree's own answers."""

    def test_closed_bounds_in_x_y_and_t(self):
        row = (boxed(0, 0, 10, 10, Interval(0, 10)), "a")
        tree = STRTree3D.for_stobjects([row])
        touching = tree.query_st(Envelope(10, 10, 20, 20), Interval(10, 20))
        assert touching == [row]
        assert tree.query_st(Envelope(10.1, 0, 20, 10), Interval(0, 10)) == []
        assert tree.query_st(Envelope(0, 10.1, 10, 20), Interval(0, 10)) == []
        assert tree.query_st(Envelope(0, 0, 10, 10), Interval(10.1, 20)) == []

    def test_untimed_entries_stay_out_of_the_3d_boxes(self):
        rows = [
            (boxed(0, 0, 1, 1), "untimed"),
            (boxed(0, 0, 1, 1, Interval(0, 10)), "timed"),
        ]
        tree = STRTree3D.for_stobjects(rows)
        region = Envelope(0, 0, 1, 1)
        # Under the combined semantics each probe reaches its own kind.
        assert [kv[1] for kv in tree.query_st(region, None)] == ["untimed"]
        assert [kv[1] for kv in tree.query_st(region, Interval(0, 1))] == ["timed"]
        assert tree.query_st(region, Interval(500, 600)) == []
        # The 3D root's t-range is the timed entries' alone: finite.
        assert tree._root[0][4:] == (0, 10)
        assert len(tree) == 2 and tree.untimed_count == 1

    def test_spatial_projection_for_nearest_and_envelope(self):
        rows = [
            (boxed(0, 0, 10, 10, Interval(0, 1)), "near"),
            (boxed(13, 14, 20, 20, Interval(900, 901)), "far"),
        ]
        tree = STRTree3D.for_stobjects(rows)
        assert tree.envelope == Envelope(0, 0, 20, 20)
        # Distance is to the (x, y) projection; time plays no part.
        got = [(d, kv[1]) for d, kv in tree.nearest(10, 10, k=2)]
        assert got == [(0.0, "near"), (pytest.approx(5.0), "far")]


class TestQueries:
    def test_timed_query_matches_brute_force(self):
        rows = make_entries(600, seed=2)
        tree = STRTree3D.for_stobjects(rows, node_capacity=8)
        for lo in (0.0, 300.0, 950.0):
            window = Interval(lo, lo + 50)
            got = {kv[1] for kv in tree.query_st(REGION, window)}
            expected = {
                kv[1]
                for kv in rows
                if kv[0].geo.envelope.intersects(REGION)
                and kv[0].time.start <= window.end
                and window.start <= kv[0].time.end
            }
            assert got == expected  # points: candidates are exact

    def test_untimed_query_reaches_everything_spatial(self):
        rows = make_entries(300, seed=3, untimed_every=4)
        tree = STRTree3D.for_stobjects(rows)
        got = {kv[1] for kv in tree.query(REGION)}
        expected = {kv[1] for kv in rows if kv[0].geo.envelope.intersects(REGION)}
        assert got == expected

    def test_timed_query_skips_untimed_entries(self):
        # Untimed entries sit in the 2D tree, which a timed probe never
        # opens: a mixed pair cannot match, so none is a candidate.
        rows = make_entries(200, seed=4, untimed_every=3)
        tree = STRTree3D.for_stobjects(rows)
        got = {kv[1] for kv in tree.query_st(REGION, Interval(0, 1000))}
        timed_hits = {
            kv[1]
            for kv in rows
            if kv[0].time is not None and kv[0].geo.envelope.intersects(REGION)
        }
        assert timed_hits == got

    def test_half_timed_probes_reach_only_their_own_kind(self):
        rows = make_entries(800, seed=12, untimed_every=2)
        tree = STRTree3D.for_stobjects(rows, node_capacity=6)
        untimed = {kv[1] for kv in rows if kv[0].time is None}
        assert len(untimed) == 400 and tree.untimed_count == 400
        for window in (Interval(0, 5), Interval(400, 450), Interval(-10, 2000)):
            got = {kv[1] for kv in tree.query_st(REGION, window)}
            assert not got & untimed
            assert got == {
                kv[1]
                for kv in rows
                if kv[0].time is not None
                and kv[0].geo.envelope.intersects(REGION)
                and kv[0].time.start <= window.end
                and window.start <= kv[0].time.end
            }
        got = {kv[1] for kv in tree.query_st(REGION, None)}
        assert got == {
            kv[1] for kv in rows if kv[1] in untimed and kv[0].geo.envelope.intersects(REGION)
        }

    def test_empty(self):
        tree = STRTree3D([])
        assert len(tree) == 0
        assert tree.query_st(REGION, Interval(0, 1)) == []
        assert temporal_extent_of(tree) == (None, 0)
        assert tree.nearest(0, 0, 3) == []

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            STRTree3D([], node_capacity=1)


class TestTemporalExtent:
    """The partition summaries' one scan covers both tree kinds: a 3D
    tree's leaf walk holds the timed and the untimed root's leaves."""

    def test_all_timed(self):
        rows = make_entries(150, seed=5)
        extent, timed = temporal_extent_of(STRTree3D.for_stobjects(rows))
        assert timed == 150
        assert extent == Interval(
            min(kv[0].time.start for kv in rows), max(kv[0].time.end for kv in rows)
        )

    def test_mixed_untimed_scans_for_extent(self):
        rows = make_entries(150, seed=6, untimed_every=5)
        extent, timed = temporal_extent_of(STRTree3D.for_stobjects(rows))
        stamps = [kv[0].time for kv in rows if kv[0].time is not None]
        assert timed == len(stamps) == 120
        assert extent == Interval(min(t.start for t in stamps), max(t.end for t in stamps))

    def test_summaries_scan_a_spatial_tree(self):
        rows = make_entries(100, seed=10, untimed_every=10)
        tree = build_partition_index(rows, mode="spatial")
        assert temporal_extent_of(tree) == temporal_extent_of(
            STRTree3D.for_stobjects(rows)
        )
        assert temporal_extent_of(tree)[1] == 90

    def test_all_untimed(self):
        rows = make_entries(40, seed=7, untimed_every=1)
        assert temporal_extent_of(STRTree3D.for_stobjects(rows)) == (None, 0)


class TestStructure:
    def test_items_hold_timed_and_untimed_rows(self):
        rows = make_entries(120, seed=8, untimed_every=6)
        tree = STRTree3D.for_stobjects(rows)
        assert sorted(kv[1] for kv in tree.items()) == list(range(120))

    def test_nearest_matches_brute_force(self):
        rows = make_entries(400, seed=9)
        tree = STRTree3D.for_stobjects(rows, node_capacity=8)
        got = tree.nearest(50.0, 50.0, k=9)
        brute = sorted(
            (
                math.hypot(
                    kv[0].geo.envelope.min_x - 50.0,
                    kv[0].geo.envelope.min_y - 50.0,
                ),
                kv[1],
            )
            for kv in rows
        )[:9]
        assert [pair[1][1] for pair in got] == [pair[1] for pair in brute]

    def test_nearest_with_exact_distances_matches_a_scan(self):
        # Points, lines and boxes, 70% timed: both trees hold some.
        rows = mixed_rows(120, seed=5, timed_share=0.7)
        tree = STRTree3D.for_stobjects(rows, node_capacity=4)
        for geo, k in nearest_queries(12, seed=5):
            assert_matches_oracle(tree, rows, geo, k)
        assert_matches_oracle(tree, rows, Point(3.0, 3.0), len(rows) + 1)

    def test_nearest_merges_the_timed_and_untimed_trees(self):
        # The untimed entries sit nearer the probe than every timed one,
        # so the untimed root must be expanded first.
        timed = [(boxed(50 + i, 50, 51 + i, 51, Interval(i, i + 1)), i) for i in range(30)]
        untimed = [(boxed(i, 0, i + 0.5, 0.5), 100 + i) for i in range(30)]
        tree = STRTree3D.for_stobjects(timed + untimed, node_capacity=4)
        got = [kv[1] for _d, kv in tree.nearest(0.0, 0.0, k=5)]
        assert got == [100, 101, 102, 103, 104]
        assert [kv[1] for _d, kv in tree.nearest(51.2, 50.5, k=2)] == [1, 0]

    def test_deep_tree_queries(self):
        rows = make_entries(3000, seed=10)
        tree = STRTree3D.for_stobjects(rows, node_capacity=4)
        window = Interval(200, 260)
        got = {kv[1] for kv in tree.query_st(REGION, window)}
        expected = {
            kv[1]
            for kv in rows
            if kv[0].geo.envelope.intersects(REGION)
            and kv[0].time.start <= window.end
            and window.start <= kv[0].time.end
        }
        assert got == expected


# A small integer grid makes instants, duplicate starts and zero-extent
# boxes common; a long extent puts a column's ends out of start order,
# and the open ends put infinities in its bounds.
_EXTENTS = (0.0, 0.0, 1.0, 6.0)
_OPEN_TIMES = ((0.0, INF), (-INF, 4.0), (-INF, INF), (INF, INF), (-INF, -INF))


#: Per row field, how many values it takes: x, y, w, h, t on a small
#: grid, and the time's kind (None, instant, interval, open).
_FIELDS = (9, 9, 4, 4, 9, 10)


def _row(code):
    """``(x, y, w, h, time)`` decoded from one integer: one draw per row
    keeps a few hundred examples of a hundred rows fast."""
    fields = []
    for size in _FIELDS:
        code, field = divmod(code, size)
        fields.append(field)
    x, y, w, h, t, kind = fields
    if kind == 0:
        time = None
    elif kind <= 2:
        time = (float(t), float(t))
    elif kind <= 8:
        time = (float(t), t + _EXTENTS[kind % 4])
    else:
        time = _OPEN_TIMES[t % len(_OPEN_TIMES)]
    return float(x), float(y), _EXTENTS[w], _EXTENTS[h], time


_rows_of = st.integers(min_value=0, max_value=math.prod(_FIELDS) - 1).map(_row)


def _halves(values):
    """A sorted axis' lower and upper half, sharing the middle value:
    a bound drawn from each makes an ordered pair."""
    middle = len(values) // 2
    return values[: middle + 1], values[middle:]


@st.composite
def _st_cases(draw):
    """``(rows, region, time)``: rows ``(x, y, w, h, time)``, some drawn
    twice, and a probe whose bounds come from the rows' own bounds."""
    size = draw(st.integers(min_value=0, max_value=60))
    rows = draw(st.lists(_rows_of, min_size=size, max_size=size))
    rows += rows[: draw(st.integers(min_value=0, max_value=len(rows)))]
    xs = sorted({0.0, 15.0} | {v for x, _y, w, _h, _t in rows for v in (x, x + w)})
    ys = sorted({0.0, 15.0} | {v for _x, y, _w, h, _t in rows for v in (y, y + h)})
    ts = sorted({0.0, 15.0} | {v for *_, t in rows if t is not None for v in t if abs(v) < INF})
    x0, x1, y0, y1, t0, t1 = (
        draw(st.sampled_from(half)) for axis in (xs, ys, ts) for half in _halves(axis)
    )
    empty = draw(st.integers(min_value=0, max_value=9)) == 0
    region = Envelope.empty() if empty else Envelope(x0, y0, x1, y1)
    time = draw(
        st.sampled_from(
            [None, Interval(t0, t1), Interval(t0, t0), Interval(0.0, INF),
             Interval(-INF, t1), Interval(-INF, INF), Interval(INF, INF)]
        )
    )
    return rows, region, time


class TestColumnSearchOracle:
    """A timed probe reads a slice of each column, found by bisecting its
    starts and its running latest end; whatever the slice skips must be
    a row no scan returns."""

    @given(_st_cases(), st.sampled_from([2, 3, 4, 10]))
    @settings(max_examples=200, deadline=None)
    def test_query_st_returns_what_a_scan_returns(self, case, capacity):
        rows, region, time = case
        entries = []
        for i, (x, y, w, h, row_time) in enumerate(rows):
            box = (x, y, x + w, y + h)
            entries.append((box if row_time is None else (*box, *row_time), i))
        tree = STRTree3D(entries, capacity)
        want = []
        if not region.is_empty:
            for box, i in entries:
                if (len(box) == 6) != (time is not None):
                    continue  # combined semantics: a mixed pair never matches
                if not (box[0] <= region.max_x and region.min_x <= box[2]):
                    continue
                if not (box[1] <= region.max_y and region.min_y <= box[3]):
                    continue
                if time is None or (box[4] <= time.end and time.start <= box[5]):
                    want.append(i)
        assert Counter(tree.query_st(region, time)) == Counter(want)

"""The 3D (x, y, t) STR tree vs brute force."""

import math
import random

import pytest

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.rtree3d import STRTree3D
from repro.temporal import Interval


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


def boxed(x0, y0, x1, y1, time=None):
    ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    return STObject(Polygon(ring), time)


class TestBoxing:
    """What the (x, y, t) boxes do, seen through the tree's own answers."""

    def test_closed_bounds_in_x_y_and_t(self):
        row = (boxed(0, 0, 10, 10, Interval(0, 10)), "a")
        tree = STRTree3D.for_stobjects([row])
        touching = tree.query_st(Envelope(10, 10, 20, 20), Interval(10, 20))
        assert touching == ([row], 0)
        assert tree.query_st(Envelope(10.1, 0, 20, 10), Interval(0, 10)) == ([], 0)
        assert tree.query_st(Envelope(0, 10.1, 10, 20), Interval(0, 10)) == ([], 0)
        assert tree.query_st(Envelope(0, 0, 10, 10), Interval(10.1, 20)) == ([], 0)

    def test_untimed_entries_are_unbounded_in_t(self):
        rows = [
            (boxed(0, 0, 1, 1), "untimed"),
            (boxed(0, 0, 1, 1, Interval(0, 10)), "timed"),
        ]
        tree = STRTree3D.for_stobjects(rows)
        region = Envelope(0, 0, 1, 1)
        # An untimed probe is unbounded as well: it reaches every entry.
        everything, _pruned = tree.query_st(region, None)
        assert sorted(kv[1] for kv in everything) == ["timed", "untimed"]
        # A probe far outside the timed entry's range still meets the
        # unbounded box (refinement rejects the mixed pair later).
        late, _pruned = tree.query_st(region, Interval(500, 600))
        assert [kv[1] for kv in late] == ["untimed"]
        assert tree.temporal_extent == Interval(0, 10)

    def test_spatial_projection_for_nearest_and_iter_entries(self):
        rows = [
            (boxed(0, 0, 10, 10, Interval(0, 1)), "near"),
            (boxed(13, 14, 20, 20, Interval(900, 901)), "far"),
        ]
        tree = STRTree3D.for_stobjects(rows)
        assert sorted((kv[1], env) for env, kv in tree.iter_entries()) == [
            ("far", Envelope(13, 14, 20, 20)),
            ("near", Envelope(0, 0, 10, 10)),
        ]
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
            got = {kv[1] for kv in tree.query_st(REGION, window)[0]}
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

    def test_timed_query_skips_untimed_boxes_never(self):
        # Untimed entries are boxed unbounded, so a timed probe still
        # admits them as candidates; refinement rejects them later.
        rows = make_entries(200, seed=4, untimed_every=3)
        tree = STRTree3D.for_stobjects(rows)
        got = {kv[1] for kv in tree.query_st(REGION, Interval(0, 1000))[0]}
        spatial_hits = {
            kv[1] for kv in rows if kv[0].geo.envelope.intersects(REGION)
        }
        assert spatial_hits == got

    def test_empty(self):
        tree = STRTree3D([])
        assert len(tree) == 0
        assert tree.query_st(REGION, Interval(0, 1)) == ([], 0)
        assert tree.temporal_extent is None
        assert tree.nearest(0, 0, 3) == []

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            STRTree3D([], node_capacity=1)


class TestTemporalExtent:
    def test_all_timed(self):
        rows = make_entries(150, seed=5)
        tree = STRTree3D.for_stobjects(rows)
        extent = tree.temporal_extent
        starts = [kv[0].time.start for kv in rows]
        ends = [kv[0].time.end for kv in rows]
        assert extent.start == pytest.approx(min(starts))
        assert extent.end == pytest.approx(max(ends))

    def test_mixed_untimed_scans_for_extent(self):
        rows = make_entries(150, seed=6, untimed_every=5)
        tree = STRTree3D.for_stobjects(rows)
        extent = tree.temporal_extent
        timed = [kv[0].time for kv in rows if kv[0].time is not None]
        assert extent.start == pytest.approx(min(t.start for t in timed))
        assert extent.end == pytest.approx(max(t.end for t in timed))

    def test_all_untimed(self):
        rows = make_entries(40, seed=7, untimed_every=1)
        tree = STRTree3D.for_stobjects(rows)
        assert tree.temporal_extent is None


class TestStructure:
    def test_iter_entries_projects_2d(self):
        rows = make_entries(120, seed=8, untimed_every=6)
        tree = STRTree3D.for_stobjects(rows)
        entries = list(tree.iter_entries())
        assert sorted(kv[1] for _env, kv in entries) == list(range(120))
        for env, _kv in entries:
            assert isinstance(env, Envelope)

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

    def test_deep_tree_queries(self):
        rows = make_entries(3000, seed=10)
        tree = STRTree3D.for_stobjects(rows, node_capacity=4)
        window = Interval(200, 260)
        got = {kv[1] for kv in tree.query_st(REGION, window)[0]}
        expected = {
            kv[1]
            for kv in rows
            if kv[0].geo.envelope.intersects(REGION)
            and kv[0].time.start <= window.end
            and window.start <= kv[0].time.end
        }
        assert got == expected

"""The time-sliced R-tree forest vs brute force."""

import random

import pytest

from repro.core.stobject import STObject
from repro.core.summaries import temporal_extent_of
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.index.temporal_forest import (
    DEFAULT_MAX_SLICES,
    TimeSlicedForest,
    auto_slice_count,
)
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


def brute_force(rows, region, time):
    out = []
    for kv in rows:
        key = kv[0]
        if not key.geo.envelope.intersects(region):
            continue
        if time is None:
            if key.time is None:
                out.append(kv[1])
        elif key.time is not None and key.time.start <= time.end and time.start <= key.time.end:
            out.append(kv[1])
    return sorted(out)


REGION = Envelope(20, 20, 70, 70)


class TestConstruction:
    def test_empty(self):
        forest = TimeSlicedForest([])
        assert len(forest) == 0
        assert forest.num_slices == 0
        assert forest.temporal_extent is None
        assert forest.query(REGION) == []
        assert forest.query_st(REGION, Interval(0, 10)) == ([], 0)

    def test_slice_count_respected(self):
        rows = make_entries(300)
        forest = TimeSlicedForest(rows, time_slices=5)
        assert forest.num_slices == 5

    def test_auto_slice_count_bounds(self):
        assert auto_slice_count(0, 10) == 1
        assert auto_slice_count(5, 10) == 1
        assert 1 <= auto_slice_count(10_000, 10) <= DEFAULT_MAX_SLICES
        assert auto_slice_count(10**9, 10) == DEFAULT_MAX_SLICES

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TimeSlicedForest([], node_capacity=1)
        with pytest.raises(ValueError):
            TimeSlicedForest([], time_slices=0)

    def test_slice_extents_cover_members(self):
        rows = make_entries(400, seed=7)
        forest = TimeSlicedForest(rows, time_slices=8)
        covered = 0
        for kv in rows:
            time = kv[0].time
            assert any(
                extent.start <= time.start and time.end <= extent.end
                for extent in forest.slice_extents
            )
            covered += 1
        assert covered == 400


class TestQueries:
    def test_timed_query_matches_brute_force(self):
        rows = make_entries(500, seed=2)
        forest = TimeSlicedForest(rows, time_slices=8)
        for lo in (0.0, 250.0, 700.0, 990.0):
            window = Interval(lo, lo + 60)
            candidates, pruned = forest.query_st(REGION, window)
            got = sorted(kv[1] for kv in candidates)
            expected_superset = brute_force(rows, REGION, window)
            # Candidates are a superset of the exact answer (boxes only)...
            assert set(expected_superset) <= set(got)
            # ...but never include a slice that cannot intersect in time.
            for kv in candidates:
                assert kv[0].time is not None
            assert pruned + len(forest.slice_extents) >= pruned

    def test_selective_window_prunes_slices(self):
        rows = make_entries(2000, seed=3)
        forest = TimeSlicedForest(rows, time_slices=10)
        _cands, pruned = forest.query_st(REGION, Interval(100, 150))
        assert pruned >= 7  # a 5% window should skip most of 10 slices

    def test_untimed_query_reaches_only_untimed(self):
        rows = make_entries(400, seed=4, untimed_every=5)
        forest = TimeSlicedForest(rows)
        candidates, pruned = forest.query_st(REGION, None)
        assert pruned == forest.num_slices
        assert all(kv[0].time is None for kv in candidates)
        expected = brute_force(rows, REGION, None)
        assert set(expected) <= {kv[1] for kv in candidates}

    def test_query_spatial_only_sees_everything(self):
        rows = make_entries(300, seed=5, untimed_every=4)
        forest = TimeSlicedForest(rows, time_slices=6)
        got = sorted(kv[1] for kv in forest.query(REGION))
        expected = sorted(
            kv[1] for kv in rows if kv[0].geo.envelope.intersects(REGION)
        )
        assert got == expected

    def test_iter_entries_round_trip(self):
        rows = make_entries(200, seed=6, untimed_every=7)
        forest = TimeSlicedForest(rows)
        assert sorted(kv[1] for _env, kv in forest.iter_entries()) == list(range(200))

    def test_nearest_matches_brute_force(self):
        rows = make_entries(300, seed=8, untimed_every=6)
        forest = TimeSlicedForest(rows, time_slices=5)
        got = forest.nearest(50.0, 50.0, k=7)
        # Brute force via center distance (points: envelope == point).
        import math

        brute = sorted(
            (
                math.hypot(kv[0].geo.envelope.min_x - 50.0, kv[0].geo.envelope.min_y - 50.0),
                kv[1],
            )
            for kv in rows
        )[:7]
        assert [pair[1][1] for pair in got] == [pair[1] for pair in brute]


class TestTemporalExtentOf:
    def test_forest(self):
        rows = make_entries(100, seed=9, untimed_every=10)
        extent, timed = temporal_extent_of(TimeSlicedForest(rows))
        assert timed == sum(kv[0].time is not None for kv in rows) < len(rows)
        starts = [kv[0].time.start for kv in rows if kv[0].time is not None]
        ends = [kv[0].time.end for kv in rows if kv[0].time is not None]
        assert extent.start == min(starts)
        assert extent.end == max(ends)

    def test_plain_strtree(self):
        from repro.index.rtree import STRTree

        rows = make_entries(100, seed=10)
        tree = STRTree(((kv[0].geo.envelope, kv) for kv in rows))
        extent, timed = temporal_extent_of(tree)
        assert timed == len(rows)
        assert extent is not None

    def test_all_untimed(self):
        rows = make_entries(50, seed=11, untimed_every=1)
        extent, timed = temporal_extent_of(TimeSlicedForest(rows))
        assert extent is None
        assert timed == 0

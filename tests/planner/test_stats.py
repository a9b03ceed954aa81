"""The reservoir-sampling statistics collector and its estimators."""

import random

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.planner import collect_statistics
from repro.temporal import Interval


def make_rdd(sc, n=800, partitions=4, seed=21, untimed_every=None, clustered=False):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        if clustered:
            x, y = rng.uniform(0, 20), rng.uniform(0, 20)
        else:
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if untimed_every and i % untimed_every == 0:
            rows.append((STObject(Point(x, y)), i))
        else:
            start = rng.uniform(0, 1000)
            rows.append((STObject(Point(x, y), Interval(start, start + 10)), i))
    return sc.parallelize(rows, partitions)


class TestCollection:
    def test_exact_counts(self, sc):
        stats = collect_statistics(make_rdd(sc, n=800, untimed_every=4))
        assert stats.count == 800
        assert stats.num_partitions == 4
        assert stats.timed_count == 600
        assert stats.timed_fraction == 0.75

    def test_extents_are_exact(self, sc):
        rdd = make_rdd(sc, n=300)
        stats = collect_statistics(rdd)
        keys = [kv[0] for kv in rdd.collect()]
        assert stats.spatial_extent.min_x == min(k.geo.envelope.min_x for k in keys)
        assert stats.spatial_extent.max_y == max(k.geo.envelope.max_y for k in keys)
        assert stats.temporal_extent.start == min(k.time.start for k in keys)
        assert stats.temporal_extent.end == max(k.time.end for k in keys)

    def test_all_untimed_has_no_temporal_extent(self, sc):
        stats = collect_statistics(make_rdd(sc, n=100, untimed_every=1))
        assert stats.temporal_extent is None
        assert stats.timed_fraction == 0.0

    def test_sample_is_bounded_and_deterministic(self, sc):
        rdd = make_rdd(sc, n=5000, partitions=4)
        stats = collect_statistics(rdd, sample_target=100)
        # ceil(100 / 4) = 25 per partition, 4 partitions.
        assert len(stats.sample) == 100
        again = collect_statistics(rdd, sample_target=100)
        assert [k.geo.wkt for k in stats.sample] == [k.geo.wkt for k in again.sample]

    def test_empty_rdd(self, sc):
        stats = collect_statistics(sc.parallelize([], 2))
        assert stats.count == 0
        assert stats.timed_fraction == 0.0
        assert stats.temporal_extent is None
        assert stats.spatial_selectivity(Envelope(0, 0, 1, 1)) == 1.0
        assert stats.temporal_selectivity(Interval(0, 1)) == 1.0


class TestEstimators:
    def test_spatial_selectivity_tracks_truth(self, sc):
        rdd = make_rdd(sc, n=2000)
        stats = collect_statistics(rdd, sample_target=400)
        region = Envelope(0, 0, 50, 50)  # ~25% of a uniform square
        truth = sum(
            1 for kv in rdd.collect() if kv[0].geo.envelope.intersects(region)
        ) / 2000
        assert abs(stats.spatial_selectivity(region) - truth) < 0.1

    def test_temporal_selectivity_tracks_truth(self, sc):
        rdd = make_rdd(sc, n=2000)
        stats = collect_statistics(rdd, sample_target=400)
        window = Interval(100, 200)  # ~10% of the history
        keys = [kv[0] for kv in rdd.collect()]
        truth = (
            sum(
                1
                for k in keys
                if k.time.start <= window.end and window.start <= k.time.end
            )
            / 2000
        )
        assert abs(stats.temporal_selectivity(window) - truth) < 0.1

    def test_untimed_query_selectivity_is_untimed_fraction(self, sc):
        stats = collect_statistics(make_rdd(sc, n=1000, untimed_every=5))
        assert abs(stats.temporal_selectivity(None) - 0.2) < 0.1


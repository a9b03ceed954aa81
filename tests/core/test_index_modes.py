"""All index modes must agree with the naive scan, timed and untimed."""

import random

import pytest

from repro.core.filter import filter_live_index
from repro.core.predicates import INTERSECTS
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.core.summaries import (
    known_summaries,
    partition_summaries,
    partitions_matching,
)
from repro.geometry.point import Point
from repro.index import INDEX_MODES
from repro.partitioners import GridPartitioner
from repro.partitioners.temporal import TemporalRangePartitioner
from repro.temporal import Instant, Interval


def make_rdd(context, n=600, partitions=4, seed=11, untimed_every=7):
    """Long-history points: mostly timed, a sprinkle of untimed rows."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if untimed_every and i % untimed_every == 0:
            rows.append((STObject(Point(x, y)), i))
        else:
            start = rng.uniform(0, 10_000)
            rows.append((STObject(Point(x, y), Interval(start, start + 20)), i))
    return context.parallelize(rows, partitions)


TIMED_QUERY = STObject(
    "POLYGON((15 15, 75 15, 75 75, 15 75, 15 15))", Interval(1000, 1400)
)
UNTIMED_QUERY = STObject("POLYGON((15 15, 75 15, 75 75, 15 75, 15 15))")
INSTANT_QUERY = STObject(
    "POLYGON((15 15, 75 15, 75 75, 15 75, 15 15))", Instant(5000)
)


def ids(result):
    return sorted(kv[1] for kv in result.collect())


class TestLiveModeEquality:
    @pytest.mark.parametrize("mode", INDEX_MODES)
    @pytest.mark.parametrize("query", [TIMED_QUERY, UNTIMED_QUERY, INSTANT_QUERY])
    def test_mode_equals_naive_sequential(self, sc, mode, query):
        rdd = make_rdd(sc)
        naive = ids(spatial(rdd).intersects(query))
        indexed = ids(spatial(rdd).live_index(order=8, mode=mode).intersects(query))
        assert indexed == naive

    @pytest.mark.parametrize("mode", INDEX_MODES)
    def test_mode_equals_naive_threaded(self, threaded_sc, mode):
        rdd = make_rdd(threaded_sc)
        naive = ids(spatial(rdd).intersects(TIMED_QUERY))
        indexed = ids(
            spatial(rdd).live_index(order=8, mode=mode).intersects(TIMED_QUERY)
        )
        assert indexed == naive

    def test_temporal_first_equals_default(self, sc):
        rdd = make_rdd(sc)
        default = ids(spatial(rdd).live_index(order=8).intersects(TIMED_QUERY))
        reordered = ids(
            filter_live_index(rdd, TIMED_QUERY, INTERSECTS, 8, temporal_first=True)
        )
        assert reordered == default

    def test_bad_mode_rejected(self, sc):
        rdd = make_rdd(sc, n=20)
        for mode in ("octree", "temporal"):
            with pytest.raises(ValueError, match=f"unknown index mode '{mode}'"):
                spatial(rdd).live_index(order=8, mode=mode)
            with pytest.raises(ValueError, match=f"unknown index mode '{mode}'"):
                spatial(rdd).index(order=8, mode=mode)


class TestPersistentModeEquality:
    @pytest.mark.parametrize("mode", INDEX_MODES)
    def test_persisted_mode_equals_naive(self, sc, tmp_path, mode):
        rdd = make_rdd(sc)
        naive = ids(spatial(rdd).intersects(TIMED_QUERY))
        persisted = spatial(rdd).index(order=8, mode=mode)
        assert ids(persisted.intersects(TIMED_QUERY)) == naive

        from repro.core.spatial_rdd import IndexedSpatialRDD

        path = str(tmp_path / f"idx-{mode}")
        persisted.save(path)
        loaded = IndexedSpatialRDD.load(sc, path)
        assert loaded.mode == mode
        assert ids(loaded.intersects(TIMED_QUERY)) == naive


class TestTemporalPartitionPruning:
    def test_prunes_whole_partitions(self, sc):
        rdd = make_rdd(sc, untimed_every=0)  # all timed
        part = TemporalRangePartitioner.from_rdd(rdd, num_partitions=8)
        indexed = spatial(rdd).index(order=8, partitioner=part)
        naive = ids(spatial(rdd).intersects(TIMED_QUERY))
        assert ids(indexed.intersects(TIMED_QUERY)) == naive
        # A 4% window over 8 equi-depth time slices skips most of them.
        assert sc.metrics.partitions_pruned_temporal >= 4
        # The measured time ranges cover every member, in every mode.
        kept, _missed = partitions_matching(
            partition_summaries(rdd.partition_by(part)),
            TIMED_QUERY.geo.envelope,
            TIMED_QUERY.time,
        )
        assert kept == partitions_matching(
            partition_summaries(indexed.tree_rdd),
            TIMED_QUERY.geo.envelope,
            TIMED_QUERY.time,
        )[0]
        sc.metrics.reset()
        live = spatial(rdd).live_index(order=8, partitioner=part)
        assert ids(live.intersects(TIMED_QUERY)) == naive
        assert sc.metrics.partitions_pruned_temporal == 8 - len(kept)

    def test_grid_partitioned_index_also_prunes_in_time(self, sc):
        rdd = make_rdd(sc, untimed_every=0)
        part = GridPartitioner.from_rdd(rdd, partitions_per_dimension=2)
        indexed = spatial(rdd).index(order=8, partitioner=part)
        naive = ids(spatial(rdd).intersects(TIMED_QUERY))
        assert ids(indexed.intersects(TIMED_QUERY)) == naive

    def test_untimed_query_keeps_partitions_with_untimed_members(self, sc):
        rdd = make_rdd(sc)  # a sprinkle of untimed rows in every cell
        part = GridPartitioner.from_rdd(rdd, partitions_per_dimension=2)
        indexed = spatial(rdd).index(order=8, partitioner=part)
        naive = ids(spatial(rdd).intersects(UNTIMED_QUERY))
        assert naive and ids(indexed.intersects(UNTIMED_QUERY)) == naive
        assert sc.metrics.partitions_pruned_temporal == 0

    def test_untimed_query_skips_all_timed_partitions(self, sc):
        # Eqs. (1)-(3) lifted to partitions: an untimed query can only
        # match untimed members, and these partitions hold none.
        rdd = make_rdd(sc, untimed_every=0)  # all timed
        part = TemporalRangePartitioner.from_rdd(rdd, num_partitions=4)
        indexed = spatial(rdd).index(order=8, partitioner=part)
        naive = ids(spatial(rdd).intersects(UNTIMED_QUERY))
        assert ids(indexed.intersects(UNTIMED_QUERY)) == naive == []
        assert sc.metrics.partitions_pruned_temporal == 4
        assert all(s.timed == s.count for s in partition_summaries(indexed.tree_rdd))


class TestPartitionerBuiltFromOtherData:
    """Persistent mode prunes on the trees' own summaries, saved with them."""

    def test_persistent_index_keeps_the_overhanging_polygon(self, overhang, tmp_path):
        from repro.core.spatial_rdd import IndexedSpatialRDD

        indexed = spatial(overhang.rdd).index(order=4)
        assert ids(indexed.intersects(overhang.query)) == overhang.hit

        path = str(tmp_path / "idx")
        indexed.save(path)
        loaded = IndexedSpatialRDD.load(overhang.rdd.context, path)
        assert known_summaries(loaded.tree_rdd) == partition_summaries(indexed.tree_rdd)
        assert ids(loaded.intersects(overhang.query)) == overhang.hit
        assert loaded.knn(overhang.query, 1)[0][0] == 0.0

"""The temporal and spatio-temporal partitioner extensions."""

import pytest

from repro.core import filter as filter_ops
from repro.core.predicates import CONTAINED_BY, INTERSECTS
from repro.core.stobject import STObject
from repro.core.summaries import partition_summaries
from repro.geometry.envelope import Envelope
from repro.io.datagen import clustered_points, timed_stobjects, uniform_points
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.temporal import (
    SpatioTemporalPartitioner,
    TemporalRangePartitioner,
)
from repro.temporal import Instant, Interval

from tests.partitioners import matching_partitions, partition_keys

EVERYWHERE = Envelope(-1e9, -1e9, 1e9, 1e9)


def timed_keys(n=400, seed=61, interval_fraction=0.3):
    return list(
        timed_stobjects(
            uniform_points(n, seed=seed),
            time_range=(0, 10_000),
            seed=seed,
            interval_fraction=interval_fraction,
            max_duration=500,
        )
    )


class TestTemporalRangePartitioner:
    def test_partition_count(self):
        part = TemporalRangePartitioner(timed_keys(), 5)
        assert part.num_partitions == 5

    def test_all_keys_in_range(self):
        keys = timed_keys()
        part = TemporalRangePartitioner(keys, 4)
        for key in keys:
            assert 0 <= part.get_partition(key) < 4

    def test_equi_depth_balance(self):
        keys = timed_keys(n=1000)
        part = TemporalRangePartitioner(keys, 4)
        counts = [0] * 4
        for key in keys:
            counts[part.get_partition(key)] += 1
        assert max(counts) - min(counts) <= len(keys) * 0.05 + 2

    def test_balanced_even_for_skewed_times(self):
        # 90% of events in the first 1% of the time range
        import random

        rng = random.Random(62)
        keys = [
            STObject("POINT (0 0)", rng.uniform(0, 100 if i % 10 else 10_000))
            for i in range(1000)
        ]
        part = TemporalRangePartitioner(keys, 4)
        counts = [0] * 4
        for key in keys:
            counts[part.get_partition(key)] += 1
        assert max(counts) / (len(keys) / 4) < 1.5

    def test_ordering_respected(self):
        keys = timed_keys()
        part = TemporalRangePartitioner(keys, 4)
        early = STObject("POINT (0 0)", 0)
        late = STObject("POINT (0 0)", 9_999)
        assert part.get_partition(early) <= part.get_partition(late)
        assert part.get_partition(early) == 0

    def test_extent_covers_member_intervals(self, sc):
        keys = timed_keys(interval_fraction=1.0)
        part = TemporalRangePartitioner(keys, 4)
        summaries = partition_summaries(partition_keys(sc, keys, part))
        for key in keys:
            summary = summaries[part.get_partition(key)]
            assert summary.timed == summary.count > 0
            assert summary.t_lo <= key.time.start
            assert key.time.end <= summary.t_hi

    def test_pruning_conservative(self, sc):
        keys = timed_keys(interval_fraction=0.5)
        part = TemporalRangePartitioner(keys, 6)
        query = Interval(2_000, 3_000)
        keep = matching_partitions(sc, keys, part, EVERYWHERE, query)
        assert len(keep) < 6
        from repro.temporal.predicates import t_intersects

        for key in keys:
            if t_intersects(key.time, query):
                assert part.get_partition(key) in keep

    def test_instant_query(self, sc):
        keys = timed_keys()
        part = TemporalRangePartitioner(keys, 4)
        keep = matching_partitions(sc, keys, part, EVERYWHERE, Instant(5_000))
        assert 1 <= len(keep) < 4

    def test_untimed_key_rejected(self):
        with pytest.raises(ValueError, match="temporal"):
            TemporalRangePartitioner([STObject("POINT (0 0)")], 2)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            TemporalRangePartitioner([], 2)

    def test_equality(self):
        keys = timed_keys()
        assert TemporalRangePartitioner(keys, 4) == TemporalRangePartitioner(keys, 4)
        assert TemporalRangePartitioner(keys, 4) != TemporalRangePartitioner(keys, 5)

    def test_from_rdd(self, sc):
        rdd = sc.parallelize([(k, i) for i, k in enumerate(timed_keys())], 4)
        part = TemporalRangePartitioner.from_rdd(rdd, 3)
        assert part.num_partitions == 3


class TestTemporalPruningInFilter:
    @pytest.fixture
    def partitioned(self, sc):
        keys = timed_keys(n=600, seed=63)
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 4)
        part = TemporalRangePartitioner.from_rdd(rdd, 6)
        return rdd.partition_by(part)

    def test_results_identical_with_and_without_pruning(self, partitioned):
        query = STObject(
            "POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))", 1_000, 2_000
        )
        pruned = sorted(
            v for _k, v in filter_ops.filter_no_index(
                partitioned, query, INTERSECTS
            ).collect()
        )
        unpruned = sorted(
            v for _k, v in filter_ops.filter_no_index(
                partitioned, query, INTERSECTS, prune=False
            ).collect()
        )
        assert pruned == unpruned
        assert len(pruned) > 0

    def test_narrow_window_prunes_slices(self, sc, partitioned):
        query = STObject(
            "POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))", 100, 200
        )
        sc.metrics.reset()
        filter_ops.filter_no_index(partitioned, query, INTERSECTS).collect()
        assert sc.metrics.partitions_pruned > 0

    def test_untimed_query_prunes_everything(self, sc, partitioned):
        query = STObject("POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))")
        result = filter_ops.filter_no_index(partitioned, query, INTERSECTS)
        assert result.count() == 0
        assert result.num_partitions == 0


class TestSpatioTemporalPartitioner:
    @pytest.fixture
    def st_part(self):
        keys = list(
            timed_stobjects(
                clustered_points(800, seed=64), time_range=(0, 10_000), seed=64
            )
        )
        spatial = BSPartitioner(keys, max_cost_per_partition=200)
        temporal = TemporalRangePartitioner(keys, 4)
        return keys, SpatioTemporalPartitioner(spatial, temporal)

    def test_partition_count_is_product(self, st_part):
        keys, part = st_part
        assert part.num_partitions == part.spatial.num_partitions * 4

    def test_keys_route_consistently(self, st_part):
        keys, part = st_part
        for key in keys[:100]:
            pid = part.get_partition(key)
            assert 0 <= pid < part.num_partitions
            spatial_pid, time_pid = divmod(pid, part.temporal.num_partitions)
            assert spatial_pid == part.spatial.get_partition(key)
            assert time_pid == part.temporal.get_partition(key)

    def test_product_pruning(self, sc, st_part):
        keys, part = st_part
        keep = matching_partitions(
            sc, keys, part, Envelope(0, 0, 100, 100), Interval(0, 500)
        )
        assert 0 < len(keep) < part.num_partitions

    def test_filter_through_product_partitioner(self, sc, st_part):
        keys, part = st_part
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 4)
        partitioned = rdd.partition_by(part)
        query = STObject(
            "POLYGON ((0 0, 400 0, 400 400, 0 400, 0 0))", 1_000, 3_000
        )
        sc.metrics.reset()
        pruned = sorted(
            v for _k, v in filter_ops.filter_no_index(
                partitioned, query, CONTAINED_BY
            ).collect()
        )
        assert sc.metrics.partitions_pruned > 0
        brute = sorted(
            i for i, k in enumerate(keys) if CONTAINED_BY.evaluate(k, query)
        )
        assert pruned == brute

    def test_from_rdd_builder(self, sc):
        keys = timed_keys(n=300, seed=65)
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 4)
        part = SpatioTemporalPartitioner.from_rdd(
            rdd, lambda ks: BSPartitioner(ks, max_cost_per_partition=100), 3
        )
        assert part.temporal.num_partitions == 3
        assert part.num_partitions % 3 == 0


class TestSampledFromRdd:
    """``from_rdd`` samples keys but must keep pruning lossless."""

    def test_small_sample_extents_stay_exact(self, sc):
        keys = timed_keys(n=2000, seed=67)
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 8)
        # A tiny sample: the cut points are rough, but the measured time
        # range of every partition covers its actual members.
        part = TemporalRangePartitioner.from_rdd(rdd, 4, sample_target=50)
        by_slice = rdd.partition_by(part)
        summaries = partition_summaries(by_slice)
        rows = by_slice.map_partitions_with_index(
            lambda split, it: ((split, kv[0]) for kv in it)
        ).collect()
        for pid, key in rows:
            start, end = key.time.start, key.time.end
            assert summaries[pid].t_lo <= start and end <= summaries[pid].t_hi

    def test_sampled_partitioner_filter_equality(self, sc):
        keys = timed_keys(n=2000, seed=68)
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 8)
        part = TemporalRangePartitioner.from_rdd(rdd, 4, sample_target=50)
        query = STObject(
            "POLYGON ((0 0, 600 0, 600 600, 0 600, 0 0))", Interval(2_000, 2_500)
        )
        pruned = sorted(
            v
            for _k, v in filter_ops.filter_no_index(
                rdd.partition_by(part), query, INTERSECTS
            ).collect()
        )
        brute = sorted(
            i for i, k in enumerate(keys) if INTERSECTS.evaluate(k, query)
        )
        assert pruned == brute

    def test_builder_samples_instead_of_collecting(self, sc):
        keys = timed_keys(n=5000, seed=69)
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 8)
        sample = rdd.keys().collect_sample(64)
        # The sampling primitive the builder uses is bounded -- the
        # driver never materializes all 5000 keys to compute the cuts.
        assert len(sample) <= 8 * 64
        part = TemporalRangePartitioner.from_rdd(rdd, 4, sample_target=64)
        assert part.num_partitions == 4

    def test_spatio_temporal_sampled_refinement(self, sc):
        keys = timed_keys(n=1500, seed=70)
        rdd = sc.parallelize([(k, i) for i, k in enumerate(keys)], 6)
        part = SpatioTemporalPartitioner.from_rdd(
            rdd,
            lambda ks: BSPartitioner(ks, max_cost_per_partition=200),
            time_slices=3,
            sample_target=60,
        )
        partitioned = rdd.partition_by(part)
        query = STObject(
            "POLYGON ((0 0, 500 0, 500 500, 0 500, 0 0))", Interval(4_000, 4_600)
        )
        pruned = sorted(
            v
            for _k, v in filter_ops.filter_no_index(
                partitioned, query, CONTAINED_BY
            ).collect()
        )
        brute = sorted(
            i for i, k in enumerate(keys) if CONTAINED_BY.evaluate(k, query)
        )
        assert pruned == brute

"""Extension benchmark: temporal & spatio-temporal partitioning.

The paper states STARK "only considers the spatial component for
partitioning"; this suite measures what the missing temporal dimension
is worth.  A query selective in space AND time should touch only the
matching (cell, slice) combinations under the product partitioner,
pruning more than either single-axis partitioner can.
"""

from __future__ import annotations

import pytest

from repro.core import filter as filter_ops
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.evaluation import bsp_budget
from repro.io.datagen import clustered_points, timed_stobjects
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.temporal import (
    SpatioTemporalPartitioner,
    TemporalRangePartitioner,
)

ROUNDS = 3

#: selective in space (one cluster region) and in time (5% window)
QUERY = STObject(
    "POLYGON ((100 100, 300 100, 300 300, 100 300, 100 100))", 0, 50_000
)


@pytest.fixture(scope="module")
def timed_events(sc, sizes):
    objs = list(
        timed_stobjects(
            clustered_points(sizes["filter_points"], num_clusters=12, seed=1711),
            time_range=(0, 1_000_000),
            seed=1711,
        )
    )
    rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 8).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def expected_count(timed_events):
    return filter_ops.filter_no_index(
        timed_events, QUERY, INTERSECTS, prune=False
    ).count()


@pytest.fixture(scope="module")
def spatial_partitioned(timed_events, sizes):
    bsp = BSPartitioner.from_rdd(
        timed_events, max_cost_per_partition=bsp_budget(sizes["filter_points"])
    )
    rdd = timed_events.partition_by(bsp).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def temporal_partitioned(timed_events):
    part = TemporalRangePartitioner.from_rdd(timed_events, 16)
    rdd = timed_events.partition_by(part).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def product_partitioned(timed_events):
    # The factory sees from_rdd's key sample (<= 2,000 keys), so the BSP
    # cost threshold is scaled to it; a full-data threshold never splits.
    part = SpatioTemporalPartitioner.from_rdd(
        timed_events,
        lambda keys: BSPartitioner(
            keys, max_cost_per_partition=max(16, len(keys) // 8)
        ),
        time_slices=4,
    )
    rdd = timed_events.partition_by(part).persist()
    rdd.count()
    return rdd


class TestTemporalPartitioningModes:
    def test_filter_spatial_partitioner(self, benchmark, spatial_partitioned, expected_count):
        count = benchmark.pedantic(
            lambda: filter_ops.filter_no_index(
                spatial_partitioned, QUERY, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_filter_temporal_partitioner(self, benchmark, temporal_partitioned, expected_count):
        count = benchmark.pedantic(
            lambda: filter_ops.filter_no_index(
                temporal_partitioned, QUERY, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_filter_product_partitioner(self, benchmark, product_partitioned, expected_count):
        count = benchmark.pedantic(
            lambda: filter_ops.filter_no_index(
                product_partitioned, QUERY, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count


class TestTemporalPartitioningShape:
    def test_product_prunes_more_than_either_axis(
        self, benchmark, sc, spatial_partitioned, temporal_partitioned, product_partitioned
    ):
        def pruned_fraction(rdd) -> float:
            sc.metrics.reset()
            filter_ops.filter_no_index(rdd, QUERY, INTERSECTS).count()
            return sc.metrics.partitions_pruned / rdd.num_partitions

        spatial_fraction = pruned_fraction(spatial_partitioned)
        temporal_fraction = pruned_fraction(temporal_partitioned)
        product_fraction = benchmark.pedantic(
            lambda: pruned_fraction(product_partitioned), rounds=1
        )
        print(
            f"\npruned fraction: spatial={spatial_fraction:.2f} "
            f"temporal={temporal_fraction:.2f} product={product_fraction:.2f}"
        )
        assert product_fraction > spatial_fraction
        assert product_fraction > temporal_fraction

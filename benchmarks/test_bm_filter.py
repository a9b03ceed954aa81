"""spatialbm: range-filter micro-benchmark.

Filter (contains / intersects / containedBy) across partitioning and
indexing modes -- the filter suite from the paper's companion benchmark
repository (footnote 4, dbis-ilm/spatialbm).  All configurations must
return identical results; the benchmark shows what partition pruning
and per-partition indexing are worth.  The live-index rows query an
unpersisted view, so that every query builds its trees as in the
paper's live mode; ``test_live_index_bsp_persisted_reused`` queries the
persisted RDD, which keeps its trees after the first query.
"""

from __future__ import annotations

import pytest

from repro.core import filter as filter_ops
from repro.core.predicates import CONTAINED_BY, INTERSECTS
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.evaluation import bsp_budget
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner

ROUNDS = 3

#: A selective window plus the full-time interval: ~a few percent of data.
QUERY = STObject(
    "POLYGON ((100 100, 350 100, 350 350, 100 350, 100 100))", 0, 1_000_000
)


@pytest.fixture(scope="module")
def grid_partitioned(filter_events_rdd):
    grid = GridPartitioner.from_rdd(filter_events_rdd, 4)
    rdd = filter_events_rdd.partition_by(grid).persist()
    rdd.count()
    return rdd


@pytest.fixture(scope="module")
def bsp_partitioned(filter_events_rdd, sizes):
    bsp = BSPartitioner.from_rdd(
        filter_events_rdd, max_cost_per_partition=bsp_budget(sizes["filter_points"])
    )
    rdd = filter_events_rdd.partition_by(bsp).persist()
    rdd.count()
    return rdd


def unpersisted(rdd):
    """The same partitions, not persisted: live indexing rebuilds."""
    return rdd.map_values(lambda v: v)


@pytest.fixture(scope="module")
def expected_count(filter_events_rdd):
    return filter_ops.filter_no_index(filter_events_rdd, QUERY, CONTAINED_BY).count()


class TestFilterModes:
    def test_scan_no_partitioning(self, benchmark, filter_events_rdd, expected_count):
        count = benchmark.pedantic(
            lambda: filter_ops.filter_no_index(
                filter_events_rdd, QUERY, CONTAINED_BY
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_live_index_no_partitioning(self, benchmark, filter_events_rdd, expected_count):
        live = unpersisted(filter_events_rdd)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                live, QUERY, CONTAINED_BY, order=10
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_scan_grid_partitioned(self, benchmark, grid_partitioned, expected_count):
        count = benchmark.pedantic(
            lambda: filter_ops.filter_no_index(
                grid_partitioned, QUERY, CONTAINED_BY
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_scan_bsp_partitioned(self, benchmark, bsp_partitioned, expected_count):
        count = benchmark.pedantic(
            lambda: filter_ops.filter_no_index(
                bsp_partitioned, QUERY, CONTAINED_BY
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_live_index_grid_partitioned(self, benchmark, grid_partitioned, expected_count):
        live = unpersisted(grid_partitioned)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                live, QUERY, CONTAINED_BY, order=10
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_live_index_bsp_partitioned(self, benchmark, bsp_partitioned, expected_count):
        live = unpersisted(bsp_partitioned)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                live, QUERY, CONTAINED_BY, order=10
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_live_index_bsp_persisted_reused(
        self, benchmark, bsp_partitioned, expected_count
    ):
        # A persisted RDD keeps its live trees: only the first query builds.
        filter_ops.filter_live_index(bsp_partitioned, QUERY, CONTAINED_BY, order=10).count()
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                bsp_partitioned, QUERY, CONTAINED_BY, order=10
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_persistent_index_bsp(self, benchmark, bsp_partitioned, expected_count):
        indexed = spatial(bsp_partitioned).index(order=10)
        indexed.intersects(QUERY).count()  # materialize trees before timing
        count = benchmark.pedantic(
            lambda: indexed.contained_by(QUERY).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_intersects_predicate(self, benchmark, bsp_partitioned):
        live = unpersisted(bsp_partitioned)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                live, QUERY, INTERSECTS, order=10
            ).count(),
            rounds=ROUNDS,
        )
        assert count > 0


class TestFilterShape:
    def test_pruning_reduces_tasks(self, benchmark, sc, bsp_partitioned):
        # Measure the partition summaries first: their one-off job is
        # not the filter's (the test used to rely on an earlier one).
        filter_ops.filter_no_index(bsp_partitioned, QUERY, CONTAINED_BY).count()
        sc.metrics.reset()
        benchmark.pedantic(
            lambda: filter_ops.filter_no_index(
                bsp_partitioned, QUERY, CONTAINED_BY
            ).count(),
            rounds=1,
        )
        pruned_tasks = sc.metrics.tasks_launched
        sc.metrics.reset()
        filter_ops.filter_no_index(
            bsp_partitioned, QUERY, CONTAINED_BY, prune=False
        ).count()
        full_tasks = sc.metrics.tasks_launched
        assert pruned_tasks < full_tasks

    def test_partitioned_filter_faster_than_full_scan(
        self, best_pair, filter_events_rdd, bsp_partitioned
    ):
        pruned, full = best_pair(
            lambda: filter_ops.filter_no_index(
                bsp_partitioned, QUERY, CONTAINED_BY
            ).count(),
            lambda: filter_ops.filter_no_index(
                filter_events_rdd, QUERY, CONTAINED_BY
            ).count(),
        )
        assert pruned < full

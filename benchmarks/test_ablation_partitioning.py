"""Ablation: partitioning strategies on skewed ("world") data.

The paper's motivating example: with a fixed grid on world-like data
there are "empty cells on sea and overfilled partitions in densely
populated areas"; the cost-based BSP equalizes partition cost.  This
benchmark quantifies build cost, balance and downstream query time for
both partitioners, plus the centroid-assignment vs replication design
decision from DESIGN.md.
"""

from __future__ import annotations

import pytest

from repro.core import filter as filter_ops
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.io.datagen import world_events
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner

ROUNDS = 3
QUERY = STObject("POLYGON ((60 470, 290 470, 290 940, 60 940, 60 470))")


@pytest.fixture(scope="module")
def world_rdd(sc, sizes):
    pts = world_events(sizes["filter_points"], seed=1709)
    rdd = sc.parallelize([(STObject(p), i) for i, p in enumerate(pts)], 8).persist()
    rdd.count()
    return rdd


class TestPartitionerBuild:
    def test_build_grid(self, benchmark, world_rdd):
        partitioner = benchmark.pedantic(
            lambda: GridPartitioner.from_rdd(world_rdd, 4), rounds=ROUNDS
        )
        assert partitioner.num_partitions == 16

    def test_build_bsp(self, benchmark, world_rdd, sizes):
        partitioner = benchmark.pedantic(
            lambda: BSPartitioner.from_rdd(
                world_rdd, max_cost_per_partition=max(64, sizes["filter_points"] // 16)
            ),
            rounds=ROUNDS,
        )
        assert partitioner.num_partitions > 1


class TestPartitionerQuality:
    def test_balance_bsp_beats_grid(self, benchmark, world_rdd, sizes):
        keys = world_rdd.keys().collect()
        budget = max(64, sizes["filter_points"] // 16)
        grid = GridPartitioner(keys, 4)
        bsp = BSPartitioner(keys, max_cost_per_partition=budget)
        grid_imbalance = benchmark.pedantic(lambda: grid.imbalance(keys), rounds=1)
        bsp_imbalance = bsp.imbalance(keys)
        print(
            f"\nimbalance (max/mean): grid={grid_imbalance:.2f} "
            f"bsp={bsp_imbalance:.2f} ({bsp.num_partitions} parts)"
        )
        assert bsp_imbalance < grid_imbalance

    @pytest.mark.parametrize("ppd", [2, 4, 8])
    def test_grid_granularity_sweep(self, benchmark, world_rdd, ppd):
        grid = GridPartitioner.from_rdd(world_rdd, ppd)
        partitioned = world_rdd.partition_by(grid).persist()
        partitioned.count()
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                partitioned, QUERY, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        assert count == filter_ops.filter_no_index(world_rdd, QUERY, INTERSECTS).count()

    @pytest.mark.parametrize("cost_divisor", [8, 16, 32])
    def test_bsp_cost_threshold_sweep(self, benchmark, world_rdd, sizes, cost_divisor):
        bsp = BSPartitioner.from_rdd(
            world_rdd,
            max_cost_per_partition=max(32, sizes["filter_points"] // cost_divisor),
        )
        partitioned = world_rdd.partition_by(bsp).persist()
        partitioned.count()
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                partitioned, QUERY, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        assert count == filter_ops.filter_no_index(world_rdd, QUERY, INTERSECTS).count()


class TestExtentPruningAblation:
    """Design decision 2 in DESIGN.md: what is extent pruning worth?"""

    def test_filter_with_vs_without_pruning(self, benchmark, world_rdd, sizes):
        from repro.evaluation.harness import time_call

        bsp = BSPartitioner.from_rdd(
            world_rdd, max_cost_per_partition=max(64, sizes["filter_points"] // 16)
        )
        partitioned = world_rdd.partition_by(bsp).persist()
        partitioned.count()
        benchmark.pedantic(
            lambda: filter_ops.filter_no_index(partitioned, QUERY, INTERSECTS).count(),
            rounds=3,
        )
        with_pruning = benchmark.stats.stats.min
        without_pruning = time_call(
            lambda: filter_ops.filter_no_index(
                partitioned, QUERY, INTERSECTS, prune=False
            ).count(),
            repeats=3,
        ).best
        print(
            f"\nextent pruning: {without_pruning:.3f}s -> {with_pruning:.3f}s "
            f"({without_pruning / max(with_pruning, 1e-9):.1f}x)"
        )
        assert with_pruning < without_pruning

    def test_join_pair_pruning(self, benchmark, world_rdd, sizes):
        from repro.core.join import spatial_join
        from repro.evaluation.harness import time_call

        bsp = BSPartitioner.from_rdd(
            world_rdd, max_cost_per_partition=max(64, sizes["filter_points"] // 16)
        )
        partitioned = world_rdd.partition_by(bsp).persist()
        partitioned.count()
        benchmark.pedantic(
            lambda: spatial_join(partitioned, partitioned, INTERSECTS).count(),
            rounds=2,
        )
        pruned = benchmark.stats.stats.min
        unpruned = time_call(
            lambda: spatial_join(
                partitioned, partitioned, INTERSECTS, prune_pairs=False
            ).count(),
            repeats=2,
        ).best
        print(f"\npair pruning: {unpruned:.3f}s -> {pruned:.3f}s")
        assert pruned < unpruned

"""spatialbm: point-in-polygon join across systems and strategies.

Every round of a STARK row joins a fresh unpersisted view of the
persisted inputs, so it builds its polygon trees (and measures its
partition summaries) inside the round, as the GeoSpark and SpatialSpark
rows build their structures inside theirs.
"""

from __future__ import annotations

import pytest

from repro.baselines import GeoSparkStyle, SpatialSparkStyle
from repro.core.join import spatial_join
from repro.core.predicates import CONTAINED_BY
from repro.evaluation import bsp_budget
from repro.partitioners.bsp import BSPartitioner

ROUNDS = 3


def fresh(rdd):
    """A view of persisted *rdd* that keeps no index between rounds."""
    return rdd.map_partitions(iter, preserves_partitioning=True)


@pytest.fixture(scope="module")
def expected_count(join_inputs):
    points, polys = join_inputs
    return spatial_join(points, polys, CONTAINED_BY).count()


class TestPointInPolygonJoin:
    def test_stark_unpartitioned(self, benchmark, join_inputs, expected_count):
        points, polys = join_inputs
        count = benchmark.pedantic(
            lambda: spatial_join(fresh(points), fresh(polys), CONTAINED_BY).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_stark_bsp_partitioned(self, benchmark, join_inputs, expected_count, sizes):
        points, polys = join_inputs
        bsp = BSPartitioner.from_rdd(
            points, max_cost_per_partition=bsp_budget(sizes["join_points"])
        )
        p_points = points.partition_by(bsp).persist()
        p_polys = polys.partition_by(bsp).persist()
        p_points.count()
        p_polys.count()
        count = benchmark.pedantic(
            lambda: spatial_join(fresh(p_points), fresh(p_polys), CONTAINED_BY).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_stark_nested_loop_local_join(self, benchmark, join_inputs, expected_count):
        points, polys = join_inputs
        count = benchmark.pedantic(
            lambda: spatial_join(
                fresh(points), fresh(polys), CONTAINED_BY, index_order=None
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_geospark_grid(self, benchmark, join_inputs, expected_count):
        points, polys = join_inputs
        engine = GeoSparkStyle()
        count = benchmark.pedantic(
            lambda: engine.spatial_join(
                points, polys, CONTAINED_BY, "grid", num_cells=16
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_spatialspark_broadcast(self, benchmark, join_inputs, expected_count):
        points, polys = join_inputs
        engine = SpatialSparkStyle()
        count = benchmark.pedantic(
            lambda: engine.broadcast_join(points, polys, CONTAINED_BY).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count

    def test_spatialspark_tile(self, benchmark, join_inputs, expected_count):
        points, polys = join_inputs
        engine = SpatialSparkStyle()
        count = benchmark.pedantic(
            lambda: engine.tile_join(
                points, polys, CONTAINED_BY, tiles_per_dimension=8
            ).count(),
            rounds=ROUNDS,
        )
        assert count == expected_count


class TestJoinShape:
    def test_indexed_local_join_beats_nested_loop(self, best_pair, join_inputs):
        points, polys = join_inputs
        indexed, nested = best_pair(
            lambda: spatial_join(
                fresh(points), fresh(polys), CONTAINED_BY, index_order=10
            ).count(),
            lambda: spatial_join(
                fresh(points), fresh(polys), CONTAINED_BY, index_order=None
            ).count(),
        )
        assert indexed < nested

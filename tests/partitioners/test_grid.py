"""The fixed grid partitioner."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.io.datagen import clustered_points, uniform_points
from repro.core.summaries import partition_summaries
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner
from tests.partitioners import matching_partitions, partition_keys


def keys_of(points):
    return [STObject(p) for p in points]


_LOOKUP_KEYS = keys_of(clustered_points(400, num_clusters=5, seed=61))
#: Cells with exact (grid) and fractional (BSP) edges.
LOOKUP_PARTITIONERS = [
    GridPartitioner((), 4, universe=Envelope(0, 0, 100, 100)),
    GridPartitioner(_LOOKUP_KEYS, 3),
    BSPartitioner(_LOOKUP_KEYS, max_cost_per_partition=60, side_length=7.0),
]


class TestConstruction:
    def test_partition_count_is_square(self):
        grid = GridPartitioner(keys_of(uniform_points(100)), 4)
        assert grid.num_partitions == 16
        assert grid.partitions_per_dimension == 4

    def test_universe_defaults_to_data_bounds(self):
        pts = [Point(0, 0), Point(10, 20)]
        grid = GridPartitioner(keys_of(pts), 2)
        assert grid.universe == Envelope(0, 0, 10, 20)

    def test_explicit_universe(self):
        grid = GridPartitioner(keys_of([Point(5, 5)]), 2, universe=Envelope(0, 0, 100, 100))
        assert grid.universe == Envelope(0, 0, 100, 100)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            GridPartitioner([], 2)

    def test_zero_ppd_rejected(self):
        with pytest.raises(ValueError):
            GridPartitioner(keys_of([Point(0, 0)]), 0)

    def test_degenerate_universe_handled(self):
        # All points on a vertical line: width 0.
        pts = [Point(5, y) for y in range(10)]
        grid = GridPartitioner(keys_of(pts), 3)
        assert grid.num_partitions == 9
        for p in pts:
            assert 0 <= grid.get_partition(STObject(p)) < 9


class TestAssignment:
    def test_every_key_lands_in_range(self):
        keys = keys_of(uniform_points(500, seed=3))
        grid = GridPartitioner(keys, 4)
        for key in keys:
            assert 0 <= grid.get_partition(key) < 16

    def test_point_in_correct_cell(self):
        grid = GridPartitioner(
            keys_of([Point(0, 0), Point(100, 100)]), 2,
        )
        # cells: 0=(0..50,0..50), 1=(50..100,0..50), 2=(0..50,50..100), 3=...
        assert grid.get_partition(STObject(Point(10, 10))) == 0
        assert grid.get_partition(STObject(Point(60, 10))) == 1
        assert grid.get_partition(STObject(Point(10, 60))) == 2
        assert grid.get_partition(STObject(Point(60, 60))) == 3

    def test_max_edge_belongs_to_last_cell(self):
        grid = GridPartitioner(keys_of([Point(0, 0), Point(100, 100)]), 2)
        assert grid.get_partition(STObject(Point(100, 100))) == 3

    def test_out_of_universe_clamped(self):
        grid = GridPartitioner(
            keys_of([Point(0, 0), Point(100, 100)]), 2,
        )
        assert grid.get_partition(STObject(Point(-50, -50))) == 0
        assert grid.get_partition(STObject(Point(500, 500))) == 3

    def test_polygon_assigned_by_centroid(self):
        grid = GridPartitioner(keys_of([Point(0, 0), Point(100, 100)]), 2)
        # Polygon spans all cells but its centroid is in cell 0.
        poly = Polygon([(0, 0), (90, 0), (0, 90)])  # centroid (30, 30)
        assert grid.get_partition(STObject(poly)) == 0

    def test_bare_geometry_keys_accepted(self):
        grid = GridPartitioner([Point(0, 0), Point(100, 100)], 2)
        assert grid.get_partition(Point(10, 10)) == 0

    def test_bad_key_type_rejected(self):
        grid = GridPartitioner(keys_of([Point(0, 0), Point(1, 1)]), 2)
        with pytest.raises(TypeError):
            grid.get_partition("POINT (0 0)")


class TestBoundsAndExtent:
    def test_bounds_tile_universe(self):
        grid = GridPartitioner(keys_of([Point(0, 0), Point(100, 100)]), 2)
        total_area = sum(grid.partition_bounds(i).area for i in range(4))
        assert total_area == pytest.approx(100 * 100)

    def test_extent_grows_beyond_bounds_for_spanning_polygon(self, sc):
        keys = keys_of([Point(0, 0), Point(100, 100)])
        poly = Polygon([(0, 0), (90, 0), (0, 90)])  # centroid cell 0
        keys.append(STObject(poly))
        grid = GridPartitioner(keys, 2)
        pid = grid.get_partition(STObject(poly))
        summaries = partition_summaries(partition_keys(sc, keys, grid))
        assert summaries[pid].envelope.contains(poly.envelope)
        assert not grid.partition_bounds(pid).contains(poly.envelope)

    def test_empty_cell_has_bounds_but_never_matches(self, sc):
        keys = keys_of([Point(1, 1), Point(99, 99)])
        grid = GridPartitioner(keys, 4)
        everywhere = Envelope(-1e9, -1e9, 1e9, 1e9)
        assert matching_partitions(sc, keys, grid, everywhere) == {0, 15}
        for pid in range(grid.num_partitions):
            assert not grid.partition_bounds(pid).is_empty

    def test_from_rdd(self, sc):
        rdd = sc.parallelize(
            [(STObject(p), i) for i, p in enumerate(uniform_points(100))], 4
        )
        grid = GridPartitioner.from_rdd(rdd, 3)
        assert grid.num_partitions == 9


class TestPruning:
    def test_partitions_matching_small_query(self, sc):
        keys = keys_of(uniform_points(400, seed=1))
        grid = GridPartitioner(keys, 4)
        query = Envelope(10, 10, 20, 20)
        keep = matching_partitions(sc, keys, grid, query)
        assert 1 <= len(keep) < 16

    def test_pruning_is_conservative(self, sc):
        keys = keys_of(uniform_points(400, seed=2))
        grid = GridPartitioner(keys, 4)
        query = Envelope(200, 200, 400, 400)
        keep = matching_partitions(sc, keys, grid, query)
        # every key inside the query must live in a kept partition
        for key in keys:
            if query.contains(key.geo.envelope):
                assert grid.get_partition(key) in keep

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_partitions_within_distance_reads_bounds(self, data):
        grid = GridPartitioner(keys_of([Point(0, 0), Point(100, 100)]), 2)
        assert grid.partitions_within_distance(0, 0, 1.0) == [0]
        assert grid.partitions_within_distance(50, 50, 1000.0) == [0, 1, 2, 3]

        part = data.draw(st.sampled_from(LOOKUP_PARTITIONERS))
        cell = part.partition_bounds(data.draw(st.integers(0, part.num_partitions - 1)))
        eps = data.draw(
            st.just(0.0) | st.sampled_from([0.5, 12.0, 25.0]) | st.floats(0, 150)
        )

        def coordinate(low, high, universe_low, universe_high):
            # Cell edges, exactly eps past them, an ulp either side of
            # that, and anywhere in and well outside the universe.
            offsets = [low, high, low - eps, high + eps]
            nudged = [math.nextafter(v, d) for v in offsets for d in (-math.inf, math.inf)]
            anywhere = st.floats(universe_low - 200, universe_high + 200)
            return st.sampled_from(offsets + nudged) | anywhere

        u = part.universe
        x = data.draw(coordinate(cell.min_x, cell.max_x, u.min_x, u.max_x))
        y = data.draw(coordinate(cell.min_y, cell.max_y, u.min_y, u.max_y))
        # The comprehension the inlined lookup replaced is the reference.
        reference = [
            pid
            for pid in range(part.num_partitions)
            if part.partition_bounds(pid).distance_to_point(x, y) <= eps
        ]
        assert part.partitions_within_distance(x, y, eps) == reference

    def test_partitions_within_distance_rejects_an_empty_cell(self):
        grid = GridPartitioner((), 2, universe=Envelope(0, 0, 100, 100))
        grid._bounds[3] = Envelope.empty()
        with pytest.raises(ValueError):
            grid.partitions_within_distance(10, 10, 1.0)

    def test_imbalance_uniform_close_to_one(self):
        keys = keys_of(uniform_points(4000, seed=5))
        grid = GridPartitioner(keys, 2)
        assert grid.imbalance(keys) < 1.3

    def test_equality(self):
        keys = keys_of(uniform_points(50, seed=6))
        assert GridPartitioner(keys, 2) == GridPartitioner(keys, 2)
        assert GridPartitioner(keys, 2) != GridPartitioner(keys, 3)

    def test_equality_compares_cells_not_construction_data(self):
        keys = keys_of(uniform_points(50, seed=6))
        a = GridPartitioner(keys, 2)
        b = GridPartitioner((), 2, universe=a.universe)
        assert a == b and hash(a) == hash(b)

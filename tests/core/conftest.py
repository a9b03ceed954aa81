"""Shared scenario: a partitioner that never saw the data it partitions."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.partitioners.grid import GridPartitioner

#: A 9x1 polygon: its centroid (4.5, 2.5) sits in cell 0 of a 2x2 grid
#: over [0, 10]^2, its far end reaches into cell 1.
OVERHANG = STObject("POLYGON ((0 2, 9 2, 9 3, 0 3, 0 2))")


@pytest.fixture(params=["other_rdd", "sample", "universe_only"])
def overhang(sc, request):
    """Points plus :data:`OVERHANG`, partitioned by a 2x2 grid built from
    other data / a 10 % sample of the keys / a bare universe, and a
    query point under the polygon's far end.

    A partitioner that remembers extents from its construction data
    believes cell 1 ends at x = 5..10 with nothing sticking in from cell
    0, so every extent-pruned path used to lose the polygon; the nearest
    *point* to the query is 2.5 away, the polygon 0.0.
    """
    points = [Point(0, 0), Point(8.5, 0), Point(2, 8), Point(7, 7)]
    points += [Point(1 + i % 4, 6 + i // 4) for i in range(7)]
    points += [Point(6 + i % 4, 6 + i // 4) for i in range(7)]
    keys = [STObject(p) for p in points]
    keys.insert(5, OVERHANG)
    keys.insert(10, STObject(Point(10, 10)))
    rows = [(key, i) for i, key in enumerate(keys)]
    if request.param == "other_rdd":
        others = sc.parallelize([(STObject(p), 0) for p in [*points, Point(10, 10)]], 2)
        grid = GridPartitioner.from_rdd(others, 2)
    elif request.param == "sample":
        grid = GridPartitioner(keys[::10], 2)  # (0, 0), (10, 10): the same universe
    else:
        grid = GridPartitioner((), 2, universe=Envelope(0, 0, 10, 10))
    assert grid.universe == Envelope(0, 0, 10, 10)
    assert grid.get_partition(OVERHANG) == 0
    query = STObject("POINT (8.5 2.5)")
    assert grid.get_partition(query) == 1
    return SimpleNamespace(
        rows=rows,
        rdd=sc.parallelize(rows, 3).partition_by(grid),
        query=query,
        hit=[5],  # the polygon's row id
    )

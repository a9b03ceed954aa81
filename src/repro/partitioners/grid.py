"""The fixed grid partitioner (paper section 2.1).

The data space is divided into ``partitions_per_dimension`` equal
intervals per dimension, producing a grid of rectangular cells.  Cell
bounds are computed first; afterwards a single pass assigns each item
to the cell containing its centroid.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.geometry.envelope import Envelope
from repro.partitioners.base import SpatialPartitioner, geometry_of


def _universe_of(sample: Iterable[Any]) -> Envelope:
    env = Envelope.empty()
    for key in sample:
        env = env.merge(geometry_of(key).envelope)
    if env.is_empty:
        raise ValueError("cannot build a spatial partitioner from empty data")
    return env


class GridPartitioner(SpatialPartitioner):
    """A fixed ``n x n`` grid over the data space.

    ``sample`` is the dataset (keys: STObject/Geometry, or (key, value)
    pairs via ``from_rdd``); the universe defaults to its bounding box.
    Points outside the universe (possible when partitioning data the
    universe was not computed from) are clamped into the border cells.
    """

    def __init__(
        self,
        sample: Iterable[Any],
        partitions_per_dimension: int = 4,
        universe: Envelope | None = None,
    ) -> None:
        super().__init__()
        if partitions_per_dimension < 1:
            raise ValueError("partitions_per_dimension must be >= 1")
        self._ppd = partitions_per_dimension
        self._universe = universe or _universe_of(sample)
        if self._universe.is_empty:
            raise ValueError("universe envelope is empty")

        ppd = self._ppd
        u = self._universe
        # Guard degenerate universes: zero-width/height, or so thin (a
        # subnormal side) that a cell's side underflows to zero.
        cell_w, cell_h = u.width / ppd, u.height / ppd
        self._cell_w = cell_w if cell_w > 0 else 1.0
        self._cell_h = cell_h if cell_h > 0 else 1.0
        bounds = []
        for iy in range(ppd):
            for ix in range(ppd):
                bounds.append(
                    Envelope(
                        u.min_x + ix * self._cell_w,
                        u.min_y + iy * self._cell_h,
                        u.min_x + (ix + 1) * self._cell_w,
                        u.min_y + (iy + 1) * self._cell_h,
                    )
                )
        self._bounds = bounds

    @staticmethod
    def from_rdd(
        rdd, partitions_per_dimension: int = 4, universe: Envelope | None = None
    ) -> "GridPartitioner":
        """Build from an ``RDD[(STObject, V)]`` (collects the keys)."""
        return GridPartitioner(
            rdd.keys().collect(), partitions_per_dimension, universe
        )

    @property
    def partitions_per_dimension(self) -> int:
        return self._ppd

    @property
    def universe(self) -> Envelope:
        return self._universe

    def _partition_of_point(self, x: float, y: float) -> int:
        u = self._universe
        # A subnormal-width universe makes the division overflow to
        # inf for far-away points; treat non-finite ratios as "past the
        # edge" so the clamp below still lands in a border cell.
        fx = (x - u.min_x) / self._cell_w
        fy = (y - u.min_y) / self._cell_h
        ix = int(fx) if math.isfinite(fx) else (0 if fx < 0 else self._ppd - 1)
        iy = int(fy) if math.isfinite(fy) else (0 if fy < 0 else self._ppd - 1)
        # Clamp: the universe's max edge belongs to the last cell, and
        # out-of-universe points go to the nearest border cell.
        ix = min(max(ix, 0), self._ppd - 1)
        iy = min(max(iy, 0), self._ppd - 1)
        return iy * self._ppd + ix

    def __repr__(self) -> str:
        return (
            f"GridPartitioner({self._ppd}x{self._ppd}, universe={self._universe!r})"
        )

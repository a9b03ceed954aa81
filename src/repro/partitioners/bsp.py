"""The cost-based binary space partitioner (paper section 2.1).

Based on the partitioning of MR-DBSCAN [He et al. 2014], as cited by
the paper: the space is recursively divided into two partitions of
(nearly) equal *cost*, where cost is the number of contained items.
The recursion stops when a partition's cost no longer exceeds
``max_cost_per_partition`` or the partition has reached the granularity
threshold ``side_length`` (a minimum side length).

Large sparse regions therefore stay whole while dense regions split
repeatedly -- exactly the skew-handling behaviour that separates BSP
from the fixed grid in the evaluation (and in our Figure-4
reproduction).

The implementation builds a fine histogram of item counts at
``side_length`` resolution (with 2D prefix sums for O(1) region
costs), then grows a binary split tree over histogram cells.  Lookups
descend the split tree, so ``get_partition`` is O(depth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Iterable

from repro.geometry.envelope import Envelope
from repro.partitioners.base import (
    SpatialPartitioner,
    _representative_point,
    geometry_of,
)
from repro.partitioners.grid import _universe_of


@dataclass
class _Split:
    """An internal node of the BSP tree: cut at cell index along an axis."""

    axis: int  # 0 = x, 1 = y
    cut: int  # first cell index of the high side
    low: "_Split | int"
    high: "_Split | int"


class BSPartitioner(SpatialPartitioner):
    """Cost-based binary space partitioning.

    Parameters
    ----------
    sample:
        The dataset keys (STObject or Geometry).
    max_cost_per_partition:
        The cost threshold: partitions holding more items keep splitting.
    side_length:
        Granularity threshold: no partition side becomes smaller than
        this (also the histogram resolution).
    universe:
        Optional explicit data space; defaults to the sample's bounding
        box.
    """

    def __init__(
        self,
        sample: Iterable[Any],
        max_cost_per_partition: int = 1000,
        side_length: float | None = None,
        universe: Envelope | None = None,
    ) -> None:
        super().__init__()
        if max_cost_per_partition < 1:
            raise ValueError("max_cost_per_partition must be >= 1")
        keys = list(sample)
        self._max_cost = max_cost_per_partition
        self._universe = universe or _universe_of(keys)
        u = self._universe

        longest_side = max(u.width, u.height)
        if side_length is None:
            # Default granularity: 1/64 of the longest side -- fine
            # enough to separate clusters, coarse enough to keep the
            # histogram small (1.0 when that is zero or underflows).
            side_length = longest_side / 64.0
            side_length = side_length if side_length > 0 else 1.0
        if side_length <= 0:
            raise ValueError("side_length must be positive")
        self._side_length = side_length

        self._nx = max(1, math.ceil(u.width / side_length)) if u.width > 0 else 1
        self._ny = max(1, math.ceil(u.height / side_length)) if u.height > 0 else 1

        histogram = [[0] * self._ny for _ in range(self._nx)]
        for key in keys:
            geom = geometry_of(key)
            if geom.is_empty:
                continue
            ix, iy = self._cell_of(*_representative_point(geom))
            histogram[ix][iy] += 1
        # 2D prefix sums with a zero border: cost of [x0:x1, y0:y1] is
        # P[x1][y1] - P[x0][y1] - P[x1][y0] + P[x0][y0].
        self._prefix = [[0] * (self._ny + 1)]
        for column in histogram:
            previous = self._prefix[-1]
            self._prefix.append([0] + [p + c for p, c in zip(previous[1:], accumulate(column))])

        leaves: list[tuple[int, int, int, int]] = []
        self._tree = self._build(0, 0, self._nx, self._ny, leaves)
        self._bounds = [self._region_envelope(*leaf) for leaf in leaves]

    @staticmethod
    def from_rdd(
        rdd,
        max_cost_per_partition: int = 1000,
        side_length: float | None = None,
        universe: Envelope | None = None,
    ) -> "BSPartitioner":
        """Build from an ``RDD[(STObject, V)]`` (collects the keys)."""
        return BSPartitioner(
            rdd.keys().collect(), max_cost_per_partition, side_length, universe
        )

    # -- construction --------------------------------------------------------

    def _region_cost(self, x0: int, y0: int, x1: int, y1: int) -> int:
        p = self._prefix
        return p[x1][y1] - p[x0][y1] - p[x1][y0] + p[x0][y0]

    def _build(
        self,
        x0: int,
        y0: int,
        x1: int,
        y1: int,
        leaves: list[tuple[int, int, int, int]],
    ) -> "_Split | int":
        cost = self._region_cost(x0, y0, x1, y1)
        can_split_x = x1 - x0 >= 2
        can_split_y = y1 - y0 >= 2
        if cost <= self._max_cost or not (can_split_x or can_split_y):
            leaves.append((x0, y0, x1, y1))
            return len(leaves) - 1

        best: tuple[int, int, int] | None = None  # (imbalance, axis, cut)
        if can_split_x:
            for cut in range(x0 + 1, x1):
                low_cost = self._region_cost(x0, y0, cut, y1)
                imbalance = abs(2 * low_cost - cost)
                if best is None or imbalance < best[0]:
                    best = (imbalance, 0, cut)
        if can_split_y:
            for cut in range(y0 + 1, y1):
                low_cost = self._region_cost(x0, y0, x1, cut)
                imbalance = abs(2 * low_cost - cost)
                if best is None or imbalance < best[0]:
                    best = (imbalance, 1, cut)

        assert best is not None
        _imbalance, axis, cut = best
        if axis == 0:
            low = self._build(x0, y0, cut, y1, leaves)
            high = self._build(cut, y0, x1, y1, leaves)
        else:
            low = self._build(x0, y0, x1, cut, leaves)
            high = self._build(x0, cut, x1, y1, leaves)
        return _Split(axis, cut, low, high)

    def _region_envelope(self, x0: int, y0: int, x1: int, y1: int) -> Envelope:
        u = self._universe
        step_x = u.width / self._nx if u.width > 0 else 1.0
        step_y = u.height / self._ny if u.height > 0 else 1.0
        return Envelope(
            u.min_x + x0 * step_x,
            u.min_y + y0 * step_y,
            u.min_x + x1 * step_x if x1 < self._nx else u.max_x,
            u.min_y + y1 * step_y if y1 < self._ny else u.max_y,
        )

    # -- lookup ---------------------------------------------------------------

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        u = self._universe
        step_x = u.width / self._nx if u.width > 0 else 1.0
        step_y = u.height / self._ny if u.height > 0 else 1.0
        fx = (x - u.min_x) / step_x if step_x > 0 else 0.0
        fy = (y - u.min_y) / step_y if step_y > 0 else 0.0
        # A subnormal step overflows the ratio for far-away points: an
        # infinite ratio is past the edge, and the clamp below keeps it.
        ix = int(fx) if not math.isinf(fx) else (-1 if fx < 0 else self._nx)
        iy = int(fy) if not math.isinf(fy) else (-1 if fy < 0 else self._ny)
        return (min(max(ix, 0), self._nx - 1), min(max(iy, 0), self._ny - 1))

    def _partition_of_point(self, x: float, y: float) -> int:
        ix, iy = self._cell_of(x, y)
        node = self._tree
        while isinstance(node, _Split):
            coord = ix if node.axis == 0 else iy
            node = node.low if coord < node.cut else node.high
        return node

    # -- diagnostics --------------------------------------------------------

    @property
    def universe(self) -> Envelope:
        return self._universe

    @property
    def max_cost_per_partition(self) -> int:
        return self._max_cost

    @property
    def side_length(self) -> float:
        return self._side_length

    def __repr__(self) -> str:
        return (
            f"BSPartitioner(partitions={self.num_partitions}, "
            f"max_cost={self._max_cost}, side_length={self._side_length:g})"
        )

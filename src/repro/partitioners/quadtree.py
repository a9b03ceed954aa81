"""A quadtree spatial partitioner.

GeoSpark's partitioner family includes a quadtree; STARK's evaluation
compares against it, so the reproduction provides one on STARK's own
centroid-assignment model for the partitioner ablation: a region splits
into its four quadrants whenever it holds more than
``max_cost_per_partition`` items (and is still larger than
``min_side_length``), recursing into dense areas like the BSP but with
fixed split geometry (always the center, always 4 ways) instead of
cost-balanced cuts.

The interesting ablation contrast: quadtree splits are cheap and
regular but blind to where the mass actually sits inside a quadrant,
so on skewed data it needs more partitions than BSP for the same
balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.geometry.envelope import Envelope
from repro.partitioners.base import (
    SpatialPartitioner,
    _representative_point,
    geometry_of,
)
from repro.partitioners.grid import _universe_of


@dataclass
class _QuadNode:
    """Internal node: center cut; children in quadrant order SW SE NW NE."""

    cx: float
    cy: float
    children: "list[_QuadNode | int]"


class QuadTreePartitioner(SpatialPartitioner):
    """Recursive 4-way splitting driven by a per-region item budget."""

    def __init__(
        self,
        sample: Iterable[Any],
        max_cost_per_partition: int = 1000,
        max_depth: int = 12,
        universe: Envelope | None = None,
    ) -> None:
        super().__init__()
        if max_cost_per_partition < 1:
            raise ValueError("max_cost_per_partition must be >= 1")
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        keys = list(sample)
        self._max_cost = max_cost_per_partition
        self._max_depth = max_depth
        self._universe = universe or _universe_of(keys)

        points = []
        for key in keys:
            geom = geometry_of(key)
            if not geom.is_empty:
                points.append(_representative_point(geom))

        leaves: list[Envelope] = []
        self._tree = self._build(self._universe, points, 0, leaves)
        self._bounds = leaves

    @staticmethod
    def from_rdd(
        rdd,
        max_cost_per_partition: int = 1000,
        max_depth: int = 12,
        universe: Envelope | None = None,
    ) -> "QuadTreePartitioner":
        return QuadTreePartitioner(
            rdd.keys().collect(), max_cost_per_partition, max_depth, universe
        )

    def _build(
        self,
        region: Envelope,
        points: list[tuple[float, float]],
        depth: int,
        leaves: list[Envelope],
    ) -> "_QuadNode | int":
        degenerate = region.width <= 0 or region.height <= 0
        if len(points) <= self._max_cost or depth >= self._max_depth or degenerate:
            leaves.append(region)
            return len(leaves) - 1
        cx, cy = region.center()
        quadrants = [
            Envelope(region.min_x, region.min_y, cx, cy),  # SW
            Envelope(cx, region.min_y, region.max_x, cy),  # SE
            Envelope(region.min_x, cy, cx, region.max_y),  # NW
            Envelope(cx, cy, region.max_x, region.max_y),  # NE
        ]
        buckets: list[list[tuple[float, float]]] = [[], [], [], []]
        for p in points:
            buckets[self._quadrant_of(p[0], p[1], cx, cy)].append(p)
        node = _QuadNode(cx, cy, [])
        for quadrant, bucket in zip(quadrants, buckets):
            node.children.append(self._build(quadrant, bucket, depth + 1, leaves))
        return node

    @staticmethod
    def _quadrant_of(x: float, y: float, cx: float, cy: float) -> int:
        # Ties on the center lines go to the lower/left quadrant, making
        # assignment a total function consistent with _build's bucketing.
        return (1 if x > cx else 0) + (2 if y > cy else 0)

    def _partition_of_point(self, x: float, y: float) -> int:
        node = self._tree
        while isinstance(node, _QuadNode):
            node = node.children[self._quadrant_of(x, y, node.cx, node.cy)]
        return node

    @property
    def universe(self) -> Envelope:
        return self._universe

    @property
    def max_cost_per_partition(self) -> int:
        return self._max_cost

    def __repr__(self) -> str:
        return (
            f"QuadTreePartitioner(partitions={self.num_partitions}, "
            f"max_cost={self._max_cost})"
        )

"""The spatial partitioner base class: cells, and key -> cell.

STARK's key partitioning decisions (paper section 2.1):

1. A non-point geometry is assigned to **one** partition only, chosen
   by its *centroid* -- no replication, no duplicate pruning.
2. Because members can stick out of their partition's bounds, pruning
   needs each partition's **extent** -- the min/max of every member's
   envelope.  That is a property of the partitioned data, not of the
   partitioner: it is measured from the RDD's partitions (see
   :mod:`repro.core.summaries`), so a partitioner only maps keys to
   cells, whatever data it was built from.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import Any, Iterable

from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.spark.partitioner import Partitioner


def geometry_of(key: Any) -> Geometry:
    """Extract the geometry from a partition key.

    Keys are :class:`~repro.core.stobject.STObject` instances in normal
    use, but bare geometries are accepted so the partitioners work on
    spatial-only pipelines too.
    """
    geo = getattr(key, "geo", None)
    if isinstance(geo, Geometry):
        return geo
    if isinstance(key, Geometry):
        return key
    raise TypeError(
        f"spatial partitioner keys must be STObject or Geometry, got {type(key).__name__}"
    )


def _representative_point(geom: Geometry) -> tuple[float, float]:
    """The centroid used for single-partition assignment."""
    c = geom.centroid()
    if c.is_empty:
        raise ValueError("cannot partition an empty geometry")
    return (c.x, c.y)


class SpatialPartitioner(Partitioner):
    """Base class: concrete partitioners define the cells (and leave
    their bounds in ``_bounds``), this class maps keys to them.

    Invariant: any two cells are separated along ``x`` or ``y`` -- one
    cell's max edge is ``<=`` the other's min edge on that axis, with
    shared edges as the same float -- so cells have pairwise disjoint
    interiors.  Grid and BSP cells both are.  MR-DBSCAN relies
    on it: a point more than ``eps`` inside its home cell on all four
    sides is, on the same float subtraction, more than ``eps`` from
    every other cell.
    """

    def __init__(self) -> None:
        self._bounds: list[Envelope] = []

    # -- subclass contract -----------------------------------------------

    @abstractmethod
    def _partition_of_point(self, x: float, y: float) -> int:
        """The cell containing (or nearest to) a point; total over R^2."""

    # -- Partitioner API ----------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._bounds)

    def get_partition(self, key: Any) -> int:
        x, y = _representative_point(geometry_of(key))
        return self._partition_of_point(x, y)

    def partition_of_point(self, x: float, y: float) -> int:
        """Public point-lookup (used by kNN's home-partition phase)."""
        return self._partition_of_point(x, y)

    # -- bounds -----------------------------------------------------------

    def partition_bounds(self, pid: int) -> Envelope:
        """The designed region of partition *pid*."""
        return self._bounds[pid]

    def partitions_within_distance(
        self, x: float, y: float, max_distance: float
    ) -> list[int]:
        """Partition ids whose bounds come within *max_distance* of a point.

        Which cells a point's neighbourhood reaches into (MR-DBSCAN's
        eps-border replication); where the *members* of a partition
        reach is :func:`repro.core.summaries.partitions_within`.

        Cells are tested inline on :meth:`Envelope.distance_to_point`'s
        arithmetic, and a cell farther away along one axis is rejected
        before ``hypot`` runs: the answer is the same bit for bit.
        """
        found = []
        for pid, bounds in enumerate(self._bounds):
            min_x, max_x = bounds.min_x, bounds.max_x
            if min_x > max_x:
                raise ValueError("distance undefined for empty envelopes")
            if min_x - x > max_distance or x - max_x > max_distance:
                continue
            min_y, max_y = bounds.min_y, bounds.max_y
            if min_y - y > max_distance or y - max_y > max_distance:
                continue
            dx = max(min_x - x, x - max_x, 0.0)
            dy = max(min_y - y, y - max_y, 0.0)
            if math.hypot(dx, dy) <= max_distance:
                found.append(pid)
        return found

    # -- diagnostics ---------------------------------------------------------

    def imbalance(self, keys: Iterable[Any]) -> float:
        """Max/mean ratio of partition sizes for *keys* (1.0 = perfectly even).

        The statistic behind the paper's motivation: "if the partition
        sizes are not balanced, a single worker node has to perform all
        the work while other nodes idle".
        """
        counts = [0] * self.num_partitions
        total = 0
        for key in keys:
            counts[self.get_partition(key)] += 1
            total += 1
        if total == 0:
            return 1.0
        mean = total / self.num_partitions
        return max(counts) / mean if mean else 1.0

    def __eq__(self, other: object) -> bool:
        # Cells only: what data a partitioner was built from is no part of it.
        return (
            type(other) is type(self)
            and other._bounds == self._bounds  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self), tuple(self._bounds)))

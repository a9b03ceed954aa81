"""A time-sliced R-tree forest: the hybrid temporal index.

STARK's live indexing evaluates the temporal predicate only during
candidate refinement, so a temporally-selective query over a long
history still collects (and refines) every spatial candidate.  The
forest fuses a time dimension into the partition-local index instead,
following the HBase hybrid spatio-temporal index model:

- timed entries are split into **equi-depth time slices** (split points
  at start-time quantiles, so skewed histories stay balanced),
- each slice owns its own :class:`~repro.index.rtree.STRTree` over the
  members' spatial envelopes,
- the slice *extents* (each slice's true covering interval, grown by
  its members) route a timed query to the few slices that can
  contribute; at most ``DEFAULT_MAX_SLICES`` of them, so an in-order
  scan is the whole directory,
- untimed entries live in one extra spatial-only tree, consulted only
  by untimed queries (a mixed timed/untimed pair never matches under
  the paper's combined semantics, eqs. (1)-(3)).

A query that touches 10% of the time range therefore opens ~10% of the
slice trees; the rest are pruned without touching a single envelope.
"""

from __future__ import annotations

import math
from typing import Callable, Generic, Iterator, TypeVar

from repro.geometry.envelope import Envelope
from repro.index.rtree import DEFAULT_NODE_CAPACITY, STRTree
from repro.temporal.interval import Interval, TemporalExpression

T = TypeVar("T")

#: Upper bound on the automatically-chosen slice count.
DEFAULT_MAX_SLICES = 16


def auto_slice_count(timed_entries: int, node_capacity: int) -> int:
    """A reasonable slice count for *timed_entries* members.

    Grows with the square root of the number of leaf-sized groups so
    the per-slice trees stay shallow and the scan over slice extents
    short; clamped to ``[1, DEFAULT_MAX_SLICES]``.
    """
    if timed_entries <= 0:
        return 1
    groups = timed_entries / max(1, node_capacity)
    return max(1, min(DEFAULT_MAX_SLICES, math.ceil(math.sqrt(groups))))


class TimeSlicedForest(Generic[T]):
    """Per-partition hybrid index: equi-depth time slices of STR-trees.

    ``entries`` are ``(STObject, V)`` pairs -- the same rows the plain
    spatial index stores -- and the stored items are those pairs, so
    the query results feed the exact same refinement step.
    """

    def __init__(
        self,
        entries,
        node_capacity: int = DEFAULT_NODE_CAPACITY,
        time_slices: int | None = None,
    ) -> None:
        if node_capacity < 2:
            raise ValueError(f"node capacity must be >= 2, got {node_capacity}")
        if time_slices is not None and time_slices < 1:
            raise ValueError(f"time_slices must be >= 1, got {time_slices}")
        self.node_capacity = node_capacity

        timed: list = []
        untimed: list = []
        for kv in entries:
            (untimed if kv[0].time is None else timed).append(kv)

        num_slices = time_slices or auto_slice_count(len(timed), node_capacity)
        num_slices = min(num_slices, max(1, len(timed)))

        # Equi-depth slicing over start times: sort once, chunk evenly.
        timed.sort(key=lambda kv: kv[0].time.start)
        self._slices: list[STRTree] = []
        self._extents: list[Interval] = []
        size = math.ceil(len(timed) / num_slices) if timed else 0
        for i in range(0, len(timed), max(1, size)):
            chunk = timed[i : i + size]
            if not chunk:
                continue
            lo = min(kv[0].time.start for kv in chunk)
            hi = max(kv[0].time.end for kv in chunk)
            self._slices.append(
                STRTree(
                    ((kv[0].geo.envelope, kv) for kv in chunk),
                    node_capacity=node_capacity,
                )
            )
            # The slice extent is the members' true covering interval:
            # an interval can stick out of its slice's start range
            # exactly like a polygon sticks out of its grid cell.
            self._extents.append(Interval(lo, hi))
        self._untimed: STRTree | None = (
            STRTree(
                ((kv[0].geo.envelope, kv) for kv in untimed),
                node_capacity=node_capacity,
            )
            if untimed
            else None
        )
        self._size = len(timed) + len(untimed)

    def __len__(self) -> int:
        return self._size

    @property
    def num_slices(self) -> int:
        """How many time slices the timed entries were packed into."""
        return len(self._slices)

    @property
    def slice_extents(self) -> list[Interval]:
        """The true covering interval of each slice, in slice order."""
        return list(self._extents)

    @property
    def untimed_count(self) -> int:
        """How many entries carry no temporal component."""
        return len(self._untimed) if self._untimed is not None else 0

    @property
    def envelope(self) -> Envelope:
        """Spatial bounds over every member tree."""
        env = Envelope.empty()
        for tree in self._slices:
            env = env.merge(tree.envelope)
        if self._untimed is not None:
            env = env.merge(self._untimed.envelope)
        return env

    @property
    def temporal_extent(self) -> Interval | None:
        """The covering interval of all timed entries, or ``None``."""
        if not self._extents:
            return None
        return Interval(
            min(extent.start for extent in self._extents),
            max(extent.end for extent in self._extents),
        )

    # -- queries -----------------------------------------------------------

    def query_st(
        self, region: Envelope, time: TemporalExpression | None
    ) -> tuple[list[T], int]:
        """``(candidates, slices_pruned)`` for a spatio-temporal probe.

        A timed query opens only the slices whose extents meet its
        interval (closed bounds) and never opens the untimed tree; an
        untimed query consults *only* the untimed tree -- both
        directions follow the combined semantics where a mixed
        timed/untimed pair cannot match.
        """
        if time is None:
            if self._untimed is None:
                return [], len(self._slices)
            return self._untimed.query(region), len(self._slices)
        lo, hi = time.start, time.end
        keep = [
            idx
            for idx, extent in enumerate(self._extents)
            if extent.start <= hi and lo <= extent.end
        ]
        out: list[T] = []
        for idx in keep:
            out.extend(self._slices[idx].query(region))
        return out, len(self._slices) - len(keep)

    def query(self, region: Envelope) -> list[T]:
        """All spatial candidates regardless of time (no pruning).

        This is the spatial-index contract, used by operators that have
        no temporal component to route on (e.g. flattening, joins).
        """
        out: list[T] = []
        for tree in self._slices:
            out.extend(tree.query(region))
        if self._untimed is not None:
            out.extend(self._untimed.query(region))
        return out

    def iter_entries(self) -> Iterator[tuple[Envelope, T]]:
        """Every (envelope, item) entry across all member trees."""
        for tree in self._slices:
            yield from tree.iter_entries()
        if self._untimed is not None:
            yield from self._untimed.iter_entries()

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        exact_distance: Callable[[T], float] | None = None,
        bound_slack: float = 0.0,
    ) -> list[tuple[float, T]]:
        """The *k* spatially-nearest items, merged across member trees.

        Each member tree answers its local top-k by branch-and-bound;
        the forest merges the lists.  kNN carries no temporal predicate,
        so every tree participates.
        """
        import heapq

        best: list[tuple[float, T]] = []
        trees = list(self._slices)
        if self._untimed is not None:
            trees.append(self._untimed)
        for tree in trees:
            best.extend(
                tree.nearest(
                    x, y, k, exact_distance=exact_distance, bound_slack=bound_slack
                )
            )
        return heapq.nsmallest(k, best, key=lambda pair: pair[0])

    def __repr__(self) -> str:
        return (
            f"TimeSlicedForest(size={self._size}, slices={len(self._slices)}, "
            f"untimed={self.untimed_count}, capacity={self.node_capacity})"
        )


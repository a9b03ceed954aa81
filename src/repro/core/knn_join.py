"""The kNN join: for every left item, its k nearest right items.

A standard companion operator to the paper's kNN search (and part of
the follow-up STARK work): ``knn_join(left, right, k)`` emits
``((lk, lv), [(distance, (rk, rv)), ...])`` with the k nearest right
rows per left row, ascending by Euclidean distance.

Execution: the right side's per-partition STR-trees are built once per
join, or once per persisted right RDD, as in the spatial join.  Each
left partition then probes trees in ascending order of partition-extent
distance and stops as soon as the k-th best distance beats the next
tree's extent distance -- the same bound that drives the two-phase kNN
search, applied per probe point.
"""

from __future__ import annotations

import heapq
from typing import Iterator, TypeVar

from repro.core.knn import exact_distance_to, query_radius
from repro.core.stobject import STObject
from repro.core.summaries import partition_summaries
from repro.index import partition_index
from repro.index.rtree import STRTree
from repro.spark.rdd import RDD

V = TypeVar("V")
W = TypeVar("W")


class KnnJoinRDD(RDD[tuple]):
    """One output partition per left partition; the right side is
    indexed once per persisted RDD, otherwise once per join."""

    def __init__(self, left: RDD, right: RDD, k: int, index_order: int) -> None:
        super().__init__(left.context, [left, right])
        self._left = left
        self._k = k
        self._right_trees = partition_index(right, index_order).persist()
        self._right_extents = [s.envelope for s in partition_summaries(right)]

    @property
    def num_partitions(self) -> int:
        return self._left.num_partitions

    def compute(self, split: int) -> Iterator[tuple]:
        k = self._k
        candidates = [
            (pid, extent)
            for pid, extent in enumerate(self._right_extents)
            if not extent.is_empty
        ]
        trees: dict[int, STRTree] = {}

        for left_kv in self._left.iterator(split):
            left_geom = left_kv[0].geo
            centroid = left_geom.centroid()
            cx, cy = centroid.x, centroid.y
            # For extended probe geometries the exact distance can
            # undercut envelope-to-centroid bounds by up to the
            # geometry's radius; slacken every bound by it.
            radius = query_radius(left_geom)
            exact = exact_distance_to(left_geom)
            # Probe right partitions nearest-extent-first; once the k-th
            # best beats the next extent's lower bound, stop.
            order = sorted(
                candidates, key=lambda pe: pe[1].distance_to_point(cx, cy)
            )
            best: list[tuple[float, tuple]] = []
            for pid, extent in order:
                bound = extent.distance_to_point(cx, cy) - radius
                if len(best) == k and bound > best[-1][0]:
                    break
                tree = trees.get(pid)
                if tree is None:
                    tree = next(self._right_trees.iterator(pid))
                    trees[pid] = tree
                local = tree.nearest(cx, cy, k, exact_distance=exact, bound_slack=radius)
                best = heapq.nsmallest(k, best + local, key=lambda p: p[0])
            yield (left_kv, best)


def knn_join(
    left: RDD, right: RDD, k: int, index_order: int = 10
) -> RDD:
    """For each row of *left*, the *k* nearest rows of *right*.

    Distances are exact geometry-to-geometry Euclidean distances.  When
    *right* has fewer than *k* rows, each result list is correspondingly
    shorter.  Self-joins include the identity pair (distance 0), like
    every standard kNN-join definition.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # Planning (right-extent computation) runs eagerly in the
    # constructor; the span captures it.  The joined RDD's name tags the
    # probe-side job spans when an action runs.
    with left.context.tracer.span("knn_join.plan", k=k):
        joined = KnnJoinRDD(left, right, k, index_order)
    return joined.set_name("knn_join")

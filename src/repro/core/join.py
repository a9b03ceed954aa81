"""Spatio-temporal join (paper section 2.3).

``spatial_join(left, right, predicate)`` emits every pair
``((lk, lv), (rk, rv))`` with ``predicate(lk, rk)`` true.  Execution:

- **Partition-pair enumeration.**  Every (left partition, right
  partition) pair whose *actual extents* (the envelopes of the
  partitions' members, from :mod:`repro.core.summaries`) can satisfy
  the predicate becomes one join task.  Without spatial partitioning the
  extents are unconstrained and all ``n x m`` pairs run -- the paper's
  "no partitioning" configuration.  With a good spatial partitioner
  the pair list collapses to near-diagonal, which is exactly where the
  Figure-4 speed-up comes from.
- **Local join.**  Each task probes the right block's STR-tree (live
  indexing, built once per join or per persisted right RDD) with every
  left item's candidate region that meets the tree's bounds and refines
  candidates exactly.  With ``index_order=None`` a nested loop with
  envelope pre-test runs instead.

Because STARK assigns each item to exactly one partition (centroid
assignment, no replication), every qualifying pair is produced by
exactly one task: no duplicate elimination is needed -- one of the
design differences to the replication-based baselines that the
benchmarks ablate.
"""

from __future__ import annotations

from typing import Iterator, TypeVar

from repro.core.predicates import STPredicate
from repro.core.summaries import partition_summaries
from repro.geometry.envelope import Envelope
from repro.index import partition_index
from repro.index.rtree import STRTree
from repro.spark.cancellation import Heartbeat
from repro.spark.rdd import RDD

V = TypeVar("V")
W = TypeVar("W")


def candidate_partition_pairs(
    left_extents: list[Envelope],
    right_extents: list[Envelope],
    predicate: STPredicate,
) -> list[tuple[int, int]]:
    """All (i, j) pairs whose extents can hold a qualifying pair.

    The test -- left extent intersects the candidate region of the right
    extent -- is necessary for every supported predicate: intersecting,
    containing or near geometries always have intersecting (or, for
    withinDistance, buffered-intersecting) envelopes, and extents cover
    the members' envelopes.  Empty partitions never pair.
    """
    pairs: list[tuple[int, int]] = []
    regions = [predicate.candidate_region(env) for env in right_extents]
    for i, left_env in enumerate(left_extents):
        if left_env.is_empty:
            continue
        for j, region in enumerate(regions):
            if right_extents[j].is_empty:
                continue
            if left_env.intersects(region):
                pairs.append((i, j))
    return pairs


class SpatialJoinRDD(RDD[tuple]):
    """One partition per surviving (left, right) partition pair.

    With live indexing, the right side's per-partition STR-trees come
    from a cached tree RDD (:func:`repro.index.partition_index`), so each
    right partition is indexed **once per persisted RDD** -- shared by
    every join that reads it -- and otherwise once per join, no matter
    how many left partitions pair with it.
    """

    def __init__(
        self,
        left: RDD,
        right: RDD,
        predicate: STPredicate,
        pairs: list[tuple[int, int]],
        index_order: int | None,
    ) -> None:
        super().__init__(left.context, [left, right])
        self._left = left
        self._right = right
        self._predicate = predicate
        self._pairs = pairs
        self._index_order = index_order
        self._right_trees = None
        if index_order is not None:
            self._right_trees = partition_index(right, index_order).persist()

    @property
    def num_partitions(self) -> int:
        return len(self._pairs)

    def compute(self, split: int) -> Iterator[tuple]:
        left_split, right_split = self._pairs[split]
        predicate = self._predicate
        # A join partition can evaluate millions of candidate pairs; the
        # heartbeat keeps a cancelled/overdue task from running it out.
        heartbeat = Heartbeat(every=1024)

        if self._right_trees is not None:
            tree: STRTree = next(self._right_trees.iterator(right_split))
            if len(tree) == 0:
                return
            # Unpartitioned sides pair every left item with every tree:
            # a region that misses the tree's bounds skips the probe.
            bounds = tree.envelope
            for left_kv in self._left.iterator(left_split):
                region = predicate.candidate_region(left_kv[0].geo.envelope)
                if not bounds.intersects(region):
                    continue
                for right_kv in tree.query(region):
                    heartbeat.beat()
                    if predicate.evaluate(left_kv[0], right_kv[0]):
                        yield (left_kv, right_kv)
        else:
            right_block = list(self._right.iterator(right_split))
            if not right_block:
                return
            for left_kv in self._left.iterator(left_split):
                left_env = left_kv[0].geo.envelope
                for right_kv in right_block:
                    heartbeat.beat()
                    if predicate.envelope_test(
                        left_env, right_kv[0].geo.envelope
                    ) and predicate.evaluate(left_kv[0], right_kv[0]):
                        yield (left_kv, right_kv)


def spatial_join(
    left: RDD,
    right: RDD,
    predicate: STPredicate,
    index_order: int | None = 10,
    prune_pairs: bool = True,
) -> RDD:
    """Join two ``RDD[(STObject, V)]`` on a spatio-temporal predicate.

    ``index_order`` enables live indexing of the right blocks (the
    usual mode); ``None`` selects the nested-loop local join.  With
    ``prune_pairs=False`` every partition pair is evaluated regardless
    of extents (the ablation knob for measuring what extent-based pair
    pruning is worth).
    """
    tracer = left.context.tracer
    total = left.num_partitions * right.num_partitions
    with tracer.span("join.plan", prune=prune_pairs) as span:
        if prune_pairs:
            left_extents = [s.envelope for s in partition_summaries(left)]
            right_extents = [s.envelope for s in partition_summaries(right)]
            pairs = candidate_partition_pairs(left_extents, right_extents, predicate)
        else:
            pairs = [
                (i, j)
                for i in range(left.num_partitions)
                for j in range(right.num_partitions)
            ]
        span.attrs["pairs"] = len(pairs)
        span.attrs["pairs_pruned"] = total - len(pairs)
    left.context.metrics.partitions_pruned += total - len(pairs)
    if tracer.enabled and total > len(pairs):
        tracer.add("partitions_pruned", total - len(pairs))
    joined = SpatialJoinRDD(left, right, predicate, pairs, index_order)
    return joined.set_name(
        "join.live_index" if index_order is not None else "join.nested_loop"
    )

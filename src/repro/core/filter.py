"""Spatio-temporal filter execution (paper sections 2.1-2.2).

A filter evaluates one predicate between every item of an
``RDD[(STObject, V)]`` and a single query ``STObject``.  Execution
composes four independent choices, matching the paper's design plus
the hybrid-index extension:

1. **Partition pruning** -- when the RDD was partitioned in space
   and/or time, only the partitions whose measured *summary* (members'
   envelope and time range, :mod:`repro.core.summaries`) can satisfy
   the predicate are computed at all (a
   :class:`~repro.spark.rdd.PartitionPruningRDD` hides the rest) -- in
   every indexing mode alike.
2. **No indexing** -- every surviving item is checked with the exact
   predicate (after the cheap envelope pre-test).
3. **Live indexing** -- each partition's content is bulk-loaded into a
   partition-local index first (``mode="spatial"`` for the paper's
   STR-tree, ``"3d"`` for the (x, y, t) STR bulk load), the index is
   queried for candidates, and the candidates are refined with the
   exact spatial *and* temporal predicate.  A persisted RDD is
   bulk-loaded once and its indexes are reused by every later query.
4. **Predicate order** -- refinement evaluates spatial-first (the
   paper's behaviour) or temporal-first (two float comparisons before
   any geometry work), chosen by the cost-based planner.

Attribution: every index probe adds its candidate count to
``metrics.index_candidates`` and the current task span
(``index.candidates``), and whole-partition temporal pruning counts
into ``metrics.partitions_pruned_temporal``.
"""

from __future__ import annotations

from typing import Iterator, TypeVar

from repro.core.predicates import STPredicate
from repro.core.stobject import STObject
from repro.core.summaries import (
    known_summaries,
    partition_summaries,
    partitions_matching,
)
from repro.index import partition_index
from repro.partitioners.base import SpatialPartitioner
from repro.partitioners.temporal import (
    SpatioTemporalPartitioner,
    TemporalRangePartitioner,
)
from repro.spark.rdd import RDD, PartitionPruningRDD

V = TypeVar("V")


def _note_probe(context, candidates: int) -> None:
    """Attribute one index probe to metrics and the current task span."""
    context.metrics.index_candidates += candidates
    tracer = context.tracer
    if tracer.enabled and candidates:
        tracer.add("index.candidates", candidates)


def prune_partitions(
    rdd: RDD, query: STObject, predicate: STPredicate, target: RDD | None = None
) -> RDD:
    """Drop partitions whose summary cannot satisfy *predicate* for *query*.

    The measuring job runs only for an RDD partitioned in space and/or
    time; any other RDD is pruned when its summaries happen to be known
    already (a join or the planner measured it) and passes through
    untouched otherwise -- a one-shot RDD (every streaming micro-batch)
    never pays a pass to avoid a pass.  Pruning is always conservative:
    the summary test is necessary for a match, never sufficient, so no
    result can be lost.  *target*, laid out like *rdd*, is pruned instead.
    """
    target = rdd if target is None else target
    if isinstance(
        rdd.partitioner,
        (SpatialPartitioner, TemporalRangePartitioner, SpatioTemporalPartitioner),
    ):
        summaries = partition_summaries(rdd)
    else:
        summaries = known_summaries(rdd)
        if summaries is None:
            return target
    region = predicate.candidate_region(query.geo.envelope)
    keep, missed_in_time = partitions_matching(summaries, region, query.time)
    if missed_in_time:
        context = rdd.context
        context.metrics.partitions_pruned_temporal += missed_in_time
        if context.tracer.enabled:
            context.tracer.add("index.temporal_pruned_partitions", missed_in_time)
    if len(keep) == rdd.num_partitions:
        return target
    return PartitionPruningRDD(target, keep)


def filter_no_index(
    rdd: RDD,
    query: STObject,
    predicate: STPredicate,
    prune: bool = True,
    temporal_first: bool = False,
) -> RDD:
    """Filter by scanning every item of every surviving partition.

    ``temporal_first`` evaluates the temporal clause before the
    envelope pre-test and spatial predicate -- the cheap rejection for
    temporally-selective queries.
    """
    base = prune_partitions(rdd, query, predicate) if prune else rdd
    query_env = query.geo.envelope

    if temporal_first:

        def keep(kv: tuple[STObject, V]) -> bool:
            key = kv[0]
            return (
                predicate.temporal_clause(key, query)
                and predicate.envelope_test(key.geo.envelope, query_env)
                and predicate.spatial(key.geo, query.geo)
            )

    else:

        def keep(kv: tuple[STObject, V]) -> bool:
            key = kv[0]
            return predicate.envelope_test(
                key.geo.envelope, query_env
            ) and predicate.evaluate(key, query)

    # The name is the operator tag the scheduler stamps on job spans.
    return base.filter(keep).set_name("filter.no_index")


def _probe_and_refine(
    trees: RDD, query: STObject, predicate: STPredicate, temporal_first: bool
) -> RDD:
    """Probe every partition-local index of *trees*, refine the candidates."""
    region = predicate.candidate_region(query.geo.envelope)
    query_time = query.time
    context = trees.context

    def run_partition(it: Iterator) -> Iterator[tuple[STObject, V]]:
        for tree in it:
            # Candidates match on bounding boxes (and, for time-aware
            # modes, time ranges) only; refinement applies the exact
            # spatial and temporal predicates.
            candidates = tree.query_st(region, query_time)
            _note_probe(context, len(candidates))
            for kv in candidates:
                if predicate.evaluate_ordered(kv[0], query, temporal_first):
                    yield kv

    return trees.map_partitions(run_partition, preserves_partitioning=True)


def filter_live_index(
    rdd: RDD,
    query: STObject,
    predicate: STPredicate,
    order: int = 10,
    prune: bool = True,
    mode: str = "spatial",
    temporal_first: bool = False,
) -> RDD:
    """Filter with live indexing: build, query, refine -- per partition.

    ``mode`` picks the partition-index structure (see
    :func:`repro.index.build_partition_index`); time-aware modes route
    the query's temporal component through the index so temporally-
    pruned candidates are never materialized at all.  A persisted *rdd*
    builds its indexes once (:func:`repro.index.partition_index`).
    """
    trees = partition_index(rdd, order, mode)
    if prune:
        trees = prune_partitions(rdd, query, predicate, trees)
    return _probe_and_refine(trees, query, predicate, temporal_first).set_name(
        "filter.live_index"
    )


def filter_indexed(
    index_rdd: RDD,
    query: STObject,
    predicate: STPredicate,
    temporal_first: bool = False,
) -> RDD:
    """Filter an RDD of per-partition indexes (persistent index mode).

    ``index_rdd`` holds one partition-local index (STR-tree or 3D tree)
    per partition whose entries are ``(STObject, V)`` pairs.  Partitions
    are pruned on their summaries -- read off the trees, or restored
    with a reloaded index -- before any index is opened.
    """
    base = prune_partitions(index_rdd, query, predicate)
    return _probe_and_refine(base, query, predicate, temporal_first).set_name(
        "filter.indexed"
    )

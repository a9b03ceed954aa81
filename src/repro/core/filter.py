"""Spatio-temporal filter execution (paper sections 2.1-2.2).

A filter evaluates one predicate between every item of an
``RDD[(STObject, V)]`` and a single query ``STObject``.  Execution
composes four independent choices, matching the paper's design plus
the hybrid-index extension:

1. **Partition pruning** -- when the RDD carries a
   :class:`~repro.partitioners.base.SpatialPartitioner`, only the
   partitions whose *extent* can satisfy the predicate are computed at
   all (a :class:`~repro.spark.rdd.PartitionPruningRDD` hides the rest).
   Indexed RDDs additionally prune on recorded *temporal* partition
   extents: a timed query skips partitions whose time range misses.
2. **No indexing** -- every surviving item is checked with the exact
   predicate (after the cheap envelope pre-test).
3. **Live indexing** -- each partition's content is bulk-loaded into a
   partition-local index first (``mode="spatial"`` for the paper's
   STR-tree, ``"temporal"`` for the time-sliced forest, ``"3d"`` for
   the (x, y, t) STR bulk load), the index is queried for candidates,
   and the candidates are refined with the exact spatial *and* temporal
   predicate.
4. **Predicate order** -- refinement evaluates spatial-first (the
   paper's behaviour) or temporal-first (two float comparisons before
   any geometry work), chosen by the cost-based planner.

Attribution: every index probe adds its candidate count to
``metrics.index_candidates`` and the current task span
(``index.candidates``); time-sliced probes additionally record the
slices skipped (``metrics.index_slices_pruned``,
``index.temporal_pruned``), and whole-partition temporal pruning
counts into ``metrics.partitions_pruned_temporal``.
"""

from __future__ import annotations

from typing import Iterator, TypeVar

from repro.core.predicates import STPredicate
from repro.core.stobject import STObject
from repro.index import build_partition_index
from repro.partitioners.base import SpatialPartitioner
from repro.spark.rdd import RDD, PartitionPruningRDD
from repro.temporal.interval import Interval

V = TypeVar("V")


def _note_probe(context, candidates: int, slices_pruned: int) -> None:
    """Attribute one index probe to metrics and the current task span."""
    context.metrics.index_candidates += candidates
    tracer = context.tracer
    if slices_pruned:
        context.metrics.index_slices_pruned += slices_pruned
        if tracer.enabled:
            tracer.add("index.temporal_pruned", slices_pruned)
    if tracer.enabled and candidates:
        tracer.add("index.candidates", candidates)


def prune_partitions(
    rdd: RDD, query: STObject, predicate: STPredicate
) -> RDD:
    """Drop partitions whose extent cannot satisfy *predicate* for *query*.

    Understands spatial partitioners (prune by spatial extent), the
    temporal-range extension (prune by temporal extent) and the
    spatio-temporal product (prune on both axes); a no-op for anything
    else.  Pruning is always conservative: the extent test is necessary
    for a match, never sufficient, so no result can be lost.
    """
    from repro.partitioners.temporal import (
        SpatioTemporalPartitioner,
        TemporalRangePartitioner,
    )

    partitioner = rdd.partitioner
    keep: list[int] | None = None
    if isinstance(partitioner, SpatialPartitioner):
        region = predicate.candidate_region(query.geo.envelope)
        keep = partitioner.partitions_intersecting(region)
    elif isinstance(partitioner, TemporalRangePartitioner):
        # Temporally partitioned data is all timed; a query without a
        # temporal component can never match (eqs. (1)-(3)), so every
        # partition prunes away.
        keep = (
            partitioner.partitions_intersecting(query.time)
            if query.time is not None
            else []
        )
    elif isinstance(partitioner, SpatioTemporalPartitioner):
        if query.time is None:
            keep = []  # all members are timed; an untimed query never matches
        else:
            region = predicate.candidate_region(query.geo.envelope)
            keep = partitioner.partitions_intersecting(region, query.time)
    if keep is None or len(keep) == rdd.num_partitions:
        return rdd
    return PartitionPruningRDD(rdd, keep)


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


def filter_live_index(
    rdd: RDD,
    query: STObject,
    predicate: STPredicate,
    order: int = 10,
    prune: bool = True,
    mode: str = "spatial",
    time_slices: int | None = None,
    temporal_first: bool = False,
) -> RDD:
    """Filter with live indexing: build, query, refine -- per partition.

    ``mode`` picks the partition-index structure (see
    :func:`repro.index.build_partition_index`); time-aware modes route
    the query's temporal component through the index so temporally-
    pruned candidates are never materialized at all.
    """
    base = prune_partitions(rdd, query, predicate) if prune else rdd
    region = predicate.candidate_region(query.geo.envelope)
    query_time = query.time
    context = rdd.context

    def run_partition(it: Iterator[tuple[STObject, V]]) -> Iterator[tuple[STObject, V]]:
        tree = build_partition_index(list(it), order, mode, time_slices)
        # Candidates match on bounding boxes (and, for time-aware
        # modes, time ranges) only; refinement applies the exact
        # spatial and temporal predicates.
        candidates, slices_pruned = tree.query_st(region, query_time)
        _note_probe(context, len(candidates), slices_pruned)
        for kv in candidates:
            if predicate.evaluate_ordered(kv[0], query, temporal_first):
                yield kv

    return base.map_partitions(run_partition, preserves_partitioning=True).set_name(
        "filter.live_index"
    )


def prune_temporal_partitions(
    rdd: RDD,
    query_time,
    temporal_extents: list | None,
) -> RDD:
    """Prune whole partitions whose temporal extent misses *query_time*.

    ``temporal_extents`` holds one ``Interval | None`` per partition
    (``None`` = no timed members) as recorded at index build time; a
    ``None`` list disables the optimization (e.g. an index loaded from
    a pre-extent layout).  Untimed members cannot match a timed query
    under the combined semantics, so a partition is kept only when its
    timed extent intersects.  An untimed query prunes nothing here.
    """
    if query_time is None or temporal_extents is None:
        return rdd
    if len(temporal_extents) != rdd.num_partitions:
        return rdd  # stale metadata; pruning must stay conservative
    keep = [
        pid
        for pid, extent in enumerate(temporal_extents)
        if extent is not None
        and extent.start <= query_time.end
        and query_time.start <= extent.end
    ]
    if len(keep) == rdd.num_partitions:
        return rdd
    pruned = PartitionPruningRDD(rdd, keep)
    context = rdd.context
    dropped = rdd.num_partitions - len(keep)
    context.metrics.partitions_pruned_temporal += dropped
    if context.tracer.enabled:
        context.tracer.add("index.temporal_pruned_partitions", dropped)
    return pruned


def filter_indexed(
    index_rdd: RDD,
    query: STObject,
    predicate: STPredicate,
    partitioner: SpatialPartitioner | None = None,
    temporal_extents: list[Interval | None] | None = None,
    temporal_first: bool = False,
) -> RDD:
    """Filter an RDD of per-partition indexes (persistent index mode).

    ``index_rdd`` holds one partition-local index (STR-tree, time-
    sliced forest or 3D tree) per partition whose entries are
    ``(STObject, V)`` pairs.  When the partitioner that produced the
    indexes is supplied, spatial partition pruning applies before any
    index is opened; with recorded ``temporal_extents``, a timed query
    additionally prunes whole partitions in time.
    """
    region = predicate.candidate_region(query.geo.envelope)
    base = index_rdd
    if partitioner is not None:
        keep = partitioner.partitions_intersecting(region)
        if len(keep) < index_rdd.num_partitions:
            base = PartitionPruningRDD(index_rdd, keep)
            if temporal_extents is not None:
                temporal_extents = [temporal_extents[pid] for pid in keep]
    base = prune_temporal_partitions(base, query.time, temporal_extents)
    query_time = query.time
    context = index_rdd.context

    def run_partition(trees: Iterator) -> Iterator[tuple[STObject, V]]:
        for tree in trees:
            candidates, slices_pruned = tree.query_st(region, query_time)
            _note_probe(context, len(candidates), slices_pruned)
            for kv in candidates:
                if predicate.evaluate_ordered(kv[0], query, temporal_first):
                    yield kv

    return base.map_partitions(run_partition, preserves_partitioning=True).set_name(
        "filter.indexed"
    )

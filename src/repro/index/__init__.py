"""Spatial and temporal index structures.

One STR kernel (:mod:`repro.index.rtree`: bulk load, box merge, range
traversal, branch-and-bound kNN over plain float-tuple boxes) with
three faces:

- :class:`~repro.index.rtree.STRTree` -- the Sort-Tile-Recursive bulk-
  loaded R-tree, the reproduction of the JTS STRtree STARK uses for
  partition-local indexing (paper section 2.2),
- :class:`~repro.index.temporal_forest.TimeSlicedForest` -- the hybrid
  temporal index: equi-depth time slices of STR-trees behind an
  interval-tree slice directory (``mode="temporal"``),
- :class:`~repro.index.rtree3d.STRTree3D` -- the same tree tiled over
  (x, y, t) boxes, fusing the time dimension into it (``mode="3d"``),

and beside them:

- :class:`~repro.index.intervaltree.IntervalTree` -- a static interval
  tree for temporal lookups; it backs the forest's slice directory,
- :mod:`~repro.index.persistence` -- save/load helpers implementing the
  *persistent indexing* mode.

:func:`build_partition_index` is the one factory every indexing call
path goes through, so ``live_index(mode=...)`` / ``index(mode=...)``
and the cost-based planner all agree on what each mode means;
:func:`partition_index` is the one place it is called from.  Every kind
answers ``query_st(region, time) -> (candidates, slices_pruned)``.
"""

from repro.index.intervaltree import IntervalTree
from repro.index.rtree import STRTree
from repro.index.rtree3d import STRTree3D
from repro.index.temporal_forest import TimeSlicedForest

#: The partition-index modes ``live_index`` / ``index`` accept.
INDEX_MODES = ("spatial", "temporal", "3d")


def build_partition_index(
    entries,
    order: int = 10,
    mode: str = "spatial",
    time_slices: int | None = None,
):
    """Build one partition-local index over ``(STObject, V)`` pairs.

    ``mode`` selects the structure: ``"spatial"`` (a plain STR-tree,
    temporal predicate left to refinement -- the paper's behaviour),
    ``"temporal"`` (a :class:`TimeSlicedForest`) or ``"3d"`` (an
    :class:`STRTree3D`).  ``time_slices`` applies to the forest only.
    """
    if mode not in INDEX_MODES:
        raise ValueError(f"unknown index mode {mode!r}; known: {INDEX_MODES}")
    if mode == "temporal":
        return TimeSlicedForest(entries, node_capacity=order, time_slices=time_slices)
    if mode == "3d":
        return STRTree3D.for_stobjects(entries, node_capacity=order)
    return STRTree(
        ((kv[0].geo.envelope, kv) for kv in entries), node_capacity=order
    )


def partition_index(
    rdd, order: int = 10, mode: str = "spatial", time_slices: int | None = None
):
    """The RDD of *rdd*'s partition indexes, one per partition.

    A persisted *rdd* is indexed once: the first call builds every
    partition in one job and keeps the persisted trees in the RDD's
    driver memo under ``(mode, order, time_slices)`` until
    ``rdd.unpersist()``; each later call is counted in
    ``metrics.index_cache_hits``.  Any other RDD gets lazy trees, built
    while the calling query runs -- the paper's live mode.
    """
    from repro.core.summaries import driver_memo  # repro.core imports this package

    key = (mode, order, time_slices)
    if rdd._cached and key in driver_memo(rdd):
        rdd.context.metrics.index_cache_hits += 1
        return driver_memo(rdd)[key]
    if mode not in INDEX_MODES:
        raise ValueError(f"unknown index mode {mode!r}; known: {INDEX_MODES}")

    def build(it):
        yield build_partition_index(list(it), order, mode, time_slices)

    trees = rdd.map_partitions(build, preserves_partitioning=True)
    if rdd._cached:
        trees.persist().count()  # one job: no two tasks build one split
        driver_memo(rdd)[key] = trees
    return trees


__all__ = [
    "INDEX_MODES",
    "IntervalTree",
    "STRTree",
    "STRTree3D",
    "TimeSlicedForest",
    "build_partition_index",
    "partition_index",
]

"""Spatial and spatio-temporal index structures.

One STR kernel (:mod:`repro.index.rtree`: bulk load, box merge, range
traversal, branch-and-bound kNN over plain float-tuple boxes) with two
faces:

- :class:`~repro.index.rtree.STRTree` -- the Sort-Tile-Recursive bulk-
  loaded R-tree, the reproduction of the JTS STRtree STARK uses for
  partition-local indexing (paper section 2.2, ``mode="spatial"``),
- :class:`~repro.index.rtree3d.STRTree3D` -- the same tree tiled over
  (x, y, t) boxes, fusing the time dimension into it (``mode="3d"``),

and beside them :mod:`~repro.index.persistence`, the save/load helpers
implementing the *persistent indexing* mode.

:func:`build_partition_index` is the one factory every indexing call
path goes through, so ``live_index(mode=...)`` / ``index(mode=...)``
and the cost-based planner all agree on what each mode means;
:func:`partition_index` is the one place it is called from.  Both kinds
answer ``query_st(region, time) -> candidates``.
"""

from repro.index.rtree import STRTree
from repro.index.rtree3d import STRTree3D

#: The partition-index modes ``live_index`` / ``index`` accept.
INDEX_MODES = ("spatial", "3d")


def build_partition_index(entries, order: int = 10, mode: str = "spatial"):
    """Build one partition-local index over ``(STObject, V)`` pairs.

    ``mode`` selects the structure: ``"spatial"`` (a plain STR-tree,
    temporal predicate left to refinement -- the paper's behaviour) or
    ``"3d"`` (an :class:`STRTree3D`).
    """
    if mode not in INDEX_MODES:
        raise ValueError(f"unknown index mode {mode!r}; known: {INDEX_MODES}")
    if mode == "3d":
        return STRTree3D.for_stobjects(entries, node_capacity=order)
    return STRTree(
        ((kv[0].geo.envelope, kv) for kv in entries), node_capacity=order
    )


def partition_index(rdd, order: int = 10, mode: str = "spatial"):
    """The RDD of *rdd*'s partition indexes, one per partition.

    A persisted *rdd* is indexed once: the first call builds every
    partition in one job and keeps the persisted trees in the RDD's
    driver memo under ``(mode, order)`` until ``rdd.unpersist()``; each
    later call is counted in ``metrics.index_cache_hits``.  Any other
    RDD gets lazy trees, built while the calling query runs -- the
    paper's live mode.
    """
    from repro.core.summaries import driver_memo  # repro.core imports this package

    key = (mode, order)
    if rdd._cached and key in driver_memo(rdd):
        rdd.context.metrics.index_cache_hits += 1
        return driver_memo(rdd)[key]
    if mode not in INDEX_MODES:
        raise ValueError(f"unknown index mode {mode!r}; known: {INDEX_MODES}")

    def build(it):
        yield build_partition_index(list(it), order, mode)

    trees = rdd.map_partitions(build, preserves_partitioning=True)
    if rdd._cached:
        trees.persist().count()  # one job: no two tasks build one split
        driver_memo(rdd)[key] = trees
    return trees


__all__ = [
    "INDEX_MODES",
    "STRTree",
    "STRTree3D",
    "build_partition_index",
    "partition_index",
]

"""The STARK DSL: spatio-temporal operations on plain RDDs.

STARK integrates with Spark through an implicit conversion: any
``RDD[(STObject, V)]`` transparently gains the spatio-temporal
operations (paper section 2.3).  Python has no implicits, so the
reproduction offers the same seamlessness two ways:

- :func:`spatial` wraps an RDD in :class:`SpatialRDDFunctions`
  explicitly (the "helper class" of the paper), and
- :func:`install_rdd_integration` (invoked on package import) attaches
  the operator methods directly to the :class:`~repro.spark.rdd.RDD`
  class, so the paper's examples translate literally::

      events = raw_input.map(lambda r: (STObject(r.wkt, r.time), (r.id, r.category)))
      contain = events.containedBy(qry)
      intersect = events.liveIndex(order=5).intersect(qry)

Both camelCase (paper-faithful) and snake_case spellings exist.

Indexing modes (paper section 2.2) map to:

- *no indexing*      -- call the operators directly,
- *live indexing*    -- ``rdd.liveIndex(order, partitioner)`` then call
  the same operators on the returned handle,
- *persistent*       -- ``rdd.index(order, partitioner)`` returns an
  :class:`IndexedSpatialRDD` of per-partition STR-trees that can be
  queried *and* saved with ``save(path)``, then reloaded in another
  program with :meth:`IndexedSpatialRDD.load` -- no extra run needed
  just to persist, exactly as the paper describes.
"""

from __future__ import annotations

from repro.core import filter as filter_ops
from repro.core import join as join_ops
from repro.core import knn as knn_ops
from repro.core.clustering.mr_dbscan import dbscan
from repro.core.colocation import colocation_patterns
from repro.core.knn_join import knn_join as knn_join_op
from repro.core.predicates import (
    CONTAINED_BY,
    CONTAINS,
    INTERSECTS,
    STPredicate,
    resolve_predicate,
    within_distance_predicate,
)
from repro.core.stobject import STObject
from repro.core.summaries import partition_summaries, restore_summaries
from repro.geometry.distance import DistanceFunction, euclidean
from repro.index import partition_index, persistence
from repro.partitioners.base import SpatialPartitioner
from repro.spark.rdd import RDD

DEFAULT_INDEX_ORDER = 10


def _as_query(query: STObject | str) -> STObject:
    return query if isinstance(query, STObject) else STObject(query)


class _PredicateFilters:
    """The four predicate filters, and their camelCase aliases, of every
    batch handle; a handle supplies ``_filter(query, predicate)``, which
    picks the scan, the live index or the stored trees."""

    def intersects(self, query: STObject | str) -> RDD:
        """Items whose spatial/temporal components intersect the query."""
        return self._filter(_as_query(query), INTERSECTS)

    def contains(self, query: STObject | str) -> RDD:
        """Items that completely contain the query object."""
        return self._filter(_as_query(query), CONTAINS)

    def contained_by(self, query: STObject | str) -> RDD:
        """Items completely contained by the query object."""
        return self._filter(_as_query(query), CONTAINED_BY)

    def within_distance(
        self,
        query: STObject | str,
        max_distance: float,
        distance_fn: str | DistanceFunction = euclidean,
    ) -> RDD:
        """Items within *max_distance* of the query (pluggable metric)."""
        predicate = within_distance_predicate(max_distance, distance_fn)
        return self._filter(_as_query(query), predicate)

    # aliases: the paper's Scala API is camelCase and says ``intersect``
    intersect = intersects
    containedBy = contained_by
    withinDistance = within_distance


class SpatialRDDFunctions(_PredicateFilters):
    """Spatio-temporal operations over an ``RDD[(STObject, V)]``.

    The wrapped RDD's partitioner drives pruning automatically: after
    ``rdd.partition_by(GridPartitioner(...))`` every operation skips
    partitions whose measured extent cannot contribute.
    """

    def __init__(self, rdd: RDD) -> None:
        self._rdd = rdd

    @property
    def rdd(self) -> RDD:
        """The underlying RDD."""
        return self._rdd

    def _filter(self, query: STObject, predicate: STPredicate) -> RDD:
        return filter_ops.filter_no_index(self._rdd, query, predicate)

    def filter(self, query: STObject | str, predicate: str | STPredicate) -> RDD:
        """Filter with a predicate given by name or instance."""
        return self._filter(_as_query(query), resolve_predicate(predicate))

    # -- join / kNN / clustering ---------------------------------------------

    def join(
        self,
        other: "RDD | SpatialRDDFunctions",
        predicate: str | STPredicate = INTERSECTS,
        index_order: int | None = DEFAULT_INDEX_ORDER,
        prune_pairs: bool = True,
    ) -> RDD:
        """Spatio-temporal join; see :func:`repro.core.join.spatial_join`."""
        other_rdd = other.rdd if isinstance(other, SpatialRDDFunctions) else other
        return join_ops.spatial_join(
            self._rdd,
            other_rdd,
            resolve_predicate(predicate),
            index_order=index_order,
            prune_pairs=prune_pairs,
        )

    def knn(
        self,
        query: STObject | str,
        k: int,
        distance_fn: str | DistanceFunction = euclidean,
    ) -> knn_ops.KnnResult:
        """The k nearest items, ascending ``[(distance, (STObject, V))]``."""
        return knn_ops.knn(self._rdd, _as_query(query), k, distance_fn)

    def knn_join(
        self,
        other: "RDD | SpatialRDDFunctions",
        k: int,
        index_order: int = DEFAULT_INDEX_ORDER,
    ) -> RDD:
        """For each row, the k nearest rows of *other*;
        see :func:`repro.core.knn_join.knn_join`."""
        other_rdd = other.rdd if isinstance(other, SpatialRDDFunctions) else other
        return knn_join_op(self._rdd, other_rdd, k, index_order)

    def cluster(
        self,
        eps: float,
        min_pts: int,
        partitioner: SpatialPartitioner | None = None,
    ) -> RDD:
        """DBSCAN; returns ``RDD[(STObject, (V, cluster_label))]``."""
        return dbscan(self._rdd, eps, min_pts, partitioner)

    def colocation(self, distance: float, min_participation: float = 0.0) -> list:
        """Co-location patterns over ``RDD[(STObject, category)]``;
        see :func:`repro.core.colocation.colocation_patterns`."""
        return colocation_patterns(self._rdd, distance, min_participation)

    # -- partitioning & indexing ------------------------------------------

    def partition_by(self, partitioner: SpatialPartitioner) -> "SpatialRDDFunctions":
        """Spatially repartition; subsequent operations prune partitions."""
        return SpatialRDDFunctions(self._rdd.partition_by(partitioner))

    def live_index(
        self,
        order: int = DEFAULT_INDEX_ORDER,
        partitioner: SpatialPartitioner | None = None,
    ) -> "LiveIndexedSpatialRDDFunctions":
        """Live indexing mode: build an R-tree per partition at query time.

        The optional *partitioner* repartitions the RDD before indexing,
        matching the paper's ``liveIndex(order, partitioner)`` signature.
        The trees are the paper's 2D STR-trees; only :meth:`filter_planned`
        builds the (x, y, t) tree.
        """
        rdd = self._rdd if partitioner is None else self._rdd.partition_by(partitioner)
        return LiveIndexedSpatialRDDFunctions(rdd, order)

    def index(
        self,
        order: int = DEFAULT_INDEX_ORDER,
        partitioner: SpatialPartitioner | None = None,
    ) -> "IndexedSpatialRDD":
        """Persistent-index mode: materialize one 2D STR-tree per partition.

        The returned handle answers queries immediately *and* can be
        saved, so no extra run is needed just to persist the index.
        Over a persisted RDD it owns a view of the trees live queries
        share, so unpersisting the handle frees nothing they use.
        """
        rdd = self._rdd if partitioner is None else self._rdd.partition_by(partitioner)
        trees = partition_index(rdd, order)
        if rdd._cached:
            trees = trees.map_partitions(iter, preserves_partitioning=True)
        return IndexedSpatialRDD(trees.persist(), order=order)

    # -- planning ----------------------------------------------------------

    def plan(
        self, query: STObject | str, predicate: str | STPredicate = INTERSECTS
    ):
        """The planner's plan for filtering this RDD with *query*.

        Returns a :class:`repro.planner.FilterPlan`; inspect it with
        ``.explain()`` or run it with :meth:`filter_planned`.
        """
        from repro.planner import QueryPlanner

        return QueryPlanner(self._rdd.context).plan_filter(
            self._rdd, _as_query(query), resolve_predicate(predicate)
        )

    def explain(
        self, query: STObject | str, predicate: str | STPredicate = INTERSECTS
    ) -> str:
        """A human-readable rendering of :meth:`plan` for *query*."""
        return self.plan(query, predicate).explain()

    def filter_planned(
        self, query: STObject | str, predicate: str | STPredicate = INTERSECTS
    ) -> RDD:
        """Filter with the execution strategy the planner's rule picks.

        Equivalent results to the unplanned operators -- the plan only
        decides the index structure, predicate order and pruning route.
        """
        from repro.planner import QueryPlanner

        return QueryPlanner(self._rdd.context).execute(
            self._rdd, _as_query(query), resolve_predicate(predicate)
        )

    kNN = knn
    liveIndex = live_index
    partitionBy = partition_by
    filterPlanned = filter_planned


class LiveIndexedSpatialRDDFunctions(_PredicateFilters):
    """Operations on a live-indexed RDD (paper's ``liveIndex`` handle).

    Nothing is materialized here: each operation builds the per-
    partition trees while it runs (once, for a persisted RDD), queries
    them, and refines candidates.
    """

    def __init__(self, rdd: RDD, order: int) -> None:
        if order < 2:
            raise ValueError(f"index order must be >= 2, got {order}")
        self._rdd = rdd
        self._order = order

    @property
    def rdd(self) -> RDD:
        """The underlying (possibly repartitioned) RDD."""
        return self._rdd

    def _filter(self, query: STObject, predicate: STPredicate) -> RDD:
        return filter_ops.filter_live_index(self._rdd, query, predicate, self._order)

    def join(
        self,
        other: "RDD | SpatialRDDFunctions",
        predicate: str | STPredicate = INTERSECTS,
        prune_pairs: bool = True,
    ) -> RDD:
        """Spatio-temporal join using this handle's index order."""
        other_rdd = other.rdd if isinstance(other, SpatialRDDFunctions) else other
        return join_ops.spatial_join(
            self._rdd,
            other_rdd,
            resolve_predicate(predicate),
            index_order=self._order,
            prune_pairs=prune_pairs,
        )


class IndexedSpatialRDD(_PredicateFilters):
    """A materialized index: one index tree per partition (persistent mode).

    Queries prune whole partitions on the trees' partition summaries
    (:mod:`repro.core.summaries`: space *and* time, read off the trees)
    before a single tree is opened, exactly as the unindexed path does.
    """

    def __init__(self, tree_rdd: RDD, order: int | None = None) -> None:
        self._trees = tree_rdd
        self._order = order

    @property
    def tree_rdd(self) -> RDD:
        """The underlying RDD of per-partition index trees."""
        return self._trees

    @property
    def partitioner(self) -> SpatialPartitioner | None:
        """The spatial partitioner the trees were laid out by, if one was."""
        partitioner = self._trees.partitioner
        return partitioner if isinstance(partitioner, SpatialPartitioner) else None

    def _filter(self, query: STObject, predicate: STPredicate) -> RDD:
        return filter_ops.filter_indexed(self._trees, query, predicate)

    def knn(self, query: STObject | str, k: int) -> knn_ops.KnnResult:
        """The k nearest items, pruned through the stored trees."""
        return knn_ops.knn_indexed(self._trees, _as_query(query), k, self.partitioner)

    def entries(self) -> RDD:
        """Flatten back to the underlying ``RDD[(STObject, V)]``."""
        flattened = self._trees.flat_map(lambda tree: tree.items())
        flattened.partitioner = self._trees.partitioner
        return flattened

    def save(self, path: str) -> None:
        """Persist the trees' rows, partitioner and partition summaries,
        so a reloaded index prunes without touching the data again."""
        persistence.save_index(
            self._trees,
            path,
            self.partitioner,
            order=self._order,
            summaries=partition_summaries(self._trees),
        )

    @staticmethod
    def load(context, path: str) -> "IndexedSpatialRDD":
        """Reload an index written by :meth:`save`.

        Each tree is bulk-loaded again from its saved rows as a 2D STR-tree.
        Tolerant of damage: an unreadable part is read from the recovery
        copy and corrupt metadata merely disables pruning (see
        :mod:`repro.index.persistence`).  The trees are persisted: they
        stay in the context's block cache until ``unpersist()``.
        """
        tree_rdd, summaries = persistence.load_index(context, path)
        if summaries is not None:
            restore_summaries(tree_rdd, summaries)
        return IndexedSpatialRDD(tree_rdd.persist(), order=tree_rdd._order)

    kNN = knn


def spatial(rdd: RDD) -> SpatialRDDFunctions:
    """Wrap an ``RDD[(STObject, V)]`` with the spatio-temporal operations."""
    return SpatialRDDFunctions(rdd)


_INSTALLED = False

#: (RDD method name, SpatialRDDFunctions callable) pairs attached by
#: :func:`install_rdd_integration`.  ``intersect`` is the paper's
#: spelling for the filter.
_RDD_METHODS = {
    "intersect": "intersects",
    "intersects": "intersects",
    "contains": "contains",
    "containedBy": "contained_by",
    "contained_by": "contained_by",
    "withinDistance": "within_distance",
    "within_distance": "within_distance",
    "kNN": "knn",
    "knn": "knn",
    "cluster": "cluster",
    "liveIndex": "live_index",
    "live_index": "live_index",
    "index": "index",
    "spatialJoin": "join",
    "spatial_join": "join",
    "kNNJoin": "knn_join",
    "knn_join": "knn_join",
    "colocation": "colocation",
    "stPlan": "plan",
    "st_plan": "plan",
    "stExplain": "explain",
    "st_explain": "explain",
    "filterPlanned": "filter_planned",
    "filter_planned": "filter_planned",
}


def install_rdd_integration() -> None:
    """Attach the spatio-temporal operators to the RDD class itself.

    The Python stand-in for STARK's implicit conversion: after this
    (idempotent) call, the operators can be invoked directly on any
    RDD whose keys are STObjects, as in the paper's listings.
    """
    global _INSTALLED
    if _INSTALLED:
        return
    for rdd_name, fn_name in _RDD_METHODS.items():
        if hasattr(RDD, rdd_name):
            raise RuntimeError(
                f"RDD already defines {rdd_name!r}; integration would clobber it"
            )

        def make(method: str):
            def call(self: RDD, *args, **kwargs):
                return getattr(SpatialRDDFunctions(self), method)(*args, **kwargs)

            call.__name__ = method
            call.__doc__ = getattr(SpatialRDDFunctions, method).__doc__
            return call

        setattr(RDD, rdd_name, make(fn_name))
    _INSTALLED = True


install_rdd_integration()

"""The query planner: statistics + cost model -> executable plans.

:class:`QueryPlanner` is deliberately small: it collects statistics
with one job (:func:`repro.planner.stats.collect_statistics`), asks the
:class:`~repro.planner.cost.CostModel` to rank strategies for the
concrete query, and packages the winner -- with every alternative it
beat -- into a plan object whose ``explain()`` renders the decision the
way ``EXPLAIN`` does in a database.

Plans are *advisory by construction*: every strategy computes identical
results (the index modes and clause orders are equivalence-preserving),
so a wrong cost estimate can only cost time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import filter as filter_ops
from repro.core import join as join_ops
from repro.core import knn as knn_ops
from repro.core.predicates import STPredicate
from repro.core.stobject import STObject
from repro.core.summaries import driver_memo
from repro.index import INDEX_MODES, partition_index
from repro.planner.cost import CostModel, PlanEstimate
from repro.planner.stats import DatasetStatistics, collect_statistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext
    from repro.spark.rdd import RDD

#: Below this many rows, index builds never amortize; scan directly.
SMALL_DATASET_ROWS = 64

#: Spatial-skew threshold above which a uniform grid loses to
#: cost-balancing partitioners (0.25 = perfectly uniform sample).
SKEW_THRESHOLD = 0.45

#: A query is "temporally selective" below this estimated selectivity.
TEMPORAL_SELECTIVITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class PartitionerHint:
    """A partitioner recommendation: which kind, and why.

    ``kind`` is one of ``"grid"``, ``"bsp"``, ``"quadtree"``,
    ``"temporal"``, ``"spatio-temporal"`` or ``"none"`` (keep whatever
    partitioning exists).
    """

    kind: str
    reason: str


def recommend_partitioner(
    stats: DatasetStatistics, query_timed: bool, temporal_selectivity: float
) -> PartitionerHint:
    """Pick a partitioner family from the dataset's shape.

    Skewed spatial distributions favor cost-balancing splits (BSP /
    quadtree) over a uniform grid; datasets that are almost entirely
    timed and queried with selective windows favor temporal slicing --
    combined with a spatial split when the data is also skewed.
    """
    if stats.count < SMALL_DATASET_ROWS:
        return PartitionerHint("none", f"only {stats.count} rows; not worth a shuffle")
    skew = stats.spatial_skew()
    mostly_timed = stats.timed_fraction > 0.9
    selective = query_timed and temporal_selectivity < TEMPORAL_SELECTIVITY_THRESHOLD
    if mostly_timed and selective:
        if skew > SKEW_THRESHOLD:
            return PartitionerHint(
                "spatio-temporal",
                f"{stats.timed_fraction:.0%} timed rows, selective window, "
                f"spatial skew {skew:.2f}: split in space and time",
            )
        return PartitionerHint(
            "temporal",
            f"{stats.timed_fraction:.0%} timed rows and a selective time "
            "window: whole slices prune before any task runs",
        )
    if skew > SKEW_THRESHOLD:
        return PartitionerHint(
            "bsp",
            f"spatial skew {skew:.2f} (densest quadrant share): "
            "cost-balanced binary splits beat a uniform grid",
        )
    return PartitionerHint(
        "grid", f"near-uniform distribution (skew {skew:.2f}): grid cells suffice"
    )


def _render_estimate(e: PlanEstimate, chosen: bool) -> str:
    marker = "->" if chosen else "  "
    order = "temporal-first" if e.temporal_first else "spatial-first"
    return (
        f"  {marker} {e.strategy:<14} cost={e.cost:>12.0f}  "
        f"candidates~{e.candidates:>10.0f}  [{order}] {e.detail}"
    )


@dataclass
class FilterPlan:
    """An executable filter strategy chosen by the cost model."""

    query: STObject
    predicate: STPredicate
    estimate: PlanEstimate
    alternatives: list[PlanEstimate]
    stats: DatasetStatistics
    partitioner_hint: PartitionerHint
    spatial_selectivity: float
    temporal_selectivity: float
    index_order: int = 10

    @property
    def strategy(self) -> str:
        """The winning strategy tag (``"scan"`` or ``"live:<mode>"``)."""
        return self.estimate.strategy

    @property
    def mode(self) -> str | None:
        """The index mode for live strategies, else ``None``."""
        return self.estimate.mode

    @property
    def temporal_first(self) -> bool:
        """Whether refinement evaluates the temporal clause first."""
        return self.estimate.temporal_first

    def explain(self) -> str:
        """A human-readable rendering of the decision, EXPLAIN-style."""
        s = self.stats
        lines = [
            f"FilterPlan for {self.predicate!r} on {s.count} rows "
            f"({s.num_partitions} partitions)",
            f"  statistics: timed={s.timed_fraction:.0%}  "
            f"spatial_sel~{self.spatial_selectivity:.3f}  "
            f"temporal_sel~{self.temporal_selectivity:.3f}  "
            f"skew={s.spatial_skew():.2f}",
            "  strategies considered:",
        ]
        lines.append(_render_estimate(self.estimate, chosen=True))
        lines.extend(_render_estimate(e, chosen=False) for e in self.alternatives)
        lines.append(
            f"  partitioner hint: {self.partitioner_hint.kind} "
            f"({self.partitioner_hint.reason})"
        )
        return "\n".join(lines)


@dataclass
class JoinPlan:
    """An advisory join strategy (index order + partitioner family)."""

    index_order: int | None
    partitioner_hint: PartitionerHint
    left_count: int
    right_count: int
    reason: str

    def explain(self) -> str:
        """A human-readable rendering of the join recommendation."""
        indexing = (
            f"live index (order {self.index_order}) on the right side"
            if self.index_order is not None
            else "nested-loop per partition pair (no index)"
        )
        return "\n".join(
            [
                f"JoinPlan over {self.left_count} x {self.right_count} rows",
                f"  indexing: {indexing}",
                f"  reason: {self.reason}",
                f"  partitioner hint: {self.partitioner_hint.kind} "
                f"({self.partitioner_hint.reason})",
            ]
        )


@dataclass
class KnnPlan:
    """An advisory kNN strategy (scan vs persistent index probing)."""

    use_index: bool
    partitioner_hint: PartitionerHint
    count: int
    k: int
    reason: str

    def explain(self) -> str:
        """A human-readable rendering of the kNN recommendation."""
        route = (
            "probe per-partition trees (persistent index)"
            if self.use_index
            else "scan with per-partition top-k"
        )
        return "\n".join(
            [
                f"KnnPlan for k={self.k} over {self.count} rows",
                f"  route: {route}",
                f"  reason: {self.reason}",
                f"  partitioner hint: {self.partitioner_hint.kind} "
                f"({self.partitioner_hint.reason})",
            ]
        )


class QueryPlanner:
    """Plans and executes spatio-temporal operations cost-based.

    One planner instance can serve many queries; statistics are memoized
    per RDD, and a persisted RDD's built indexes are priced as built.
    """

    def __init__(
        self,
        context: "SparkContext",
        model: CostModel | None = None,
        sample_target: int = 512,
        index_order: int = 10,
    ) -> None:
        self._context = context
        self._model = model or CostModel()
        self._sample_target = sample_target
        self._index_order = index_order

    @property
    def model(self) -> CostModel:
        """The cost model this planner ranks strategies with."""
        return self._model

    def statistics(self, rdd: "RDD") -> DatasetStatistics:
        """Collect statistics for *rdd* (one job)."""
        return collect_statistics(rdd, self._sample_target)

    def plan_filter(
        self,
        rdd: "RDD",
        query: STObject,
        predicate: STPredicate,
        stats: DatasetStatistics | None = None,
        require_index: bool = False,
        repetitions: int = 1,
    ) -> FilterPlan:
        """Choose the cheapest filter strategy for *query* on *rdd*.

        ``require_index=True`` restricts the choice to the live-index
        strategies -- the question becomes *which index mode*, matching
        a caller that holds (or intends to persist) an indexed handle.
        ``repetitions`` amortizes build cost over that many queries.
        """
        stats = stats or self.statistics(rdd)
        region = predicate.candidate_region(query.geo.envelope)
        ss = stats.spatial_selectivity(region)
        st = stats.temporal_selectivity(query.time)
        query_timed = query.time is not None
        memo = driver_memo(rdd) if rdd._cached else {}
        estimates = self._model.filter_estimates(
            stats.count,
            ss,
            st,
            query_timed,
            stats.timed_fraction,
            partitions=stats.num_partitions,
            repetitions=repetitions,
            cached_modes=frozenset(
                m for m in INDEX_MODES if (m, self._index_order, None) in memo
            ),
        )
        if require_index:
            live = [e for e in estimates if e.strategy != "scan"]
            rest = [e for e in estimates if e.strategy == "scan"]
            estimates = live + rest
        elif stats.count < SMALL_DATASET_ROWS:
            # Index builds cannot amortize on tiny data regardless of
            # what the asymptotic model says; pin the scan.
            scans = [e for e in estimates if e.strategy == "scan"]
            rest = [e for e in estimates if e.strategy != "scan"]
            estimates = scans + rest
        best, alternatives = estimates[0], estimates[1:]
        return FilterPlan(
            query=query,
            predicate=predicate,
            estimate=best,
            alternatives=alternatives,
            stats=stats,
            partitioner_hint=recommend_partitioner(stats, query_timed, st),
            spatial_selectivity=ss,
            temporal_selectivity=st,
            index_order=self._index_order,
        )

    def execute(
        self,
        rdd: "RDD",
        query: STObject,
        predicate: STPredicate,
        plan: FilterPlan | None = None,
    ) -> "RDD":
        """Run the (given or freshly computed) filter plan on *rdd*."""
        plan = plan or self.plan_filter(rdd, query, predicate)
        tracer = self._context.tracer
        if tracer.enabled:
            tracer.add("planner.strategy." + plan.strategy.replace(":", "_"), 1)
        if plan.strategy == "scan":
            return filter_ops.filter_no_index(
                rdd, plan.query, plan.predicate, temporal_first=plan.temporal_first
            )
        return filter_ops.filter_live_index(
            rdd,
            plan.query,
            plan.predicate,
            plan.index_order,
            mode=plan.mode,
            temporal_first=plan.temporal_first,
        )

    def plan_join(
        self,
        left: "RDD",
        right: "RDD",
        predicate: STPredicate,
        left_stats: DatasetStatistics | None = None,
        right_stats: DatasetStatistics | None = None,
    ) -> JoinPlan:
        """Recommend a join strategy (advisory; join results never change)."""
        left_stats = left_stats or self.statistics(left)
        right_stats = right_stats or self.statistics(right)
        pairs = left_stats.count * right_stats.count
        if pairs < SMALL_DATASET_ROWS * SMALL_DATASET_ROWS:
            order = None
            reason = (
                f"{pairs} candidate pairs: nested loops beat the build cost"
            )
        else:
            order = self._index_order
            reason = (
                f"{pairs} candidate pairs: index the right side once per "
                "partition pair"
            )
        timed = min(left_stats.timed_fraction, right_stats.timed_fraction)
        hint = recommend_partitioner(
            right_stats if right_stats.count > left_stats.count else left_stats,
            query_timed=timed > 0.9,
            temporal_selectivity=0.0 if timed > 0.9 else 1.0,
        )
        return JoinPlan(
            index_order=order,
            partitioner_hint=hint,
            left_count=left_stats.count,
            right_count=right_stats.count,
            reason=reason,
        )

    def execute_join(
        self,
        left: "RDD",
        right: "RDD",
        predicate: STPredicate,
        plan: JoinPlan | None = None,
    ) -> "RDD":
        """Run the (given or freshly computed) join plan."""
        plan = plan or self.plan_join(left, right, predicate)
        return join_ops.spatial_join(
            left, right, predicate, index_order=plan.index_order
        )

    def plan_knn(
        self,
        rdd: "RDD",
        query: STObject,
        k: int,
        stats: DatasetStatistics | None = None,
    ) -> KnnPlan:
        """Recommend a kNN route for *query* over *rdd*."""
        stats = stats or self.statistics(rdd)
        # Index probing pays off when the data dwarfs the result: the
        # tree touches O(log n + k) entries per partition vs n for scan.
        use_index = stats.count > max(
            SMALL_DATASET_ROWS, 50 * max(1, k)
        )
        reason = (
            f"{stats.count} rows >> k={k}: tree descent prunes most entries"
            if use_index
            else f"{stats.count} rows with k={k}: scanning is already cheap"
        )
        return KnnPlan(
            use_index=use_index,
            partitioner_hint=recommend_partitioner(
                stats, query_timed=False, temporal_selectivity=1.0
            ),
            count=stats.count,
            k=k,
            reason=reason,
        )

    def execute_knn(
        self,
        rdd: "RDD",
        query: STObject,
        k: int,
        plan: KnnPlan | None = None,
    ) -> knn_ops.KnnResult:
        """Run the (given or freshly computed) kNN plan."""
        plan = plan or self.plan_knn(rdd, query, k)
        if plan.use_index:
            from repro.core.spatial_rdd import IndexedSpatialRDD

            trees = partition_index(rdd, self._index_order)
            return IndexedSpatialRDD(trees).knn(query, k)
        return knn_ops.knn(rdd, query, k)

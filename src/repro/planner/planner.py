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

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import filter as filter_ops
from repro.core.predicates import STPredicate
from repro.core.spatial_rdd import DEFAULT_INDEX_ORDER
from repro.core.stobject import STObject
from repro.core.summaries import driver_memo
from repro.planner.cost import RANKED_MODES, CostModel, PlanEstimate
from repro.planner.stats import DatasetStatistics, collect_statistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext
    from repro.spark.rdd import RDD

#: Below this many rows, index builds never amortize; scan directly.
SMALL_DATASET_ROWS = 64


def _render_estimate(e: PlanEstimate, chosen: bool) -> str:
    marker = "->" if chosen else "  "
    order = "temporal-first" if e.temporal_first else "spatial-first"
    return (
        f"  {marker} {e.strategy:<14} cost={e.cost:>12.0f}  "
        f"build={e.build_cost:>10.0f}  "
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
    spatial_selectivity: float
    temporal_selectivity: float
    joint_selectivity: float

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
            f"joint_sel~{self.joint_selectivity:.4f}",
            "  strategies considered:",
        ]
        lines.append(_render_estimate(self.estimate, chosen=True))
        lines.extend(_render_estimate(e, chosen=False) for e in self.alternatives)
        return "\n".join(lines)


class QueryPlanner:
    """Plans and executes spatio-temporal filters cost-based.

    One planner instance can serve many queries; statistics are memoized
    per RDD, and on a persisted RDD, which keeps its indexes, modes are
    ranked by per-query cost.
    Live indexes use order :data:`~repro.core.spatial_rdd.
    DEFAULT_INDEX_ORDER`; *model* swaps in other cost constants.
    """

    def __init__(
        self,
        context: "SparkContext",
        model: CostModel | None = None,
    ) -> None:
        self._context = context
        self._model = model or CostModel()

    @property
    def model(self) -> CostModel:
        """The cost model this planner ranks strategies with."""
        return self._model

    def statistics(self, rdd: "RDD") -> DatasetStatistics:
        """Statistics for *rdd* (one job, the first time)."""
        return collect_statistics(rdd)

    def plan_filter(
        self,
        rdd: "RDD",
        query: STObject,
        predicate: STPredicate,
        stats: DatasetStatistics | None = None,
        require_index: bool = False,
    ) -> FilterPlan:
        """Choose the cheapest filter strategy for *query* on *rdd*.

        ``require_index=True`` restricts the choice to the live-index
        strategies -- the question becomes *which index mode*, matching
        a caller that holds (or intends to persist) an indexed handle.
        """
        stats = stats or self.statistics(rdd)
        region = predicate.candidate_region(query.geo.envelope)
        ss, st, sj = stats.selectivities(region, query.time)
        memo = driver_memo(rdd) if rdd._cached else {}
        estimates = self._model.filter_estimates(
            stats.count,
            ss,
            st,
            sj,
            query.time is not None,
            partitions=stats.num_partitions,
            persisted=rdd._cached,
            built_modes=frozenset(
                m for m in RANKED_MODES if (m, DEFAULT_INDEX_ORDER, None) in memo
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
            spatial_selectivity=ss,
            temporal_selectivity=st,
            joint_selectivity=sj,
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
            DEFAULT_INDEX_ORDER,
            mode=plan.mode,
            temporal_first=plan.temporal_first,
        )

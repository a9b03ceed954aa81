"""The query planner: sampled statistics + one rule -> executable plans.

:class:`QueryPlanner` collects statistics with one job
(:func:`repro.planner.stats.collect_statistics`) and applies one rule to
them:

- without ``require_index``, an RDD that is not persisted, or one below
  :data:`SMALL_DATASET_ROWS` rows, is scanned -- an index built for one
  query never pays for its build;
- otherwise it probes the ``3d`` tree when any row is timed, and the
  ``spatial`` STR-tree when none is;
- refinement runs the temporal clause first exactly when the sampled
  temporal selectivity is below the spatial one; a ``3d`` probe has
  pruned on time already and refines spatial-first.

The plan records the candidate rows each strategy would send to
refinement, and ``explain()`` renders the clause that decided, the way
``EXPLAIN`` does in a database.  Plans are *advisory by construction*:
every strategy computes identical results (the index modes and clause
orders are equivalence-preserving), so a poor pick costs time, never
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import filter as filter_ops
from repro.core.predicates import STPredicate
from repro.core.spatial_rdd import DEFAULT_INDEX_ORDER
from repro.core.stobject import STObject
from repro.planner.stats import DatasetStatistics, collect_statistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext
    from repro.spark.rdd import RDD

#: Below this many rows, index builds never amortize; scan directly.
SMALL_DATASET_ROWS = 64

#: The strategies a plan lists, in the order ``explain()`` shows them.
STRATEGIES = ("scan", "live:spatial", "live:3d")


@dataclass(frozen=True)
class PlanEstimate:
    """One strategy as the rule sees it.

    ``strategy`` is ``"scan"`` or ``"live:<mode>"``; ``candidates`` is
    how many rows are expected to reach exact-predicate refinement
    (every row for a scan).  ``reason`` is the clause of the rule that
    decided for -- or, on an alternative, against -- this strategy.
    """

    strategy: str
    temporal_first: bool
    candidates: float
    reason: str

    @property
    def mode(self) -> str | None:
        """The index mode for live strategies, else ``None``."""
        if self.strategy.startswith("live:"):
            return self.strategy.split(":", 1)[1]
        return None


def _render_estimate(e: PlanEstimate, chosen: bool) -> str:
    marker = "->" if chosen else "  "
    order = "temporal-first" if e.temporal_first else "spatial-first"
    return (
        f"  {marker} {e.strategy:<14} candidates~{e.candidates:>10.0f}  "
        f"[{order}] {e.reason}"
    )


@dataclass
class FilterPlan:
    """An executable filter strategy chosen by the rule."""

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
        """The chosen strategy tag (``"scan"`` or ``"live:<mode>"``)."""
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
        if self.mode == "3d":
            order = "spatial-first (the 3D probe pruned on time)"
        elif self.temporal_first:
            order = "temporal-first (temporal_sel < spatial_sel)"
        else:
            order = "spatial-first (spatial_sel <= temporal_sel)"
        lines = [
            f"FilterPlan for {self.predicate!r} on {s.count} rows "
            f"({s.num_partitions} partitions)",
            f"  statistics: timed={s.timed_fraction:.0%}  "
            f"spatial_sel~{self.spatial_selectivity:.3f}  "
            f"temporal_sel~{self.temporal_selectivity:.3f}  "
            f"joint_sel~{self.joint_selectivity:.4f}",
            f"  rule: {self.estimate.reason} -> {self.strategy}, {order}",
            "  strategies:",
            _render_estimate(self.estimate, chosen=True),
        ]
        lines.extend(_render_estimate(e, chosen=False) for e in self.alternatives)
        return "\n".join(lines)


class QueryPlanner:
    """Plans and executes spatio-temporal filters by one rule.

    One planner instance can serve many queries; statistics are memoized
    per RDD.  Live indexes use order :data:`~repro.core.spatial_rdd.
    DEFAULT_INDEX_ORDER`.
    """

    def __init__(self, context: "SparkContext") -> None:
        self._context = context

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
        """Choose the filter strategy for *query* on *rdd* by the rule.

        ``require_index=True`` always probes an index -- the question
        becomes *which index mode*, matching a caller that holds (or
        intends to persist) an indexed handle.
        """
        stats = stats or self.statistics(rdd)
        region = predicate.candidate_region(query.geo.envelope)
        ss, st, sj = stats.selectivities(region, query.time)
        n = stats.count
        if require_index:
            scans, scan_clause = False, "require_index"
        elif not rdd._cached:
            scans, scan_clause = True, "not persisted"
        elif n < SMALL_DATASET_ROWS:
            scans, scan_clause = True, f"fewer than {SMALL_DATASET_ROWS} rows"
        else:
            scans, scan_clause = False, f"persisted, {n} rows"
        if stats.timed_count:
            probe, mode_clause = "live:3d", f"{stats.timed_count} of {n} rows timed"
        else:
            probe, mode_clause = "live:spatial", "no row timed"
        chosen = "scan" if scans else probe
        candidates = {"scan": float(n), "live:spatial": n * ss, "live:3d": n * sj}
        estimates = [
            PlanEstimate(
                strategy=s,
                temporal_first=s != "live:3d" and st < ss,
                candidates=candidates[s],
                reason=scan_clause if scans or s == "scan" else mode_clause,
            )
            for s in STRATEGIES
        ]
        best = next(e for e in estimates if e.strategy == chosen)
        return FilterPlan(
            query=query,
            predicate=predicate,
            estimate=best,
            alternatives=[e for e in estimates if e is not best],
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

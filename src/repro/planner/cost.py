"""The analytical cost model behind the query planner.

Costs are abstract work units, not seconds: each constant is the
*relative* price of one primitive (an envelope overlap test, an exact
geometry predicate, boxing an entry into a tree).  The model only needs
to rank strategies correctly -- absolute calibration does not matter,
which is what keeps it portable across machines.

For a filter over ``n`` rows with estimated spatial selectivity ``ss``,
temporal selectivity ``st`` and joint (space *and* time) selectivity
``sj`` the model ranks four strategies:

- **scan, spatial-first** (the paper's execution): every row pays the
  envelope pre-test, survivors pay the exact spatial then temporal
  predicate;
- **scan, temporal-first**: every row pays the (cheaper) temporal
  clause first -- two float comparisons -- and only temporal survivors
  touch geometry at all;
- **live ``spatial``** (the paper's STR-tree): ``n*ss`` candidates reach
  refinement, time is left to it;
- **live ``3d``** (the (x, y, t) tree with untimed rows in a 2D tree
  beside it): ``n*sj`` candidates, the rows whose box meets the region
  and whose time meets the window under the combined semantics.

Both index modes pay one build price per entry.  A persisted RDD keeps
its indexes until ``unpersist()``, so there the build is paid once and
the rank is the per-query cost alone; ``explain()`` still shows the
build, and ``0`` for an index that is built already.  A tie goes to
``spatial``: on all-untimed data ``3d`` holds nothing ``spatial`` does
not.  The time-sliced forest (``mode="temporal"``) is not ranked: the
3D tree's node-granular candidates never exceed its slice-granular ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

#: The index modes the model ranks.
RANKED_MODES = ("spatial", "3d")


@dataclass(frozen=True)
class CostConstants:
    """Relative prices of the execution primitives (work units)."""

    #: One envelope-vs-envelope overlap test.
    envelope_test: float = 1.0
    #: One temporal-clause evaluation (two float comparisons + None checks).
    temporal_test: float = 0.6
    #: One exact spatial predicate on real geometries.
    spatial_refine: float = 8.0
    #: Boxing one entry during an index bulk load, in every mode
    #: (amortized sort share is added separately via a log factor).
    index_build_per_item: float = 2.0
    #: Walking the tree per admitted candidate.
    index_probe_per_candidate: float = 1.2


@dataclass
class PlanEstimate:
    """One strategy's estimated cost and candidate volume.

    ``strategy`` is ``"scan"`` or ``"live:<mode>"``; ``candidates`` is
    how many rows the model expects to reach exact-predicate
    refinement (for a scan: every row that survives the first clause).
    ``cost`` is what the rank compares; ``build_cost`` is the index
    build it includes -- or, on a persisted RDD, the one-off build it
    leaves out.
    """

    strategy: str
    temporal_first: bool
    cost: float
    candidates: float
    build_cost: float = 0.0
    detail: str = ""

    @property
    def mode(self) -> str | None:
        """The index mode for live strategies, else ``None``."""
        if self.strategy.startswith("live:"):
            return self.strategy.split(":", 1)[1]
        return None


@dataclass(frozen=True)
class CostModel:
    """Ranks filter strategies from dataset statistics + selectivities."""

    constants: CostConstants = field(default_factory=CostConstants)

    def filter_estimates(
        self,
        n: int,
        spatial_selectivity: float,
        temporal_selectivity: float,
        joint_selectivity: float,
        query_timed: bool,
        partitions: int = 1,
        persisted: bool = False,
        built_modes: frozenset[str] = frozenset(),
    ) -> list[PlanEstimate]:
        """Every ranked strategy's estimate, best (cheapest) first.

        The selectivities must already follow the combined semantics
        (untimed query -> untimed rows; timed query -> timed rows whose
        interval intersects), as
        :meth:`repro.planner.stats.DatasetStatistics.selectivities`
        computes them.  On a *persisted* RDD the rank leaves the index
        build out; the indexes of a mode in ``built_modes`` are built
        already and show no build at all.
        """
        c = self.constants
        n = max(0, n)
        ss, st, sj = (
            min(1.0, max(0.0, s))
            for s in (spatial_selectivity, temporal_selectivity, joint_selectivity)
        )
        per_part = max(2.0, n / max(1, partitions))
        log_n = math.log2(per_part) if per_part > 1 else 1.0
        refine = c.spatial_refine + c.temporal_test
        build = n * c.index_build_per_item * log_n

        estimates = [
            PlanEstimate(
                strategy="scan",
                temporal_first=False,
                cost=n * (c.envelope_test + ss * refine),
                candidates=float(n),
                detail="envelope pre-test per row, spatial refinement first",
            ),
            PlanEstimate(
                strategy="scan",
                temporal_first=True,
                cost=n * (c.temporal_test + st * (c.envelope_test + c.spatial_refine)),
                candidates=float(n),
                detail="temporal clause per row, geometry only for survivors",
            ),
        ]
        for mode, candidates, temporal_first, detail in (
            (
                "spatial",
                n * ss,
                query_timed and st < ss,
                "STR-tree per partition; time left to refinement",
            ),
            (
                "3d",
                n * sj,
                False,
                "(x, y, t) STR tree, untimed rows in a 2D tree; pruning inside",
            ),
        ):
            built = mode in built_modes
            build_cost = 0.0 if built else build
            per_query = candidates * (c.index_probe_per_candidate + refine)
            estimates.append(
                PlanEstimate(
                    strategy=f"live:{mode}",
                    temporal_first=temporal_first,
                    cost=per_query if persisted else per_query + build_cost,
                    candidates=candidates,
                    build_cost=build_cost,
                    detail=detail
                    + (" (index cached)" if built else " (built once)" if persisted else ""),
                )
            )
        # Stable: a tie keeps list order -- scans first, then spatial.
        estimates.sort(key=lambda e: e.cost)
        return estimates

    def with_constants(self, **overrides) -> "CostModel":
        """A copy of the model with some constants replaced."""
        return CostModel(constants=replace(self.constants, **overrides))

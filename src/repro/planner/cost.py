"""The analytical cost model behind the query planner.

Costs are abstract work units, not seconds: each constant is the
*relative* price of one primitive (an envelope overlap test, an exact
geometry predicate, boxing an entry into a tree).  The model only needs
to rank strategies correctly -- absolute calibration does not matter,
which is what keeps it portable across machines.

For a filter over ``n`` rows with estimated spatial selectivity ``ss``
and temporal selectivity ``st`` the candidate strategies are:

- **scan, spatial-first** (the paper's execution): every row pays the
  envelope pre-test, survivors pay the exact spatial then temporal
  predicate;
- **scan, temporal-first**: every row pays the (cheaper) temporal
  clause first -- two float comparisons -- and only temporal survivors
  touch geometry at all;
- **live index per mode**: pay the per-partition build, then only the
  index's candidates reach refinement.  ``spatial`` admits ``n*ss``
  candidates, the time-aware modes admit roughly ``n*ss*st`` (the
  forest at slice granularity, the 3D tree at node granularity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

#: Effective temporal pruning floors: a time-sliced forest prunes at
#: slice granularity, a 3D tree at node granularity, so neither reaches
#: arbitrarily small effective selectivity.
FOREST_SELECTIVITY_FLOOR = 1.0 / 16.0
TREE3D_SELECTIVITY_FLOOR = 1.0 / 32.0


@dataclass(frozen=True)
class CostConstants:
    """Relative prices of the execution primitives (work units)."""

    #: One envelope-vs-envelope overlap test.
    envelope_test: float = 1.0
    #: One temporal-clause evaluation (two float comparisons + None checks).
    temporal_test: float = 0.6
    #: One exact spatial predicate on real geometries.
    spatial_refine: float = 8.0
    #: Boxing one entry during an index bulk load (amortized sort share
    #: is added separately via a log factor).
    index_build_per_item: float = 2.0
    #: Walking the tree per admitted candidate.
    index_probe_per_candidate: float = 1.2
    #: Extra per-item build price of the time-sliced forest (time sort,
    #: slice packing, directory build).
    forest_build_surcharge: float = 0.4
    #: Extra per-item build price of the 3D STR load (third sort pass).
    tree3d_build_surcharge: float = 0.6


@dataclass
class PlanEstimate:
    """One strategy's estimated cost and candidate volume.

    ``strategy`` is ``"scan"`` or ``"live:<mode>"``; ``candidates`` is
    how many rows the model expects to reach exact-predicate
    refinement (for a scan: every row that survives the first clause).
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
        query_timed: bool,
        timed_fraction: float,
        partitions: int = 1,
        repetitions: int = 1,
        cached_modes: frozenset[str] = frozenset(),
    ) -> list[PlanEstimate]:
        """Every candidate strategy's estimate, best (cheapest) first.

        ``temporal_selectivity`` must already follow the combined
        semantics (untimed query -> untimed fraction; timed query ->
        fraction of timed rows intersecting), as
        :meth:`repro.planner.stats.DatasetStatistics.temporal_selectivity`
        computes it.  ``repetitions`` amortizes index build cost over
        that many queries against the same (persisted or cached)
        handle; a scan pays full price every time.  The indexes of a
        mode in ``cached_modes`` are built already: it pays no build.
        """
        c = self.constants
        n = max(0, n)
        ss = min(1.0, max(0.0, spatial_selectivity))
        st = min(1.0, max(0.0, temporal_selectivity))
        per_part = max(2.0, n / max(1, partitions))
        log_n = math.log2(per_part) if per_part > 1 else 1.0
        refine = c.spatial_refine + c.temporal_test
        amortize = max(1, repetitions)

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

        build_spatial = n * c.index_build_per_item * log_n / amortize
        cands_spatial = n * ss
        estimates.append(
            PlanEstimate(
                strategy="live:spatial",
                temporal_first=query_timed and st < ss,
                cost=build_spatial
                + cands_spatial * (c.index_probe_per_candidate + refine),
                candidates=cands_spatial,
                build_cost=build_spatial,
                detail="STR-tree per partition; time left to refinement",
            )
        )

        # Time-aware modes only pay off on timed rows; untimed rows are
        # either all the candidates (untimed query) or pruned wholesale.
        st_forest = max(st, FOREST_SELECTIVITY_FLOOR) if query_timed else st
        cands_forest = n * ss * (st_forest if timed_fraction > 0 else 1.0)
        build_forest = (
            n * (c.index_build_per_item + c.forest_build_surcharge) * log_n / amortize
        )
        estimates.append(
            PlanEstimate(
                strategy="live:temporal",
                temporal_first=False,
                cost=build_forest
                + cands_forest * (c.index_probe_per_candidate + refine),
                candidates=cands_forest,
                build_cost=build_forest,
                detail="time-sliced forest; slices outside the window pruned",
            )
        )

        st_3d = max(st, TREE3D_SELECTIVITY_FLOOR) if query_timed else st
        cands_3d = n * ss * (st_3d if timed_fraction > 0 else 1.0)
        build_3d = (
            n * (c.index_build_per_item + c.tree3d_build_surcharge) * log_n / amortize
        )
        estimates.append(
            PlanEstimate(
                strategy="live:3d",
                temporal_first=False,
                cost=build_3d + cands_3d * (c.index_probe_per_candidate + refine),
                candidates=cands_3d,
                build_cost=build_3d,
                detail="(x, y, t) STR bulk load; pruning inside the tree",
            )
        )

        for e in estimates:
            if e.mode in cached_modes:
                e.cost, e.build_cost = e.cost - e.build_cost, 0.0
                e.detail += " (index cached)"
        estimates.sort(key=lambda e: (e.cost, e.strategy))
        return estimates

    def with_constants(self, **overrides) -> "CostModel":
        """A copy of the model with some constants replaced."""
        return CostModel(constants=replace(self.constants, **overrides))

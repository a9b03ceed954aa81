"""Cost-based query planning for spatio-temporal filters.

STARK picks its execution strategy manually: the program author decides
whether to index and which partitioner to use, and the predicate order
is fixed (spatial first).  This package adds one planned route on top:
for a filter, it picks the index mode and the clause order, in three
layers:

- :mod:`~repro.planner.stats` -- reservoir-sampled dataset statistics
  (cardinality, spatial extent, temporal extent; spatial, temporal and
  joint selectivity) collected with one cheap job and memoized,
- :mod:`~repro.planner.cost` -- an analytical cost model comparing the
  candidate strategies: plain scan vs live index in the ``spatial`` and
  ``3d`` modes, spatial-first vs temporal-first refinement,
- :mod:`~repro.planner.planner` -- :class:`QueryPlanner`, which turns
  statistics + cost estimates into executable :class:`FilterPlan`s,
  each carrying a human-readable ``explain()``.

Entry points: ``spatial(rdd).plan(query)``, ``.explain(query)`` and
``.filter_planned(query)`` on any spatial RDD.  The partitioner stays
the program author's choice.
"""

from repro.planner.cost import CostConstants, CostModel, PlanEstimate
from repro.planner.planner import FilterPlan, QueryPlanner
from repro.planner.stats import DatasetStatistics, collect_statistics

__all__ = [
    "CostConstants",
    "CostModel",
    "DatasetStatistics",
    "FilterPlan",
    "PlanEstimate",
    "QueryPlanner",
    "collect_statistics",
]

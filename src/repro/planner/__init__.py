"""Rule-based query planning for spatio-temporal filters.

STARK leaves the execution strategy to the program author: whether to
index and which partitioner to use, with the predicate order fixed
(spatial first).  This package adds one planned route on top: for a
filter, it picks the index mode and the clause order, in two layers:

- :mod:`~repro.planner.stats` -- reservoir-sampled dataset statistics
  (cardinality, spatial extent, temporal extent, timed rows; spatial,
  temporal and joint selectivity) collected with one cheap job and
  memoized,
- :mod:`~repro.planner.planner` -- :class:`QueryPlanner`, whose one
  rule turns the statistics into an executable :class:`FilterPlan`
  carrying a human-readable ``explain()``.

Entry points: ``spatial(rdd).plan(query)``, ``.explain(query)`` and
``.filter_planned(query)`` on any spatial RDD.  The partitioner stays
the program author's choice.
"""

from repro.planner.planner import FilterPlan, PlanEstimate, QueryPlanner
from repro.planner.stats import DatasetStatistics, collect_statistics

__all__ = [
    "DatasetStatistics",
    "FilterPlan",
    "PlanEstimate",
    "QueryPlanner",
    "collect_statistics",
]

"""Evaluation support: the feature comparison (paper section 3) and the
timing harness and BSP budget the benchmark suite is built on."""

from repro.evaluation.features import FEATURES, SYSTEMS, feature_matrix, render_feature_table
from repro.evaluation.harness import BenchmarkResult, bsp_budget, render_table, time_call

__all__ = [
    "BenchmarkResult",
    "FEATURES",
    "SYSTEMS",
    "bsp_budget",
    "feature_matrix",
    "render_feature_table",
    "render_table",
    "time_call",
]

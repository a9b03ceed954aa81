"""Ablation: the spatio-temporal predicate (paper eqs. (1)-(3)).

Measures the cost of the temporal clause on top of the spatial
predicate, and how temporal selectivity changes result sizes --
demonstrating that STARK's combined predicate gives temporal filtering
"for free" during candidate refinement (no second pass).
"""

from __future__ import annotations

import pytest

from repro.core import filter as filter_ops
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject

ROUNDS = 3

REGION = "POLYGON ((100 100, 500 100, 500 500, 100 500, 100 100))"


@pytest.fixture(scope="module")
def spatial_only_rdd(sc, filter_events_rdd):
    rdd = filter_events_rdd.map(lambda kv: (STObject(kv[0].geo), kv[1])).persist()
    rdd.count()
    return rdd


class TestTemporalClause:
    def test_spatial_only_filter(self, benchmark, spatial_only_rdd):
        query = STObject(REGION)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                spatial_only_rdd, query, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        assert count > 0

    def test_spatio_temporal_filter(self, benchmark, filter_events_rdd):
        query = STObject(REGION, 0, 1_000_000)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                filter_events_rdd, query, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        assert count > 0

    @pytest.mark.parametrize("window_fraction", [0.01, 0.1, 0.5, 1.0])
    def test_temporal_selectivity_sweep(
        self, benchmark, filter_events_rdd, window_fraction
    ):
        query = STObject(REGION, 0, 1_000_000 * window_fraction)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                filter_events_rdd, query, INTERSECTS
            ).count(),
            rounds=ROUNDS,
        )
        # selectivity: result size scales with the time window
        full = filter_ops.filter_live_index(
            filter_events_rdd, STObject(REGION, 0, 1_000_000), INTERSECTS
        ).count()
        assert count <= full


class TestTemporalShape:
    def test_results_scale_with_window(self, benchmark, filter_events_rdd):
        def sweep():
            return [
                filter_ops.filter_no_index(
                    filter_events_rdd,
                    STObject(REGION, 0, 1_000_000 * fraction),
                    INTERSECTS,
                ).count()
                for fraction in (0.01, 0.1, 0.5, 1.0)
            ]

        counts = benchmark.pedantic(sweep, rounds=1)
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_temporal_clause_costs_little(
        self, benchmark, spatial_only_rdd, filter_events_rdd
    ):
        """The temporal check rides along with refinement: adding it
        must not multiply the filter's cost."""
        from repro.evaluation.harness import time_pair

        def spatial():
            return filter_ops.filter_live_index(
                spatial_only_rdd, STObject(REGION), INTERSECTS
            ).count()

        def combined():
            return filter_ops.filter_live_index(
                filter_events_rdd, STObject(REGION, 0, 1_000_000), INTERSECTS
            ).count()

        # A few milliseconds each: the sides alternate, each sample
        # lasts >= 20 ms and each side keeps its best of 5.
        spatial_t, combined_t = time_pair(spatial, combined)
        benchmark.pedantic(combined, rounds=1)
        print(f"\nspatial-only={spatial_t:.4f}s spatio-temporal={combined_t:.4f}s")
        assert combined_t < spatial_t * 2.0

    def test_mixed_timedness_returns_empty_fast(self, benchmark, filter_events_rdd):
        # spatial-only query against timed data: eqs (1)-(3) say no match
        query = STObject(REGION)
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                filter_events_rdd, query, INTERSECTS
            ).count(),
            rounds=1,
        )
        assert count == 0

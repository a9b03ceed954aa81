"""Cost-model direction and planned execution equivalence."""

import random

import pytest

from repro.chaos import FaultInjector
from repro.core.filter import filter_live_index, filter_no_index
from repro.core.predicates import INTERSECTS
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.geometry.point import Point
from repro.planner import CostModel, QueryPlanner
from repro.spark.context import SparkContext
from repro.temporal import Interval


def make_rdd(sc, n=600, partitions=4, seed=31, untimed_every=None, span=10_000.0):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        if untimed_every and i % untimed_every == 0:
            rows.append((STObject(Point(x, y)), i))
        else:
            start = rng.uniform(0, span)
            rows.append((STObject(Point(x, y), Interval(start, start + 20)), i))
    return sc.parallelize(rows, partitions)


SELECTIVE_QUERY = STObject(
    "POLYGON((10 10, 90 10, 90 90, 10 90, 10 10))", Interval(1000, 1400)
)
UNTIMED_QUERY = STObject("POLYGON((10 10, 90 10, 90 90, 10 90, 10 10))")


class TestCostModelDirection:
    def test_selective_timed_prefers_3d_index(self, sc):
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(
            make_rdd(sc), SELECTIVE_QUERY, INTERSECTS, require_index=True
        )
        assert plan.strategy == "live:3d"
        assert plan.mode == "3d"

    def test_all_untimed_data_prefers_spatial_index(self, sc):
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(
            make_rdd(sc, untimed_every=1), UNTIMED_QUERY, INTERSECTS, require_index=True
        )
        # No timed rows at all: the 3D tree holds nothing the plain one
        # does not, the two cost the same, and a tie goes to spatial.
        assert plan.strategy == "live:spatial"
        assert plan.alternatives[0].cost == plan.estimate.cost

    def test_mixed_data_untimed_query_exploits_segregation(self, sc):
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(
            make_rdd(sc, untimed_every=3), UNTIMED_QUERY, INTERSECTS, require_index=True
        )
        # Under the combined semantics an untimed query matches only
        # untimed rows; the 3D tree keeps those in a 2D tree of their
        # own, so it legitimately beats the all-in-one STR tree.
        assert plan.strategy == "live:3d"
        assert plan.estimate.candidates < 600  # fewer than a full spatial probe

    def test_tiny_dataset_pins_scan(self, sc):
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(make_rdd(sc, n=20), SELECTIVE_QUERY, INTERSECTS)
        assert plan.strategy == "scan"

    def test_alternatives_are_ranked(self, sc):
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(make_rdd(sc), SELECTIVE_QUERY, INTERSECTS)
        costs = [plan.estimate.cost] + [e.cost for e in plan.alternatives]
        # The winner is cheapest; pinning (tiny data / require_index)
        # does not apply here so the full list is sorted.
        assert costs == sorted(costs)
        assert len(costs) == 4  # 2 scan orders + 2 live modes

    def test_custom_constants_change_the_choice(self, sc):
        # Make index probing absurdly expensive: scans must win even
        # under require_index-free planning on large data.
        model = CostModel().with_constants(index_probe_per_candidate=1e9)
        planner = QueryPlanner(sc, model=model)
        plan = planner.plan_filter(make_rdd(sc), SELECTIVE_QUERY, INTERSECTS)
        assert plan.strategy == "scan"


class TestExplain:
    def test_explain_mentions_everything(self, sc):
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(
            make_rdd(sc), SELECTIVE_QUERY, INTERSECTS, require_index=True
        )
        lines = plan.explain().splitlines()
        assert lines[0].startswith("FilterPlan for ")
        assert lines[0].endswith(" on 600 rows (4 partitions)")
        assert lines[1].startswith("  statistics: timed=100%  spatial_sel~")
        assert "temporal_sel~" in lines[1]
        assert lines[2] == "  strategies considered:"
        # The chosen strategy first, under the marker, then every
        # alternative it beat: 2 scan orders + 2 live modes in all.
        assert lines[3].startswith("  -> live:3d ")
        assert len(lines) == 3 + 4
        assert all(line.startswith("     ") for line in lines[4:])
        for line in lines[3:]:
            assert " cost=" in line and " build=" in line and " candidates~" in line
            assert "[spatial-first]" in line or "[temporal-first]" in line


class TestExecution:
    @pytest.mark.parametrize("query", [SELECTIVE_QUERY, UNTIMED_QUERY])
    def test_execute_equals_naive(self, sc, query):
        rdd = make_rdd(sc, untimed_every=7)
        naive = sorted(kv[1] for kv in spatial(rdd).intersects(query).collect())
        planner = QueryPlanner(sc)
        planned = sorted(
            kv[1] for kv in planner.execute(rdd, query, INTERSECTS).collect()
        )
        assert planned == naive

    def test_execute_with_forced_index_plan(self, sc):
        rdd = make_rdd(sc)
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS, require_index=True)
        naive = sorted(
            kv[1] for kv in spatial(rdd).intersects(SELECTIVE_QUERY).collect()
        )
        planned = sorted(
            kv[1]
            for kv in planner.execute(rdd, SELECTIVE_QUERY, INTERSECTS, plan).collect()
        )
        assert planned == naive

    def test_filter_planned_rdd_api(self, sc):
        rdd = make_rdd(sc)
        naive = sorted(
            kv[1] for kv in spatial(rdd).intersects(SELECTIVE_QUERY).collect()
        )
        planned = sorted(
            kv[1]
            for kv in spatial(rdd).filter_planned(SELECTIVE_QUERY).collect()
        )
        assert planned == naive

    def test_explain_api_returns_text(self, sc):
        text = spatial(make_rdd(sc)).explain(SELECTIVE_QUERY)
        assert "FilterPlan" in text


class TestCachedIndexes:
    """A persisted RDD keeps its live indexes; the planner prices that."""

    @staticmethod
    def build_costs(planner, rdd):
        plan = planner.plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS, require_index=True)
        estimates = [plan.estimate, *plan.alternatives]
        return plan, {e.mode: e.build_cost for e in estimates if e.mode}

    def test_build_cost_is_zero_once_the_mode_is_cached(self, sc):
        rdd = make_rdd(sc).persist()
        planner = QueryPlanner(sc)
        plan, before = self.build_costs(planner, rdd)
        assert all(cost > 0 for cost in before.values())
        assert "(index cached)" not in plan.explain()
        planner.execute(rdd, SELECTIVE_QUERY, INTERSECTS, plan).collect()
        again, after = self.build_costs(planner, rdd)
        assert after == {**before, plan.mode: 0.0}
        cached = [line for line in again.explain().splitlines() if "(index cached)" in line]
        assert len(cached) == 1 and f"live:{plan.mode}" in cached[0]
        rdd.unpersist()
        assert self.build_costs(planner, rdd)[1] == before

    def test_a_built_index_does_not_stick(self, sc):
        rdd = make_rdd(sc).persist()
        planner = QueryPlanner(sc)
        spatial(rdd).live_index(mode="spatial").intersects(SELECTIVE_QUERY).collect()
        plan, builds = self.build_costs(planner, rdd)
        assert builds["spatial"] == 0.0 < builds["3d"]
        # The 3D build is paid once on a persisted RDD: the rank is the
        # per-query cost, which the built spatial tree loses.
        assert plan.strategy == "live:3d"
        assert plan.estimate.cost < plan.estimate.build_cost
        free = planner.plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS)
        assert free.strategy == "live:3d"

    def test_unpersisted_rdd_keeps_paying_for_the_build(self, sc):
        rdd = make_rdd(sc)
        planner = QueryPlanner(sc)
        plan, before = self.build_costs(planner, rdd)
        planner.execute(rdd, SELECTIVE_QUERY, INTERSECTS, plan).collect()
        assert self.build_costs(planner, rdd)[1] == before

    @pytest.mark.parametrize("persisted", [False, True])
    @pytest.mark.parametrize("query", [SELECTIVE_QUERY, UNTIMED_QUERY])
    def test_every_rejected_strategy_returns_the_chosen_rows(self, sc, query, persisted):
        import dataclasses

        rdd = make_rdd(sc, untimed_every=5)
        if persisted:
            rdd.persist()
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(rdd, query, INTERSECTS)

        def rows(estimate):
            forced = dataclasses.replace(plan, estimate=estimate)
            executed = planner.execute(rdd, query, INTERSECTS, forced)
            return sorted(kv[1] for kv in executed.collect())

        chosen = rows(plan.estimate)
        assert chosen
        for alternative in plan.alternatives:
            assert rows(alternative) == chosen, alternative.strategy


class TestCandidateReduction:
    """The regime the time-aware index modes exist for: a long history,
    a query broad in space and narrow (5%) in time."""

    HISTORY_QUERY = STObject(
        "POLYGON((10 10, 90 10, 90 90, 10 90, 10 10))", Interval(40_000, 45_000)
    )

    @pytest.mark.parametrize("executor", ["sequential", "threads"])
    def test_planned_mode_admits_3x_fewer_candidates(self, executor):
        # Every task's first attempt fails: the counters and the rows
        # must come out the same from the retries.
        injector = FaultInjector(seed=1704).fail(
            "task.compute", times=1, per_key=True
        )
        with SparkContext(
            f"planner-history-{executor}",
            parallelism=4,
            executor=executor,
            retry_backoff=0.0,
            fault_injector=injector,
        ) as sc:
            rdd = make_rdd(sc, n=6_000, span=100_000.0).persist()
            query = self.HISTORY_QUERY

            def run(filtered):
                before = sc.metrics.index_candidates
                rows = sorted(kv[1] for kv in filtered.collect())
                return rows, sc.metrics.index_candidates - before

            planner = QueryPlanner(sc)
            plan = planner.plan_filter(rdd, query, INTERSECTS, require_index=True)
            assert plan.mode == "3d"
            planned, planned_candidates = run(
                planner.execute(rdd, query, INTERSECTS, plan)
            )
            naive, naive_candidates = run(
                filter_live_index(rdd, query, INTERSECTS, 10, mode="spatial")
            )
            scanned, _ = run(filter_no_index(rdd, query, INTERSECTS))
            assert sc.metrics.tasks_retried > 0
        assert planned == naive == scanned and planned
        assert naive_candidates >= 3 * planned_candidates > 0

    def test_joint_estimate_tracks_the_counted_candidates(self, sc):
        rdd = make_rdd(sc, n=6_000, span=100_000.0).persist()
        plan = QueryPlanner(sc).plan_filter(rdd, self.HISTORY_QUERY, INTERSECTS)
        before = sc.metrics.index_candidates
        QueryPlanner(sc).execute(rdd, self.HISTORY_QUERY, INTERSECTS, plan).collect()
        counted = sc.metrics.index_candidates - before
        assert plan.mode == "3d" and counted > 0
        assert counted / 1.5 <= plan.estimate.candidates <= counted * 1.5

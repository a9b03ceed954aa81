"""The planner's rule and planned execution equivalence."""

import dataclasses
import random

import pytest

from repro.chaos import FaultInjector
from repro.core.filter import filter_live_index, filter_no_index
from repro.core.predicates import INTERSECTS
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject
from repro.geometry.point import Point
from repro.planner import QueryPlanner
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


#: The rule's picks on the 600-row fixture, per data and query: the
#: index it probes once it probes at all (persisted or require_index),
#: and whether a scan or an STR-tree probe refines temporal-first --
#: exactly when temporal_sel < spatial_sel.  A 3D probe refines
#: spatial-first.
RULE_TABLE = [
    # untimed_every, query,      probe,       temporal-first
    (None, SELECTIVE_QUERY, "live:3d", True),  # st ~0.04 < ss ~0.64
    (None, UNTIMED_QUERY, "live:3d", True),  # st = 0: no row is untimed
    (3, SELECTIVE_QUERY, "live:3d", True),  # st ~0.03
    (3, UNTIMED_QUERY, "live:3d", True),  # st ~0.33: the untimed third
    (1, SELECTIVE_QUERY, "live:spatial", True),  # st = 0: no row is timed
    (1, UNTIMED_QUERY, "live:spatial", False),  # st = 1
]
DATA_NAMES = {None: "timed", 3: "third-untimed", 1: "untimed"}
RULE_IDS = [
    f"{DATA_NAMES[untimed]}-{'timed' if query.time else 'untimed'}-q"
    for untimed, query, *_ in RULE_TABLE
]


class TestRule:
    @pytest.mark.parametrize("persisted", [False, True], ids=["unpersisted", "persisted"])
    @pytest.mark.parametrize("require_index", [False, True], ids=["free", "index"])
    @pytest.mark.parametrize(
        "untimed_every, query, probe, temporal_first", RULE_TABLE, ids=RULE_IDS
    )
    def test_rule_table(
        self, sc, untimed_every, query, probe, temporal_first, require_index, persisted
    ):
        rdd = make_rdd(sc, untimed_every=untimed_every)
        if persisted:
            rdd.persist()
        plan = QueryPlanner(sc).plan_filter(
            rdd, query, INTERSECTS, require_index=require_index
        )
        strategy = probe if persisted or require_index else "scan"
        assert plan.strategy == strategy
        assert plan.temporal_first == (temporal_first and strategy != "live:3d")
        assert (plan.temporal_selectivity < plan.spatial_selectivity) == temporal_first
        assert plan.estimate.reason == (
            "not persisted" if strategy == "scan"
            else "no row timed" if untimed_every == 1
            else f"{plan.stats.timed_count} of 600 rows timed"
        )

    def test_tiny_dataset_pins_scan(self, sc):
        planner = QueryPlanner(sc)
        rdd = make_rdd(sc, n=20).persist()
        plan = planner.plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS)
        assert plan.strategy == "scan"
        assert plan.estimate.reason == "fewer than 64 rows"
        forced = planner.plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS, require_index=True)
        assert forced.strategy == "live:3d"


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
        assert "temporal_sel~" in lines[1] and "joint_sel~" in lines[1]
        # The clause that fired, then the chosen strategy under the
        # marker and every other one with the clause that ruled it out.
        assert lines[2] == (
            "  rule: 600 of 600 rows timed -> live:3d, "
            "spatial-first (the 3D probe pruned on time)"
        )
        assert lines[3] == "  strategies:"
        assert lines[4].startswith("  -> live:3d ")
        assert len(lines) == 4 + 3
        assert all(line.startswith("     ") for line in lines[5:])
        assert lines[5].startswith("     scan ") and lines[5].endswith(" require_index")
        assert lines[6].startswith("     live:spatial ")
        assert lines[6].endswith("[temporal-first] 600 of 600 rows timed")
        for line in lines[4:]:
            assert " candidates~" in line
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
    """A persisted RDD keeps its live indexes; none of them sways the rule."""

    def test_a_built_index_does_not_stick(self, sc):
        rdd = make_rdd(sc).persist()
        planner = QueryPlanner(sc)
        spatial(rdd).live_index().intersects(SELECTIVE_QUERY).collect()
        plan = planner.plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS, require_index=True)
        assert plan.strategy == "live:3d"
        free = planner.plan_filter(rdd, SELECTIVE_QUERY, INTERSECTS)
        assert free.strategy == "live:3d"

    @pytest.mark.parametrize("persisted", [False, True], ids=["unpersisted", "persisted"])
    @pytest.mark.parametrize("require_index", [False, True], ids=["free", "index"])
    @pytest.mark.parametrize("untimed_every", list(DATA_NAMES), ids=list(DATA_NAMES.values()))
    @pytest.mark.parametrize("query", [SELECTIVE_QUERY, UNTIMED_QUERY])
    def test_every_rejected_strategy_returns_the_chosen_rows(
        self, sc, query, untimed_every, require_index, persisted
    ):
        rdd = make_rdd(sc, untimed_every=untimed_every)
        if persisted:
            rdd.persist()
        planner = QueryPlanner(sc)
        plan = planner.plan_filter(rdd, query, INTERSECTS, require_index=require_index)
        scanned = sorted(kv[1] for kv in filter_no_index(rdd, query, INTERSECTS).collect())
        # A timed query matches only timed rows, an untimed one only
        # untimed rows.
        assert bool(scanned) == (untimed_every != 1 if query.time else bool(untimed_every))
        for estimate in (plan.estimate, *plan.alternatives):
            for temporal_first in (False, True):
                forced = dataclasses.replace(
                    plan,
                    estimate=dataclasses.replace(estimate, temporal_first=temporal_first),
                )
                executed = planner.execute(rdd, query, INTERSECTS, forced)
                rows = sorted(kv[1] for kv in executed.collect())
                assert rows == scanned, (estimate.strategy, temporal_first)


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

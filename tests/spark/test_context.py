"""Context lifecycle, caching, metrics, broadcast, accumulators, threading."""

import pytest

from repro.spark.context import SparkContext


class TestLifecycle:
    def test_context_manager(self):
        with SparkContext(executor="sequential") as ctx:
            assert ctx.parallelize([1, 2]).count() == 2

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            SparkContext(parallelism=0)

    def test_invalid_executor(self):
        with pytest.raises(ValueError):
            SparkContext(executor="gpu")

    def test_process_executor_is_gone(self):
        # The error names what is accepted, so an old caller knows the fix.
        with pytest.raises(ValueError, match="'sequential' or 'threads'"):
            SparkContext(executor='processes')

    def test_stop_clears_cache(self, sc):
        rdd = sc.parallelize([1, 2], 1).cache()
        rdd.collect()
        sc.stop()
        assert sc._cache.get(rdd.id, 0) is None


class TestCaching:
    def test_cache_hit_counted(self, sc):
        rdd = sc.parallelize(range(10), 2).map(lambda x: x).cache()
        rdd.collect()
        assert sc.metrics.cache_hits == 0
        rdd.collect()
        assert sc.metrics.cache_hits == 2  # one per partition

    def test_cache_avoids_recompute(self, sc):
        calls = []
        rdd = sc.parallelize(range(3), 1).map(lambda x: calls.append(x) or x).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 3

    def test_unpersist_recomputes(self, sc):
        calls = []
        rdd = sc.parallelize(range(3), 1).map(lambda x: calls.append(x) or x).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.collect()
        assert len(calls) == 6

    def test_uncached_always_recomputes(self, sc):
        calls = []
        rdd = sc.parallelize(range(3), 1).map(lambda x: calls.append(x) or x)
        rdd.collect()
        rdd.collect()
        assert len(calls) == 6


class TestMetrics:
    def test_tasks_and_jobs_counted(self, sc):
        sc.metrics.reset()
        sc.parallelize(range(10), 5).count()
        assert sc.metrics.jobs_run == 1
        assert sc.metrics.tasks_launched == 5

    def test_snapshot_and_reset(self, sc):
        sc.parallelize([1], 1).count()
        snap = sc.metrics.snapshot()
        assert snap["jobs_run"] >= 1
        sc.metrics.reset()
        assert sc.metrics.jobs_run == 0


class TestBroadcast:
    def test_value_accessible(self, sc):
        b = sc.broadcast({"a": 1})
        assert b.value["a"] == 1

    def test_used_inside_tasks(self, sc):
        lookup = sc.broadcast({0: "even", 1: "odd"})
        result = sc.parallelize(range(4), 2).map(lambda x: lookup.value[x % 2]).collect()
        assert result == ["even", "odd", "even", "odd"]

    def test_destroy_blocks_reads(self, sc):
        b = sc.broadcast(42)
        b.destroy()
        with pytest.raises(RuntimeError):
            _ = b.value


class TestAccumulator:
    def test_add(self, sc):
        acc = sc.accumulator(0)
        sc.parallelize(range(10), 4).foreach_partition(lambda it: [acc.add(x) for x in it])
        assert acc.value == 45

    def test_iadd(self, sc):
        acc = sc.accumulator(0)
        acc += 5
        assert acc.value == 5

    def test_custom_op(self, sc):
        acc = sc.accumulator(1, op=lambda a, b: a * b)
        for value in [2, 3, 4]:
            acc.add(value)
        assert acc.value == 24


class TestThreadedExecutor:
    def test_results_match_sequential(self, threaded_sc):
        rdd = threaded_sc.parallelize(range(1000), 16)
        assert rdd.map(lambda x: x * 2).filter(lambda x: x % 3 == 0).count() == 334

    def test_nested_shuffles_do_not_deadlock(self, threaded_sc):
        left = threaded_sc.parallelize([(i % 5, i) for i in range(100)], 8)
        right = threaded_sc.parallelize([(i, str(i)) for i in range(5)], 4)
        joined = left.join(right).map_values(lambda t: t[1]).distinct()
        assert sorted(joined.collect()) == [(i, str(i)) for i in range(5)]

    def test_accumulator_thread_safe(self, threaded_sc):
        acc = threaded_sc.accumulator(0)
        threaded_sc.parallelize(range(10_000), 16).foreach_partition(
            lambda it: [acc.add(1) for _ in it]
        )
        assert acc.value == 10_000

    def test_cached_partitions_shared_across_threads(self, threaded_sc):
        rdd = threaded_sc.parallelize(range(100), 8).map(lambda x: x * x).cache()
        assert rdd.collect() == rdd.collect() == [x * x for x in range(100)]

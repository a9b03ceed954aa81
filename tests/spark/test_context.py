"""Context lifecycle, caching, metrics, broadcast, threading."""

import sys
import threading
import time

import pytest

from repro.spark.cancellation import CancelToken, TaskCancelledError, task_scope
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


class TestSliceCounts:
    """Only an omitted slice count defaults to the parallelism; zero is
    as invalid as a negative count on every path that takes one."""

    def test_none_takes_the_default_parallelism(self, sc, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("".join(f"line-{i}\n" for i in range(40)))
        assert sc.parallelize([1, 2, 3, 4, 5]).num_partitions == sc.default_parallelism
        assert sc.text_file(str(path)).num_partitions == sc.default_parallelism

    @pytest.mark.parametrize("slices", [0, -1])
    def test_parallelize_rejects_fewer_than_one_slice(self, sc, slices):
        with pytest.raises(ValueError, match="at least 1 slice"):
            sc.parallelize([1, 2, 3], slices)

    @pytest.mark.parametrize("slices", [0, -1])
    def test_text_file_rejects_fewer_than_one_slice(self, sc, tmp_path, slices):
        path = tmp_path / "lines.txt"
        path.write_text("a\nb\n")
        with pytest.raises(ValueError, match="at least 1 slice"):
            sc.text_file(str(path), slices)
        with pytest.raises(ValueError, match="at least 1 slice"):
            sc.text_file(str(tmp_path), slices)

    def test_load_event_file_rejects_zero_slices(self, sc, tmp_path):
        from repro.io.readers import load_event_file

        path = tmp_path / "events.csv"
        path.write_text("1;a;0;POINT (1 1)\n")
        with pytest.raises(ValueError, match="at least 1 slice"):
            load_event_file(sc, str(path), num_slices=0)


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


class TestSingleCompute:
    """Two readers of one persisted split: the first computes, the second
    waits for it.  The compute is gated, so the second reader arrives
    while the first is still inside it."""

    def _race(self, sc, gated, cancel=False):
        entered, release, waiting = threading.Event(), threading.Event(), threading.Event()
        calls: list = []
        rdd = sc.parallelize(range(3), 1).map_partitions(
            lambda it: gated(calls, entered, release, it)
        ).cache()

        class Probe(CancelToken):
            def check(self):  # the waiting reader checks its token
                waiting.set()
                super().check()

        probe = Probe()
        results: dict = {}

        def read(name, scope):
            try:
                with task_scope(scope):
                    results[name] = list(rdd.iterator(0))
            except Exception as exc:
                results[name] = exc

        first = threading.Thread(target=read, args=("first", CancelToken()))
        first.start()
        assert entered.wait(5)
        second = threading.Thread(target=read, args=("second", probe))
        second.start()
        # Go on once the second reader waits, or computes as well.
        deadline = time.monotonic() + 5
        while not waiting.is_set() and len(calls) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        if cancel:
            probe.cancel("reader gone")
            second.join(5)
        release.set()
        first.join(5)
        second.join(5)
        assert not first.is_alive() and not second.is_alive()
        return rdd, calls, results

    @staticmethod
    def _gated(calls, entered, release, it):
        calls.append(1)
        entered.set()
        release.wait(5)
        return list(it)

    def test_concurrent_readers_compute_a_split_once(self, sc):
        _rdd, calls, results = self._race(sc, self._gated)
        assert len(calls) == 1
        assert results == {"first": [0, 1, 2], "second": [0, 1, 2]}
        assert sc.metrics.cache_hits == 1

    def test_a_failed_compute_caches_nothing_and_the_waiter_computes(self, sc):
        def fails_first(calls, entered, release, it):
            calls.append(1)
            if len(calls) == 1:
                entered.set()
                release.wait(5)
                raise RuntimeError("first compute fails")
            return list(it)

        rdd, calls, results = self._race(sc, fails_first)
        assert isinstance(results["first"], RuntimeError)
        assert results["second"] == [0, 1, 2]
        assert len(calls) == 2
        assert sc.metrics.cache_hits == 0
        assert sc._cache.get(rdd.id, 0) == [0, 1, 2]

    def test_many_readers_under_fast_switching_compute_once(self, sc):
        calls: list = []
        # The sleep hands the interpreter to the other readers mid-compute.
        rdd = sc.parallelize(range(50), 4).map(
            lambda x: calls.append(x) or time.sleep(0.0005) or x
        ).cache()
        readers = 8
        barrier = threading.Barrier(readers)
        results: list = []

        def read():
            barrier.wait(5)
            results.append([list(rdd.iterator(split)) for split in range(4)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == readers
        assert all(sum(parts, []) == list(range(50)) for parts in results)
        assert sorted(calls) == list(range(50))  # each split computed once
        assert sc.metrics.cache_hits == 4 * (readers - 1)

    def test_a_cancelled_waiter_stops_waiting(self, sc):
        rdd, calls, results = self._race(sc, self._gated, cancel=True)
        assert isinstance(results["second"], TaskCancelledError)
        assert results["first"] == [0, 1, 2]
        assert len(calls) == 1
        assert list(rdd.iterator(0)) == [0, 1, 2]
        assert sc.metrics.cache_hits == 1


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


class TestThreadedExecutor:
    def test_results_match_sequential(self, threaded_sc):
        rdd = threaded_sc.parallelize(range(1000), 16)
        assert rdd.map(lambda x: x * 2).filter(lambda x: x % 3 == 0).count() == 334

    def test_nested_shuffles_do_not_deadlock(self, threaded_sc):
        left = threaded_sc.parallelize([(i % 5, i) for i in range(100)], 8)
        right = threaded_sc.parallelize([(i, str(i)) for i in range(5)], 4)
        joined = left.join(right).map_values(lambda t: t[1]).distinct()
        assert sorted(joined.collect()) == [(i, str(i)) for i in range(5)]

    def test_cached_partitions_shared_across_threads(self, threaded_sc):
        rdd = threaded_sc.parallelize(range(100), 8).map(lambda x: x * x).cache()
        assert rdd.collect() == rdd.collect() == [x * x for x in range(100)]

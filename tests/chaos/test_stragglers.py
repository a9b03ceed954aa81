"""End-to-end straggler and hang resilience.

The acceptance scenario of the gray-failure layer: with an injected
hang/delay on a task, a job with deadlines either completes with
results identical to the fault-free run, or aborts within its deadline
with a typed TaskTimeoutError -- it never blocks indefinitely.  The
deadline is the one straggler policy: an overdue attempt is reaped and
relaunched, and whichever of the two returns first wins.
"""

import threading
import time

import pytest

from repro.chaos import FaultInjector
from repro.spark.cancellation import cancellable_sleep
from repro.spark.context import Metrics, SparkContext
from repro.spark.errors import JobAbortedError, TaskTimeoutError
from repro.spark.partitioner import HashPartitioner

pytestmark = pytest.mark.chaos


def _job_and_task_spans(sc) -> list:
    return [(s.name, s.attrs) for s in sc.tracer.root.walk() if s.kind in ("job", "task")]


class TestLateWinner:
    def test_reaped_attempt_that_returns_first_wins_and_cancels_the_relaunch(self):
        """A reaped attempt that ignores its token can still return before
        its relaunch does: its result wins and the relaunch is cancelled."""
        state = {"attempts": 0}

        def first_sleeps_relaunch_blocks(it):
            values = list(it)
            if 0 in values:
                state["attempts"] += 1
                if state["attempts"] == 1:
                    time.sleep(0.5)  # ignores its token
                else:
                    cancellable_sleep(5.0)
            return sum(values)

        with SparkContext(
            "late-winner",
            parallelism=4,
            executor="threads",
            retry_backoff=0.0,
            task_timeout=0.3,
        ) as sc:
            start = time.perf_counter()
            totals = sc.run_job(sc.parallelize(range(8), 4), first_sleeps_relaunch_blocks)
            elapsed = time.perf_counter() - start

        with SparkContext("late-winner-clean", executor="sequential") as clean_sc:
            expected = clean_sc.run_job(clean_sc.parallelize(range(8), 4), sum)
        assert totals == expected
        assert elapsed < 2.0, "the relaunch was waited for instead of cancelled"
        assert state["attempts"] == 2
        assert sc.metrics.tasks_timed_out == 1
        assert sc.metrics.tasks_retried == 1
        assert sc.metrics.tasks_cancelled == 1

    def test_reaped_attempt_that_fails_late_is_charged_once(self):
        """A reaped attempt's deadline is its one failure: raising after
        it was reaped books nothing more and launches no second retry."""
        state = {"attempts": 0}
        relaunched = threading.Event()

        def first_fails_once_relaunched(it):
            values = list(it)
            if 0 in values:
                state["attempts"] += 1
                if state["attempts"] == 1:
                    relaunched.wait(5.0)  # ignores its token
                    raise ValueError("late failure of a reaped attempt")
                relaunched.set()
                time.sleep(0.1)  # the late failure arrives first
            return sum(values)

        with SparkContext(
            "late-failure",
            parallelism=4,
            executor="threads",
            retry_backoff=0.0,
            task_timeout=0.3,
        ) as sc:
            totals = sc.run_job(sc.parallelize(range(8), 4), first_fails_once_relaunched)

        assert totals == [1, 5, 9, 13]
        assert state["attempts"] == 2
        assert sc.metrics.tasks_timed_out == 1
        assert sc.metrics.tasks_failed == 1
        assert sc.metrics.tasks_retried == 1
        assert sc.metrics.tasks_cancelled == 0


@pytest.mark.parametrize("executor", ["sequential", "threads"])
class TestTaskDeadlines:
    # One partition takes the inline transport on either executor (a
    # watchdog timer cancels, the loop books the deadline); four take the
    # thread pool under ``threads`` (the loop does both).
    @pytest.mark.parametrize("partitions", [4, 1])
    def test_hung_tasks_time_out_and_retries_recover(self, executor, partitions):
        injector = FaultInjector().hang("task.compute", times=1)
        with SparkContext(
            f"hang-{executor}",
            parallelism=4,
            executor=executor,
            retry_backoff=0.0,
            task_timeout=0.3,
            tracing=True,
            fault_injector=injector,
        ) as sc:
            start = time.perf_counter()
            result = sorted(sc.parallelize(range(8), partitions).collect())
            elapsed = time.perf_counter() - start

        assert result == list(range(8))  # identical to the fault-free run
        assert elapsed < 15.0, "job blocked instead of reaping hung tasks"
        assert sc.metrics.tasks_timed_out == partitions
        assert sc.metrics.tasks_failed == partitions
        assert sc.metrics.tasks_retried == partitions
        assert injector.hung == {"task.compute": partitions}
        timeout_spans = [
            span for span in sc.tracer.root.walk() if span.attrs.get("timeout")
        ]
        assert timeout_spans, "no task span flagged timeout"

    def test_one_task_job_counts_and_spans(self, executor):
        injector = FaultInjector().hang("task.compute", times=1)
        with SparkContext(
            f"hang-one-{executor}",
            parallelism=4,
            executor=executor,
            retry_backoff=0.0,
            task_timeout=0.3,
            tracing=True,
            fault_injector=injector,
        ) as sc:
            assert sc.parallelize(range(8), 1).collect() == list(range(8))
        assert sc.metrics.snapshot() == {
            **Metrics().snapshot(), "jobs_run": 1, "tasks_launched": 1,
            "tasks_failed": 1, "tasks_retried": 1, "tasks_timed_out": 1,
        }
        (_job, _attrs), first, second = _job_and_task_spans(sc)
        assert first[1]["cancelled"] and first[1]["timeout"] and first[1]["failures"] == 1
        assert second == ("task", {"split": 0, "attempt": 2, "records_in": 8})

    def test_deadline_during_nested_map_side_retries_the_reduce_task(self, executor):
        """A reduce task times out while the shuffle map side it triggered
        (a nested job) hangs: the nested job unwinds without aborting or
        booking anything, the *reduce* task is retried, and the retry
        re-runs the map side."""
        state = {"first_record_mapped": 0}

        def hang_once(kv):
            if kv == (0, 0):
                state["first_record_mapped"] += 1
                if state["first_record_mapped"] == 1:
                    cancellable_sleep(30.0)
            return kv

        # The reduce side stalls before it fetches, so the nested job's own
        # watchdog starts well after the reduce task's and cannot fire first.
        injector = FaultInjector().delay("shuffle.fetch", 0.15, times=1)
        # One worker: the second reduce task queues instead of blocking on
        # the shuffle's map-side lock, so exactly one attempt is overdue.
        with SparkContext(
            f"nested-hang-{executor}",
            parallelism=1,
            executor=executor,
            retry_backoff=0.0,
            task_timeout=0.5,
            fault_injector=injector,
        ) as sc:
            pairs = sc.parallelize([(i % 3, i) for i in range(12)], 2).map(hang_once)
            summed = pairs.reduce_by_key(lambda a, b: a + b, HashPartitioner(2))
            start = time.perf_counter()
            result = dict(summed.collect())
            elapsed = time.perf_counter() - start

        assert result == {0: 18, 1: 22, 2: 26}
        assert elapsed < 15.0, "the hung map side blocked the job"
        assert state["first_record_mapped"] == 2, "the map side did not re-run"
        assert sc.metrics.shuffles_executed == 1
        assert sc.metrics.tasks_timed_out == 1  # the reduce attempt, not the map task
        assert sc.metrics.tasks_failed == 1
        assert sc.metrics.tasks_retried == 1
        assert sc.metrics.jobs_failed == 0

    def test_persistent_hang_aborts_with_typed_failures(self, executor):
        injector = FaultInjector().hang("task.compute", times=10)
        with SparkContext(
            f"hang-abort-{executor}",
            parallelism=4,
            executor=executor,
            retry_backoff=0.0,
            task_timeout=0.2,
            max_task_failures=2,
            fault_injector=injector,
        ) as sc:
            start = time.perf_counter()
            with pytest.raises(JobAbortedError) as err:
                sc.parallelize(range(8), 4).collect()
            elapsed = time.perf_counter() - start

        assert elapsed < 15.0, "abort did not happen within the deadline"
        failures = err.value.failures
        assert failures and all(isinstance(f, TaskTimeoutError) for f in failures)
        assert all(f.scope == "task" for f in failures)
        assert sc.metrics.jobs_failed >= 1
        assert sc.metrics.tasks_timed_out >= 2


@pytest.mark.parametrize("executor", ["sequential", "threads"])
class TestJobTimeout:
    def test_job_deadline_aborts_hung_job(self, executor):
        injector = FaultInjector().hang("task.compute", times=10)
        with SparkContext(
            f"job-timeout-{executor}",
            parallelism=4,
            executor=executor,
            retry_backoff=0.0,
            job_timeout=0.4,
            fault_injector=injector,
        ) as sc:
            start = time.perf_counter()
            with pytest.raises(JobAbortedError) as err:
                sc.parallelize(range(8), 4).collect()
            elapsed = time.perf_counter() - start

        assert elapsed < 10.0
        timeouts = [
            f for f in err.value.failures if isinstance(f, TaskTimeoutError)
        ]
        assert timeouts and timeouts[-1].scope == "job"

    def test_job_deadline_aborts_a_hung_one_task_job(self, executor):
        injector = FaultInjector().hang("task.compute", times=10)
        with SparkContext(
            f"job-timeout-one-{executor}",
            parallelism=4,
            executor=executor,
            retry_backoff=0.0,
            job_timeout=0.3,
            tracing=True,
            fault_injector=injector,
        ) as sc:
            with pytest.raises(JobAbortedError) as err:
                sc.parallelize(range(8), 1).collect()
        assert [(f.scope, f.attempt) for f in err.value.failures] == [("job", 1)]
        assert sc.metrics.snapshot() == {
            **Metrics().snapshot(), "jobs_run": 1, "tasks_launched": 1,
            "tasks_timed_out": 1, "tasks_cancelled": 1, "jobs_failed": 1,
        }
        (_job, attrs), (_task, task_attrs) = _job_and_task_spans(sc)
        assert attrs["aborted"] and attrs["error"].startswith("TaskTimeoutError")
        assert task_attrs == {"split": 0, "cancelled": True, "timeout": True}


class TestKillswitches:
    def test_cancel_all_jobs_unblocks_hung_job(self):
        injector = FaultInjector().hang("task.compute", times=10)
        with SparkContext(
            "cancel-all",
            parallelism=4,
            executor="threads",
            retry_backoff=0.0,
            fault_injector=injector,
        ) as sc:
            outcome: list = []

            def run():
                try:
                    sc.parallelize(range(8), 4).collect()
                    outcome.append("completed")
                except JobAbortedError:
                    outcome.append("aborted")

            worker = threading.Thread(target=run)
            worker.start()
            time.sleep(0.3)  # let the tasks reach the hang
            assert sc.cancel_all_jobs("operator intervention") >= 1
            worker.join(timeout=10.0)
            assert not worker.is_alive(), "cancel_all_jobs failed to unblock"
            assert outcome == ["aborted"]
            # The context stays usable for new work.
            injector.clear()
            assert sorted(sc.parallelize(range(4), 2).collect()) == [0, 1, 2, 3]

    @pytest.mark.parametrize("executor", ["sequential", "threads"])
    def test_cancel_all_jobs_stops_a_hung_one_task_job(self, executor):
        injector = FaultInjector().hang("task.compute", times=10)
        with SparkContext(
            f"cancel-one-{executor}",
            parallelism=4,
            executor=executor,
            retry_backoff=0.0,
            tracing=True,
            fault_injector=injector,
        ) as sc:
            outcome: list = []

            def run():
                try:
                    sc.parallelize(range(8), 1).collect()
                    outcome.append("completed")
                except JobAbortedError as exc:
                    outcome.append(type(exc.cause).__name__)

            worker = threading.Thread(target=run)
            worker.start()
            deadline = time.perf_counter() + 5.0
            while not injector.hung and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert sc.cancel_all_jobs("operator intervention") == 1
            worker.join(timeout=10.0)
            assert not worker.is_alive(), "cancel_all_jobs failed to unblock"
        assert outcome == ["TaskCancelledError"]
        assert sc.metrics.snapshot() == {
            **Metrics().snapshot(), "jobs_run": 1, "tasks_launched": 1,
            "tasks_cancelled": 1, "jobs_failed": 1,
        }
        assert _job_and_task_spans(sc) == [
            ("job", {
                "rdd": "ParallelCollectionRDD[0]", "op": "ParallelCollectionRDD",
                "tasks": 1, "aborted": True,
                "error": "TaskCancelledError: operator intervention",
            }),
            ("task", {"split": 0, "cancelled": True}),
        ]

    def test_stop_from_another_thread_is_a_killswitch(self):
        injector = FaultInjector().hang("task.compute", times=10)
        sc = SparkContext(
            "stop-killswitch",
            parallelism=4,
            executor="threads",
            retry_backoff=0.0,
            fault_injector=injector,
        )
        outcome: list = []

        def run():
            try:
                sc.parallelize(range(8), 4).collect()
                outcome.append("completed")
            except (JobAbortedError, RuntimeError):
                outcome.append("stopped")

        worker = threading.Thread(target=run)
        worker.start()
        time.sleep(0.3)
        sc.stop()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "stop() failed to unblock the hung job"
        assert outcome == ["stopped"]
        with pytest.raises(RuntimeError, match="stopped"):
            sc.parallelize(range(4), 2).collect()

"""Scheduler fault tolerance: retries, validation, shuffle hardening."""

import pytest

from repro.chaos import FaultInjector, InjectedFault
from repro.spark.context import Metrics, SparkContext
from repro.spark.partitioner import HashPartitioner
from repro.spark.errors import JobAbortedError, TaskError

pytestmark = pytest.mark.chaos


class TestPartitionValidation:
    def test_out_of_range_split_rejected_up_front(self, sc):
        rdd = sc.parallelize(range(10), 2)
        with pytest.raises(ValueError, match=r"partition index 5 out of range"):
            sc.run_job(rdd, list, partitions=[5])

    def test_negative_split_rejected(self, sc):
        rdd = sc.parallelize(range(10), 2)
        with pytest.raises(ValueError, match="out of range"):
            sc.run_job(rdd, list, partitions=[-1])

    def test_error_names_the_rdd(self, sc):
        rdd = sc.parallelize(range(10), 2)
        with pytest.raises(ValueError, match=r"ParallelCollectionRDD\["):
            sc.run_job(rdd, list, partitions=[0, 99])

    def test_valid_subset_still_works(self, sc):
        rdd = sc.parallelize(range(10), 2)
        assert sc.run_job(rdd, list, partitions=[1]) == [list(range(5, 10))]

    @pytest.mark.parametrize("fixture", ["sc", "threaded_sc"])
    def test_a_split_requested_twice_is_answered_twice(self, fixture, request):
        context = request.getfixturevalue(fixture)
        rdd = context.parallelize(range(10), 2)
        chunk = list(range(5, 10))
        assert context.run_job(rdd, list, partitions=[1, 0, 1]) == [
            chunk, list(range(5)), chunk,
        ]


EXECUTORS = ["sequential", "threads"]


@pytest.fixture(params=EXECUTORS)
def any_sc(request):
    """One context per executor: the same loop behind two transports."""
    context = SparkContext(
        f"retry-{request.param}",
        parallelism=2,
        executor=request.param,
        retry_backoff=0.0,
    )
    yield context
    context.stop()


def _boom_on_zero(it):
    """A task that fails on the split holding 0."""
    values = list(it)
    if 0 in values:
        raise ValueError("boom")
    return values


class TestRetryMetrics:
    def test_first_attempt_failures_counted(self, any_sc):
        sc = any_sc
        rdd = sc.parallelize(range(20), 4)
        sc.metrics.reset()
        with FaultInjector().fail("task.compute", times=1).installed(sc):
            assert sorted(rdd.collect()) == list(range(20))
        assert sc.metrics.tasks_launched == 4
        assert sc.metrics.tasks_failed == 4
        assert sc.metrics.tasks_retried == 4
        assert sc.metrics.jobs_failed == 0

    def test_exhaustion_counts_a_failed_job(self, any_sc):
        sc = any_sc
        rdd = sc.parallelize(range(20), 4)
        sc.metrics.reset()
        with pytest.raises(JobAbortedError) as excinfo:
            sc.run_job(rdd, _boom_on_zero)
        # only split 0 fails, and it burns exactly its own budget
        assert sc.metrics.jobs_failed == 1
        assert sc.metrics.tasks_failed == sc.max_task_failures
        assert sc.metrics.tasks_retried == sc.max_task_failures - 1
        failures = excinfo.value.failures
        assert [type(f) for f in failures] == [TaskError] * sc.max_task_failures
        assert [f.attempt for f in failures] == [1, 2, 3, 4]
        assert all(isinstance(f.cause, ValueError) and f.split == 0 for f in failures)
        assert isinstance(excinfo.value.cause, ValueError)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_custom_max_task_failures(self, executor):
        with SparkContext(
            "retry-test", parallelism=2, executor=executor,
            max_task_failures=2, retry_backoff=0.0,
        ) as sc:
            with FaultInjector().fail("task.compute", probability=1.0).installed(sc):
                with pytest.raises(JobAbortedError) as excinfo:
                    sc.parallelize([1, 2], 2).collect()
            assert excinfo.value.attempts == 2

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_no_retries_with_budget_of_one(self, executor):
        with SparkContext(
            "retry-test", parallelism=2, executor=executor,
            max_task_failures=1, retry_backoff=0.0,
        ) as sc:
            with FaultInjector().fail("task.compute", times=1).installed(sc):
                with pytest.raises(JobAbortedError):
                    sc.parallelize([1, 2], 2).collect()
            assert sc.metrics.tasks_retried == 0


def _job_and_task_spans(sc) -> list:
    return [(s.name, s.attrs) for s in sc.tracer.root.walk() if s.kind in ("job", "task")]


class TestOneTaskJob:
    """A one-split job takes the inline transport under either executor:
    its counters and spans are the same on both."""

    JOB = {"rdd": "ParallelCollectionRDD[0]", "op": "ParallelCollectionRDD", "tasks": 1}

    def test_clean(self, any_sc):
        sc = any_sc
        sc.enable_tracing()
        assert sc.run_job(sc.parallelize(range(5), 1), list) == [[0, 1, 2, 3, 4]]
        assert sc.metrics.snapshot() == {
            **Metrics().snapshot(), "jobs_run": 1, "tasks_launched": 1,
        }
        assert _job_and_task_spans(sc) == [
            ("job", self.JOB), ("task", {"split": 0, "records_in": 5}),
        ]

    def test_fails_once_then_succeeds(self, any_sc):
        sc = any_sc
        sc.enable_tracing()
        with FaultInjector().fail("task.compute", times=1).installed(sc):
            assert sc.run_job(sc.parallelize(range(5), 1), list) == [[0, 1, 2, 3, 4]]
        assert sc.metrics.snapshot() == {
            **Metrics().snapshot(), "jobs_run": 1, "tasks_launched": 1,
            "tasks_failed": 1, "tasks_retried": 1,
        }
        (job, attrs), first, second = _job_and_task_spans(sc)
        assert attrs == self.JOB
        assert first[1]["failures"] == 1 and first[1]["last_error"].startswith("InjectedFault")
        assert second == ("task", {"split": 0, "attempt": 2, "records_in": 5})

    def test_retry_budget_exhausted(self, any_sc):
        sc = any_sc
        sc.enable_tracing()
        with pytest.raises(JobAbortedError) as excinfo:
            sc.run_job(sc.parallelize(range(5), 1), _boom_on_zero)
        assert excinfo.value.attempts == sc.max_task_failures == 4
        assert sc.metrics.snapshot() == {
            **Metrics().snapshot(), "jobs_run": 1, "jobs_failed": 1, "tasks_launched": 1,
            "tasks_failed": 4, "tasks_retried": 3,
        }
        (job, attrs), *tasks = _job_and_task_spans(sc)
        assert attrs == {**self.JOB, "aborted": True, "error": "ValueError: boom"}
        assert [t[1].get("attempt", 1) for t in tasks] == [1, 2, 3, 4]
        assert all(t[1]["failures"] == 1 and t[1]["records_in"] == 5 for t in tasks)


class _SplitOneFailsTwice(FaultInjector):
    """Fails split 1's first two ``task.compute`` checks; logs every check."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[int, int]] = []  # (split, attempt)

    def check(self, site, key=None):
        if site == "task.compute":
            split = key[1]
            attempt = 1 + sum(1 for seen, _ in self.log if seen == split)
            self.log.append((split, attempt))
            if split == 1 and attempt <= 2:
                raise InjectedFault(site, key)
        super().check(site, key)


class TestInlineAttemptOrder:
    def test_a_failed_splits_retries_run_before_the_next_split(self, sc):
        """``sequential`` runs one attempt at a time in split order, and a
        failed split is retried to a result before the next split starts --
        what keeps a seeded chaos plan's draws reproducible."""
        injector = _SplitOneFailsTwice()
        with injector.installed(sc):
            assert sorted(sc.parallelize(range(8), 4).collect()) == list(range(8))
        assert injector.log == [(0, 1), (1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
        assert sc.metrics.tasks_retried == 2


class TestShuffleHardening:
    def test_racing_reduce_tasks_one_map_rerun(self, threaded_sc):
        """Two reduce tasks race into a map side whose tasks fail once.

        The inner map-side job absorbs the failures through its own
        retries; the map side still executes exactly once overall and
        neither reduce task observes poisoned buckets.
        """
        sc = threaded_sc
        pairs = sc.parallelize([(i % 4, 1) for i in range(80)], 4)
        shuffled = pairs.reduce_by_key(lambda a, b: a + b, HashPartitioner(2))
        sc.metrics.reset()
        with FaultInjector().fail("task.compute", times=1).installed(sc):
            result = dict(shuffled.collect())
        assert result == {k: 20 for k in range(4)}
        assert sc.metrics.shuffles_executed == 1
        assert sc.metrics.tasks_retried > 0

    def test_aborted_map_side_not_poisoned(self, threaded_sc):
        """A map side that aborts leaves no partial outputs behind."""
        sc = threaded_sc
        pairs = sc.parallelize([(i % 4, 1) for i in range(80)], 4)
        shuffled = pairs.reduce_by_key(lambda a, b: a + b, HashPartitioner(2))
        with FaultInjector().fail("task.compute", probability=1.0).installed(sc):
            with pytest.raises(JobAbortedError):
                shuffled.collect()
        # the failed run must not have committed map outputs
        assert sc.metrics.shuffles_executed == 0
        # with the fault gone the same lineage runs clean
        assert dict(shuffled.collect()) == {k: 20 for k in range(4)}
        assert sc.metrics.shuffles_executed == 1

    def test_concurrent_reduce_fetch_failures(self, threaded_sc):
        """Both reduce tasks fail their first fetch concurrently; each
        retries independently and the map side is reused, not re-run."""
        sc = threaded_sc
        pairs = sc.parallelize([(i % 4, 1) for i in range(80)], 2)
        shuffled = pairs.reduce_by_key(lambda a, b: a + b, HashPartitioner(2))
        with FaultInjector().fail("shuffle.fetch", times=1).installed(sc):
            result = dict(shuffled.collect())
        assert result == {k: 20 for k in range(4)}
        assert sc.metrics.shuffles_executed == 1


class TestJobAbortedErrorShape:
    def test_nested_abort_is_not_re_wrapped(self, sc):
        """An aborting nested job (shuffle map side) propagates as-is
        through the outer task instead of multiplying retries at each
        nesting level."""

        def boom(kv):
            raise RuntimeError("boom")

        pairs = sc.parallelize([(i % 4, 1) for i in range(16)], 2).map(boom)
        shuffled = pairs.reduce_by_key(lambda a, b: a + b)
        sc.metrics.reset()
        with pytest.raises(JobAbortedError) as excinfo:
            shuffled.collect()
        assert isinstance(excinfo.value.cause, RuntimeError)
        # only the inner map job burned a task budget; the outer reduce
        # task passed the abort through without re-driving the map side
        assert sc.metrics.tasks_failed == sc.max_task_failures
        assert sc.metrics.jobs_failed == 2  # the map job and the reduce job

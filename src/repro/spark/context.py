"""The driver context: entry point, job submission, metrics.

:class:`SparkContext` owns the engine's parts -- the scheduler
(:mod:`repro.spark.scheduler`), the shuffle (:mod:`repro.spark.shuffle`)
and the block cache (:mod:`repro.spark.cache`) -- and the
:class:`Metrics` they all count into.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.obs import NULL_TRACER, Tracer
from repro.spark.broadcast import Broadcast
from repro.spark.cache import _CacheManager
from repro.spark.cancellation import (
    KIND_ABORT,
    KIND_TIMEOUT,
    CancelToken,
    TaskCancelledError,
    current_token,
)
from repro.spark.errors import JobAbortedError
from repro.spark.rdd import (
    RDD,
    ParallelCollectionRDD,
    PartitionPruningRDD,
    ShuffledRDD,
)
from repro.spark.scheduler import _InlineJob, _ThreadJob, _rdd_label
from repro.spark.shuffle import _ShuffleManager

T = TypeVar("T")
U = TypeVar("U")


def _lineage_attrs(rdd: RDD) -> tuple[str, int]:
    """A job span's ``op`` tag and ``partitions_pruned`` count.

    The tag is the first named RDD up the lineage (operators name the
    RDDs they build: ``filter.live_index``, ``join.nested_loop``, ...),
    else the RDD's type; the count sums :class:`PartitionPruningRDD`
    nodes.  One breadth-first walk, stopping at shuffle boundaries --
    the map side runs as its own job and reports its own tag.
    """
    tag, pruned = None, 0
    queue, seen = deque([rdd]), {rdd.id}
    while queue:
        node = queue.popleft()
        if tag is None and node.name:
            tag = node.name
        if isinstance(node, PartitionPruningRDD):
            pruned += node.pruned_count
        if isinstance(node, ShuffledRDD):
            continue
        for parent in node.parents:
            if parent.id not in seen:
                seen.add(parent.id)
                queue.append(parent)
    return tag or type(rdd).__name__, pruned


@dataclass
class Metrics:
    """Execution counters the tests and benchmarks assert against.

    ``partitions_pruned`` in particular verifies the paper's claim that
    partition bounds/extents let queries skip partitions entirely.
    """

    tasks_launched: int = 0
    tasks_failed: int = 0
    tasks_retried: int = 0
    tasks_cancelled: int = 0
    tasks_timed_out: int = 0
    jobs_run: int = 0
    jobs_failed: int = 0
    shuffles_executed: int = 0
    shuffle_records_written: int = 0
    cache_hits: int = 0
    partitions_pruned: int = 0
    partitions_pruned_temporal: int = 0
    index_fallbacks: int = 0
    index_cache_hits: int = 0
    index_candidates: int = 0
    # Always 0: no index prunes slices.  bench/harness.py reads it; a bench change drops both.
    index_slices_pruned: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dict (a point-in-time copy)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class SparkContext:
    """The driver: creates RDDs, runs jobs, owns caches and metrics.

    ``parallelism`` controls both the default slice count of
    :meth:`parallelize` and the size of the task pool.  With
    ``executor="sequential"`` every attempt runs on the calling thread,
    one at a time in split order, which the test-suite uses.
    """

    def __init__(
        self,
        app_name: str = "repro",
        parallelism: int = 4,
        executor: str = "threads",
        tracing: bool = False,
        max_task_failures: int = 4,
        retry_backoff: float = 0.05,
        fault_injector=None,
        task_timeout: float | None = None,
        job_timeout: float | None = None,
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if executor not in ("threads", "sequential"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'sequential' or 'threads'"
            )
        if max_task_failures < 1:
            raise ValueError("max_task_failures must be >= 1")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        self.app_name = app_name
        self.default_parallelism = parallelism
        self._executor_mode = executor
        self._rdd_ids = itertools.count()
        self.metrics = Metrics()
        self._cache = _CacheManager()
        self._shuffle = _ShuffleManager(self)
        #: The execution tracer.  Defaults to the shared no-op tracer;
        #: pass ``tracing=True`` (or call :meth:`enable_tracing`) to
        #: record spans.
        self.tracer: Tracer = Tracer() if tracing else NULL_TRACER
        #: Attempts a task gets before the job aborts (Spark's
        #: ``spark.task.maxFailures``); each attempt recomputes the
        #: partition from lineage.
        self.max_task_failures = max_task_failures
        #: Base of the exponential retry backoff, in seconds: attempt
        #: *n* waits ``retry_backoff * 2**(n-1)`` before re-running.  The
        #: wait is timed by the driver loop -- a backing-off task never
        #: occupies a worker slot.
        self.retry_backoff = retry_backoff
        #: Optional :class:`repro.chaos.FaultInjector`; when set, the
        #: instrumented sites consult it.  Hot paths guard on ``is not
        #: None`` so the disabled case costs one attribute read.
        self.fault_injector = fault_injector
        #: Per-task deadline in seconds (Spark's task reaper): an
        #: attempt running longer is cooperatively cancelled, recorded
        #: as a :class:`TaskTimeoutError`, and retried from lineage.
        self.task_timeout = task_timeout
        #: Whole-job deadline in seconds: a top-level job running longer
        #: aborts with a job-scoped :class:`TaskTimeoutError` in its
        #: failure list.  Nested jobs share their parent's budget.
        self.job_timeout = job_timeout
        self._pool: ThreadPoolExecutor | None = None
        self._in_job = threading.local()
        self._stopped = False
        self._active_jobs: set[CancelToken] = set()
        self._jobs_lock = threading.Lock()

    def enable_tracing(self) -> Tracer:
        """Install (or return) a live :class:`Tracer` on this context."""
        if not self.tracer.enabled:
            self.tracer = Tracer()
        return self.tracer

    # -- RDD creation --------------------------------------------------------

    def parallelize(self, data: Iterable[T], num_slices: int | None = None) -> RDD[T]:
        """Create an RDD from an in-memory collection in *num_slices*
        partitions (omitted: the context's parallelism; below 1 raises
        ``ValueError``)."""
        if num_slices is None:
            num_slices = self.default_parallelism
        return ParallelCollectionRDD(self, data, num_slices)

    def empty_rdd(self) -> RDD[Any]:
        """An RDD with a single empty partition."""
        return ParallelCollectionRDD(self, [], 1)

    def text_file(self, path: str, num_slices: int | None = None) -> RDD[str]:
        """Read a text file (or directory of part-files) as an RDD of lines.

        A single file is cut into *num_slices* byte ranges (omitted: the
        context's parallelism; below 1 raises ``ValueError``).
        """
        from repro.spark import storage

        if num_slices is None:
            num_slices = self.default_parallelism
        return storage.text_file_rdd(self, path, num_slices)

    def object_file(self, path: str) -> RDD[Any]:
        """Read a directory written by ``save_as_object_file``.

        Partitioning is preserved: one part-file, one partition.
        """
        from repro.spark import storage

        return storage.object_file_rdd(self, path)

    def broadcast(self, value: T) -> Broadcast[T]:
        """Wrap a read-only value shared by every task."""
        return Broadcast(value)

    # -- execution -----------------------------------------------------------

    def run_job(
        self,
        rdd: RDD[T],
        fn: Callable[[Iterator[T]], U],
        partitions: Iterable[int] | None = None,
    ) -> list[U]:
        """Run ``fn`` over each requested partition and gather the results.

        The backbone of every action.  One driver loop
        (:class:`_JobLoop`) schedules every job; the executor only
        picks the transport its attempts travel by.  Nested jobs (e.g. a
        shuffle map side triggered from inside a reduce task) and
        one-task jobs run inline on the calling thread, the first to
        avoid pool starvation, the second because a pool round trip
        would cost more than the task.

        Each task gets :attr:`max_task_failures` attempts, recomputing
        its partition from lineage every time; a task that keeps failing
        aborts the job with :class:`JobAbortedError`.  Every attempt
        runs under a :class:`CancelToken` descended from the job's, so
        deadlines, lost races and :meth:`cancel_all_jobs` stop in-flight
        work cooperatively: a reaped attempt that returns before its
        relaunch still wins, and the relaunch is cancelled.

        With tracing on, the job runs inside a ``job`` span carrying the
        operator tag and pruning attribution of the target lineage, with
        one ``task`` span per attempt beneath it (``records_in``, and
        ``attempt`` / ``failures`` / ``last_error`` / ``cancelled`` /
        ``timeout`` as they apply); an aborting job is flagged
        ``aborted``.
        """
        if self._stopped:
            raise RuntimeError(
                f"SparkContext {self.app_name!r} has been stopped; "
                "create a new context to run jobs"
            )
        num_partitions = rdd.num_partitions
        splits = list(range(num_partitions) if partitions is None else partitions)
        for split in splits:
            if not 0 <= split < num_partitions:
                raise ValueError(
                    f"partition index {split} out of range for "
                    f"{_rdd_label(rdd)} with {num_partitions} partitions"
                )
        self.metrics.jobs_run += 1
        self.metrics.tasks_launched += len(splits)
        nested = getattr(self._in_job, "active", False)
        # Nested jobs always run inline: re-entering the pool from one
        # of its own threads could starve it.
        pooled = self._executor_mode == "threads" and not nested and len(splits) > 1
        # Nested jobs chain their token under the enclosing task's, so a
        # cancelled outer job reaches a shuffle map side levels deep.
        job_token = CancelToken(parent=current_token())
        with self._jobs_lock:
            self._active_jobs.add(job_token)
        job_timer: threading.Timer | None = None
        if self.job_timeout is not None and not nested:
            reason = f"job timeout after {self.job_timeout:g}s"
            job_timer = threading.Timer(self.job_timeout, job_token.cancel, (reason, KIND_TIMEOUT))
            job_timer.daemon = True
            job_timer.start()
        try:
            loop = (_ThreadJob(self, rdd, fn, splits, job_token) if pooled
                    else _InlineJob(self, rdd, fn, splits, job_token, nested))
            if not self.tracer.enabled:
                return loop.run()
            op, pruned = _lineage_attrs(rdd)
            attrs: dict = {"rdd": _rdd_label(rdd), "op": op, "tasks": len(splits)}
            if pruned:
                attrs["partitions_pruned"] = pruned
            with self.tracer.span("job", kind="job", **attrs) as job_span:
                try:
                    return loop.run(job_span)
                except JobAbortedError as exc:
                    job_span.attrs["aborted"] = True
                    job_span.attrs["error"] = f"{type(exc.cause).__name__}: {exc.cause}"
                    raise
                except TaskCancelledError:
                    # A nested job unwinding because its *enclosing* task was
                    # cancelled; the outer job does the accounting.
                    job_span.attrs["cancelled"] = True
                    raise
        except JobAbortedError:
            self.metrics.jobs_failed += 1
            raise
        finally:
            if job_timer is not None:
                job_timer.cancel()
            with self._jobs_lock:
                self._active_jobs.discard(job_token)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.default_parallelism,
                thread_name_prefix=f"{self.app_name}-task",
            )
        return self._pool

    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    # -- lifecycle -----------------------------------------------------------

    def cancel_all_jobs(self, reason: str = "cancelled by driver") -> int:
        """Cancel every running job from any thread; returns jobs signalled.

        Cooperative: each active job's token tree is cancelled, waking
        blocked waits and making polling loops raise promptly.  Running
        jobs abort with :class:`JobAbortedError`; the context itself
        stays usable for new jobs.
        """
        with self._jobs_lock:
            tokens = list(self._active_jobs)
        for token in tokens:
            token.cancel(reason, KIND_ABORT)
        return len(tokens)

    def stop(self) -> None:
        """Shut the context down: cancel jobs, release the pool, drop state.

        Idempotent, and safe to call from another thread as a
        killswitch -- in-flight jobs are cooperatively cancelled rather
        than waited for.  A stopped context refuses new jobs
        (:meth:`run_job` raises ``RuntimeError``); create a fresh
        context instead.
        """
        if self._stopped:
            return
        self._stopped = True
        self.cancel_all_jobs(reason="context stopped")
        if self._pool is not None:
            # wait=False: cancelled cooperative tasks drain on their
            # own; a truly wedged task must not block shutdown.
            self._pool.shutdown(wait=False)
            self._pool = None
        self._cache.clear()
        self._shuffle.clear()

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"SparkContext({self.app_name!r}, parallelism={self.default_parallelism})"

"""The driver context: entry point, scheduler, caches, metrics."""

from __future__ import annotations

import heapq
import itertools
import queue as queue_mod
import math
import pickle
import statistics
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.obs import NULL_TRACER, Tracer
from repro.obs.tracer import shift_spans
from repro.spark.accumulator import Accumulator
from repro.spark.broadcast import Broadcast
from repro.spark.cancellation import (
    KIND_ABORT,
    KIND_LOSER,
    KIND_STOP,
    KIND_TIMEOUT,
    CancelToken,
    Heartbeat,
    TaskCancelledError,
    current_token,
    task_scope,
)
from repro.spark.errors import JobAbortedError, TaskError, TaskTimeoutError
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import (
    RDD,
    ParallelCollectionRDD,
    PartitionPruningRDD,
    ShuffledRDD,
    _Aggregator,
)

T = TypeVar("T")
U = TypeVar("U")


def _rdd_label(rdd: RDD) -> str:
    """The rdd's scheduler-facing name, e.g. ``MapPartitionsRDD[12]``."""
    return f"{type(rdd).__name__}[{rdd.id}]"


def _lineage_tag(rdd: RDD) -> str:
    """The operator tag of a job: the first named RDD up the lineage.

    Operators name the RDDs they build (``filter.live_index``,
    ``join.nested_loop``, ...); the scheduler stamps that tag on the
    job span so every job in a trace is attributable.  Lineage walking
    stops at shuffle boundaries -- the map side runs as its own job and
    reports its own tag.
    """
    queue, seen = [rdd], {rdd.id}
    while queue:
        node = queue.pop(0)
        if node.name:
            return node.name
        if isinstance(node, ShuffledRDD):
            continue
        for parent in node.parents:
            if parent.id not in seen:
                seen.add(parent.id)
                queue.append(parent)
    return type(rdd).__name__


def _lineage_pruning(rdd: RDD) -> int:
    """Partitions pruned by :class:`PartitionPruningRDD` nodes in *rdd*'s
    lineage (not crossing shuffle boundaries)."""
    pruned = 0
    queue, seen = [rdd], {rdd.id}
    while queue:
        node = queue.pop(0)
        if isinstance(node, PartitionPruningRDD):
            pruned += node.pruned_count
        if isinstance(node, ShuffledRDD):
            continue
        for parent in node.parents:
            if parent.id not in seen:
                seen.add(parent.id)
                queue.append(parent)
    return pruned


class _CountingIterator:
    """Wraps a partition iterator to count the records a task consumed."""

    __slots__ = ("_it", "count")

    def __init__(self, it: Iterator) -> None:
        self._it = iter(it)
        self.count = 0

    def __iter__(self) -> "_CountingIterator":
        return self

    def __next__(self):
        value = next(self._it)
        self.count += 1
        return value


#: The metric counters worker processes may contribute deltas to.  The
#: scheduler counters (tasks_launched, tasks_retried, ...) are owned by
#: the driver loop, which already accounts every attempt it schedules;
#: merging those from workers too would double-count.
WORKER_METRICS = frozenset(
    {
        "cache_hits",
        "cache_evictions",
        "index_fallbacks",
        "index_cache_hits",
        "index_candidates",
        "index_slices_pruned",
        "shuffle_records_written",
        "partitions_pruned",
        "partitions_pruned_temporal",
    }
)


@dataclass
class Metrics:
    """Execution counters the tests and benchmarks assert against.

    ``partitions_pruned`` in particular verifies the paper's claim that
    partition bounds/extents let queries skip partitions entirely.
    """

    tasks_launched: int = 0
    tasks_failed: int = 0
    tasks_retried: int = 0
    tasks_speculated: int = 0
    tasks_cancelled: int = 0
    tasks_timed_out: int = 0
    speculation_wins: int = 0
    jobs_run: int = 0
    jobs_failed: int = 0
    shuffles_executed: int = 0
    shuffle_records_written: int = 0
    cache_hits: int = 0
    cache_evictions: int = 0
    partitions_pruned: int = 0
    partitions_pruned_temporal: int = 0
    index_fallbacks: int = 0
    index_cache_hits: int = 0
    index_candidates: int = 0
    index_slices_pruned: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dict (a point-in-time copy)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class _CacheManager:
    """Per-(rdd, partition) in-memory block store with an optional LRU cap.

    ``max_entries`` bounds the number of cached partition blocks; when
    exceeded, the least-recently-used block is dropped (and recomputed
    from lineage on next access), with ``metrics.cache_evictions``
    counting the drops.  Unbounded by default, matching Spark's
    behaviour of evicting only under memory pressure.
    """

    def __init__(self, max_entries: int | None = None, metrics: Metrics | None = None) -> None:
        self._blocks: OrderedDict[tuple[int, int], list] = OrderedDict()
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._metrics = metrics
        #: Ids of garbage-collected RDDs whose blocks nobody can read any
        #: more; dropped by the next ``put`` / ``len`` (see :meth:`discard`).
        self._dead: deque[int] = deque()

    def get(self, rdd_id: int, split: int) -> list | None:
        with self._lock:
            block = self._blocks.get((rdd_id, split))
            if block is not None and self._max_entries is not None:
                self._blocks.move_to_end((rdd_id, split))
            return block

    def put(self, rdd_id: int, split: int, data: list) -> None:
        with self._lock:
            self._sweep()
            self._blocks[(rdd_id, split)] = data
            if self._max_entries is not None:
                self._blocks.move_to_end((rdd_id, split))
                while len(self._blocks) > self._max_entries:
                    self._blocks.popitem(last=False)
                    if self._metrics is not None:
                        self._metrics.cache_evictions += 1

    def evict_rdd(self, rdd_id: int) -> None:
        with self._lock:
            for key in [k for k in self._blocks if k[0] == rdd_id]:
                del self._blocks[key]

    def discard(self, rdd_id: int) -> None:
        """Mark a collected RDD's blocks for removal (finalizer-safe).

        Runs from ``weakref.finalize`` -- on whatever thread dropped the
        last reference, possibly inside one of this manager's own locked
        sections -- so it takes no lock and touches no dict: it only
        queues the id.
        """
        self._dead.append(rdd_id)

    def _sweep(self) -> None:
        # Caller holds the lock.
        if self._dead:
            dead = {self._dead.popleft() for _ in range(len(self._dead))}
            for key in [k for k in self._blocks if k[0] in dead]:
                del self._blocks[key]

    def __len__(self) -> int:
        with self._lock:
            self._sweep()
            return len(self._blocks)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()


class _ShuffleManager:
    """Materializes and serves map outputs for shuffles.

    Each registered shuffle runs its map side exactly once (on first
    fetch), bucketing every parent partition's records by the target
    partitioner.  With an aggregator, map-side combining happens here --
    the reproduction of Spark's ``mapSideCombine``.
    """

    def __init__(self, context: "SparkContext") -> None:
        self._context = context
        self._ids = itertools.count()
        self._registered: dict[int, tuple[RDD, Partitioner, _Aggregator | None]] = {}
        self._outputs: dict[int, list[dict[int, bytes]]] = {}
        # One lock *per shuffle id* so independent shuffles run their map
        # sides concurrently instead of serializing on a single manager
        # lock.  Each is reentrant: a reduce task of one shuffle may
        # trigger the map side of an upstream shuffle on the same thread
        # (nested jobs run inline).  Lock ordering follows the lineage
        # DAG (downstream shuffle -> upstream shuffle), so cross-shuffle
        # acquisition cannot cycle.
        self._manager_lock = threading.Lock()
        self._locks: dict[int, threading.RLock] = {}
        #: Shuffle ids whose ShuffledRDD was garbage-collected; their map
        #: outputs are dropped by the next ``register`` (see :meth:`discard`).
        self._dead: deque[int] = deque()

    def register(
        self, parent: RDD, partitioner: Partitioner, aggregator: _Aggregator | None
    ) -> int:
        shuffle_id = next(self._ids)
        with self._manager_lock:
            for _ in range(len(self._dead)):
                dead = self._dead.popleft()
                self._registered.pop(dead, None)
                self._outputs.pop(dead, None)
                self._locks.pop(dead, None)
            self._registered[shuffle_id] = (parent, partitioner, aggregator)
        return shuffle_id

    def discard(self, shuffle_id: int) -> None:
        """Mark a collected ShuffledRDD's outputs for removal (finalizer-safe).

        Only that RDD could fetch them.  Like the cache manager's
        ``discard`` this runs from a finalizer, so it only queues the id.
        """
        self._dead.append(shuffle_id)

    def _lock_for(self, shuffle_id: int) -> threading.RLock:
        with self._manager_lock:
            lock = self._locks.get(shuffle_id)
            if lock is None:
                lock = self._locks[shuffle_id] = threading.RLock()
            return lock

    def fetch(self, shuffle_id: int, reduce_split: int) -> Iterator[tuple]:
        injector = self._context.fault_injector
        if injector is not None:
            # A failed fetch surfaces in the reduce task, which the
            # scheduler retries; completed map outputs are reused.
            injector.check("shuffle.fetch", key=(shuffle_id, reduce_split))
        outputs = self._ensure_map_outputs(shuffle_id)
        return itertools.chain.from_iterable(
            pickle.loads(map_out[reduce_split])
            for map_out in outputs
            if reduce_split in map_out
        )

    def _ensure_map_outputs(self, shuffle_id: int) -> list[dict[int, bytes]]:
        # Double-checked locking: reduce tasks may arrive concurrently
        # from the thread pool; only one runs the map side.  A map side
        # that *fails* leaves no entry behind -- ``_outputs`` is only
        # written on success -- so a retried reduce task re-runs it from
        # scratch instead of fetching poisoned buckets.
        ready = self._outputs.get(shuffle_id)
        if ready is not None:
            return ready
        with self._lock_for(shuffle_id):
            ready = self._outputs.get(shuffle_id)
            if ready is not None:
                return ready
            parent, partitioner, aggregator = self._registered[shuffle_id]
            tracer = self._context.tracer
            if tracer.enabled:
                with tracer.span(
                    "shuffle",
                    kind="shuffle",
                    shuffle_id=shuffle_id,
                    map_partitions=parent.num_partitions,
                    reduce_partitions=partitioner.num_partitions,
                    combine=aggregator is not None,
                ) as shuffle_span:
                    outputs = self._run_map_side(
                        parent, partitioner, aggregator, shuffle_span
                    )
            else:
                outputs = self._run_map_side(parent, partitioner, aggregator)
            self._outputs[shuffle_id] = outputs
            self._context.metrics.shuffles_executed += 1
            return outputs

    def _run_map_side(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: _Aggregator | None,
        shuffle_span=None,
    ) -> list[dict[int, bytes]]:
        # The map side is itself a job over the parent RDD.  From inside
        # a reduce task, run_job must not recurse into the pool
        # (deadlock risk), so the context runs nested jobs inline; from
        # the driver (processes-backend pre-materialization) it runs as
        # a regular pooled job, so the map task must be a context-free
        # picklable closure -- accounting happens here afterwards.
        map_task = _make_map_task(partitioner, aggregator)
        results = self._context.run_job(parent, map_task)
        outputs = [buckets for buckets, _written in results]
        written = sum(w for _buckets, w in results)
        self._context.metrics.shuffle_records_written += written
        if shuffle_span is not None:
            self._context.tracer.add_to(shuffle_span, "records_written", written)
        return outputs

    def ensure(self, shuffle_id: int) -> None:
        """Materialize a shuffle's map outputs now (driver-side).

        The processes backend calls this for every shuffle id reachable
        from a job's payload *before* dispatching tasks, so workers only
        ever fetch ready buckets.  If the map side itself hangs a
        shuffle upstream, the recursion terminates: the map job's own
        payload preparation ensures *its* upstream shuffles first.
        """
        self._ensure_map_outputs(shuffle_id)

    def serve_blocks(self, shuffle_id: int, reduce_split: int) -> list[bytes]:
        """Return one reduce partition's buckets for a worker fetch.

        One pickled blob per map output that produced records for this
        partition.  Unlike :meth:`fetch`, no chaos check happens here:
        ``shuffle.fetch`` faults fire worker-side so they surface inside
        the task.
        """
        outputs = self._outputs.get(shuffle_id)
        if outputs is None:
            raise RuntimeError(
                f"shuffle {shuffle_id} has no materialized map outputs; "
                "processes jobs must ensure() their shuffles before dispatch"
            )
        return [out[reduce_split] for out in outputs if reduce_split in out]

    def clear(self) -> None:
        with self._manager_lock:
            self._outputs.clear()
            self._registered.clear()
            self._locks.clear()


def _make_map_task(partitioner: Partitioner, aggregator: _Aggregator | None):
    """Build the map-side task closure for one shuffle.

    Module-level factory so the closure captures only picklable state
    (partitioner, aggregator) -- never the context, metrics or tracer --
    and therefore ships to worker processes unchanged.  It returns
    ``(buckets, records_written)``; the shuffle manager does the
    metrics/tracing accounting driver-side.
    """

    def map_task(it: Iterator[tuple]) -> tuple[dict[int, bytes], int]:
        # Buckets are sparse (dict keyed by reduce partition): a map
        # task touching few of the reduce partitions must not pay
        # for the rest, or high-partition-count shuffles (e.g. fine
        # tile grids) would go quadratic.
        heartbeat = Heartbeat(every=1024)
        buckets: dict[int, list] = {}
        if aggregator is None:
            for kv in it:
                heartbeat.beat()
                buckets.setdefault(partitioner.get_partition(kv[0]), []).append(kv)
        else:
            combined: dict[int, dict] = {}
            for k, v in it:
                heartbeat.beat()
                bucket = combined.setdefault(partitioner.get_partition(k), {})
                if k in bucket:
                    bucket[k] = aggregator.merge_value(bucket[k], v)
                else:
                    bucket[k] = aggregator.create_combiner(v)
            buckets = {pid: list(d.items()) for pid, d in combined.items()}
        written = sum(len(b) for b in buckets.values())
        # Spill through pickle: a real shuffle serializes every record
        # to disk/network.  Reference-passing would hide the very cost
        # that separates replication-based join strategies from STARK's
        # single-assignment design.
        return (
            {
                pid: pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
                for pid, rows in buckets.items()
            },
            written,
        )

    return map_task


class _TaskAttempt:
    """One scheduled attempt of one task."""

    __slots__ = (
        "split", "number", "speculative", "token", "start", "span",
        "timed_out", "handle",
    )

    def __init__(self, split: int, number: int, speculative: bool, token: CancelToken) -> None:
        self.split = split
        self.number = number
        self.speculative = speculative
        self.token = token
        #: Set by the worker when execution actually begins (queue time
        #: does not count against the task deadline).
        self.start: float | None = None
        self.span = None
        self.timed_out = False
        #: The process pool's task handle (processes backend only).
        self.handle = None


#: Sentinel pushed into a pool job's outcome queue to wake the driver
#: loop when its job token is cancelled from another thread.
_WAKE = object()


class _JobLoop:
    """The event-driven driver loop of one job: the scheduler's only policy.

    Every scheduling decision -- launch order, retries and their
    backoff, per-task and whole-job deadlines, speculative copies of
    stragglers, first-result-wins resolution, abort and cancellation --
    is made here, on the thread that called ``run_job``.  A *transport*
    subclass contributes only how an attempt is started, stopped and
    waited for, and how many splits may be in progress at once.

    The loop sleeps until the next scheduled event, so a job with no
    deadlines and no failures costs no polling at all, while a hung
    task can never block the driver past its deadline: the overdue
    attempt's token is cancelled, a typed :class:`TaskTimeoutError` is
    recorded, and a fresh attempt is launched without waiting for it.
    """

    #: Splits that may be in progress (launched, unresolved) at once.
    _window: float = math.inf

    def __init__(self, ctx: "SparkContext", rdd: RDD, fn, splits: list[int],
                 job_token: CancelToken, nested: bool = False) -> None:
        self._ctx = ctx
        self._rdd = rdd
        self._fn = fn
        self._splits = splits
        self._job_token = job_token
        self._nested = nested
        self._job_span = None
        self._results: dict[int, Any] = {}
        # Per-split state fills in lazily: a clean job records none of it.
        self._failures: dict[int, list[TaskError]] = {}
        self._seq: dict[int, int] = {}
        self._live: dict[int, list[_TaskAttempt]] = {}
        self._retry_heap: list[tuple[float, int]] = []  # (ready_at, split)
        self._retry_pending: set[int] = set()
        self._speculated: set[int] = set()
        self._durations: list[float] = []

    @property
    def _label(self) -> str:
        return _rdd_label(self._rdd)

    # -- the transport contract ---------------------------------------------

    def _submit_attempt(self, attempt: _TaskAttempt):
        """Start *attempt*; its ``(attempt, ok, payload)`` outcome if it
        ran to completion on this thread, else None (see :meth:`_wait`)."""
        raise NotImplementedError

    def _cancel_attempt(self, attempt: _TaskAttempt, reason: str, kind: str) -> None:
        """Stop one in-flight attempt (cooperatively, through its token)."""
        attempt.token.cancel(reason, kind)

    def _wait(self, timeout: float | None) -> Iterable[tuple]:
        """Block until outcomes arrive, the job token is cancelled or
        *timeout* seconds pass; the outcomes that arrived."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------

    def run(self, job_span=None) -> list:
        """Drive every split to a result; the results in request order."""
        self._job_span = job_span
        splits, results = self._splits, self._results
        # A split requested twice is computed once and answered twice.
        todo = splits if len(splits) == 1 else list(dict.fromkeys(splits))
        total, launched, heap = len(todo), 0, self._retry_heap
        while True:
            while heap and heap[0][0] <= time.perf_counter():
                split = heapq.heappop(heap)[1]
                self._retry_pending.discard(split)
                if split not in results:
                    self._launch(split)
            while launched < total and launched - len(results) < self._window:
                self._launch(todo[launched])
                launched += 1
            if len(results) == total:
                return [results[s] for s in splits]
            # Not checked before launching: an attempt under a cancelled
            # job token returns at once, and a job that finishes never pays.
            if self._job_token.cancelled:
                self._abort_cancelled()
            now = time.perf_counter()
            threshold = self._speculation_threshold()
            self._enforce_task_deadlines(now)
            self._maybe_speculate(now, threshold)
            for outcome in self._wait(self._next_wait(now, threshold)):
                self._handle(outcome)

    # -- launching ---------------------------------------------------------

    def _launch(self, split: int, speculative: bool = False) -> None:
        number = self._seq[split] = self._seq.get(split, 0) + 1
        attempt = _TaskAttempt(
            split, number, speculative, CancelToken(parent=self._job_token)
        )
        self._live.setdefault(split, []).append(attempt)
        if speculative:
            self._speculated.add(split)
            self._ctx.metrics.tasks_speculated += 1
        try:
            outcome = self._submit_attempt(attempt)
        except RuntimeError as exc:  # pool shut down beneath us (stop())
            self._live[split].remove(attempt)
            self._abort(JobAbortedError(
                self._label, split, number, exc, self._failures.get(split, ())
            ))
        if outcome is not None:
            self._handle(outcome)

    # -- the task body (in-process transports) -----------------------------

    def _run_attempt(self, attempt: _TaskAttempt) -> tuple:
        """Compute one attempt on the current thread; its outcome.

        Never raises -- even ``KeyboardInterrupt`` comes back as an
        outcome, so the loop can cancel siblings and re-raise on the
        calling thread.  The ``task`` span is parented to the job span
        explicitly because the attempt may run on a pool thread; nested
        jobs attach beneath it through the thread's span stack.
        """
        in_job = self._ctx._in_job
        # Mark this thread as inside a task so any nested job it
        # triggers (e.g. a shuffle map side) takes the inline transport
        # instead of re-entering the pool and starving it.
        previous = getattr(in_job, "active", False)
        in_job.active = True
        attempt.start = time.perf_counter()
        try:
            with task_scope(attempt.token):
                attempt.token.check()
                if self._job_span is None:
                    return attempt, True, self._compute(attempt.split, None)
                attrs: dict = {"split": attempt.split}
                if attempt.number > 1:
                    attrs["attempt"] = attempt.number
                if attempt.speculative:
                    attrs["speculative"] = True
                with self._ctx.tracer.span(
                    "task", kind="task", parent=self._job_span, **attrs
                ) as span:
                    attempt.span = span
                    try:
                        return attempt, True, self._compute(attempt.split, span)
                    except TaskCancelledError as exc:
                        span.attrs["cancelled"] = True
                        if exc.kind == KIND_TIMEOUT:
                            span.attrs["timeout"] = True
                        raise
                    except JobAbortedError:
                        raise
                    except Exception as exc:
                        span.note_failure(f"{type(exc).__name__}: {exc}")
                        raise
        except BaseException as exc:
            return attempt, False, exc
        finally:
            in_job.active = previous

    def _compute(self, split: int, span):
        """Recompute one partition from lineage and apply the job's function.

        A cached block is only reused if a previous attempt fully
        materialized it, so a failed attempt never poisons the cache.
        """
        rdd = self._rdd
        injector = self._ctx.fault_injector
        if injector is not None:
            injector.check("task.compute", key=(rdd.id, split))
        if span is None:
            return self._fn(rdd.iterator(split))
        counted = _CountingIterator(rdd.iterator(split))
        try:
            return self._fn(counted)
        finally:
            span.attrs["records_in"] = counted.count

    # -- outcomes ----------------------------------------------------------

    def _handle(self, outcome) -> None:
        attempt, ok, payload = outcome
        if isinstance(payload, TaskCancelledError) and self._job_token.cancelled:
            # The job itself was cancelled.  run() aborts next, and counts
            # this attempt among the running ones it cancels.
            return
        split = attempt.split
        live = self._live[split]
        if attempt in live:
            live.remove(attempt)
        if ok:
            if attempt.start is not None and self._ctx.speculation:
                self._durations.append(time.perf_counter() - attempt.start)
            if split in self._results:
                return  # a sibling already won; late result discarded
            self._results[split] = payload
            if attempt.speculative:
                self._ctx.metrics.speculation_wins += 1
            self._cancel("task superseded by a completed attempt", KIND_LOSER, live)
            return
        exc = payload
        if isinstance(exc, JobAbortedError):
            # A nested job already burned its own retry budget; terminal.
            self._abort(exc)
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            self._cancel("job interrupted", KIND_ABORT)
            raise exc
        if isinstance(exc, TaskCancelledError) and attempt.token.cancelled:
            # Whoever cancelled the token owns the accounting, and the
            # loop did it when it reaped a deadline or resolved a race.
            # That leaves the inline transport's watchdog, which can only
            # cancel: its deadline is booked here.
            if exc.kind == KIND_TIMEOUT and not attempt.timed_out:
                self._task_timed_out(attempt)
            return
        if split in self._results:
            return  # stray failure of a redundant attempt
        self._record_failure(
            split, TaskError(self._label, split, attempt.number, exc), exc
        )

    def _record_failure(
        self, split: int, record: TaskError, cause: BaseException, retry: bool = True
    ) -> None:
        """Charge one failed attempt to *split*'s retry budget: abort once
        it is spent, else relaunch after the exponential backoff (timed
        by the loop, so a backing-off task occupies no worker)."""
        self._ctx.metrics.tasks_failed += 1
        failures = self._failures.setdefault(split, [])
        failures.append(record)
        if len(failures) >= self._ctx.max_task_failures:
            self._abort(JobAbortedError(self._label, split, len(failures), cause, failures))
        if retry:
            self._ctx.metrics.tasks_retried += 1
            delay = self._ctx.retry_backoff * (2 ** (len(failures) - 1))
            heapq.heappush(self._retry_heap, (time.perf_counter() + delay, split))
            self._retry_pending.add(split)

    # -- deadlines and speculation ----------------------------------------

    def _running(self) -> Iterator[_TaskAttempt]:
        """Attempts still racing for an unresolved split (overdue ones excluded)."""
        for split, attempts in self._live.items():
            if split not in self._results:
                for attempt in attempts:
                    if not attempt.timed_out:
                        yield attempt

    def _enforce_task_deadlines(self, now: float) -> None:
        timeout = self._ctx.task_timeout
        if timeout is None:
            return
        for attempt in self._running():
            if attempt.start is not None and now - attempt.start >= timeout:
                self._cancel_attempt(
                    attempt, f"task timeout after {timeout:g}s", KIND_TIMEOUT
                )
                self._task_timed_out(attempt)

    def _task_timed_out(self, attempt: _TaskAttempt) -> None:
        """Book an attempt that overran ``task_timeout`` (its token is
        already cancelled): a typed failure against the retry budget."""
        attempt.timed_out = True
        self._ctx.metrics.tasks_timed_out += 1
        split = attempt.split
        record = TaskTimeoutError(
            self._label, split, attempt.number, self._ctx.task_timeout or 0.0
        )
        if attempt.span is not None:
            attempt.span.note_failure(f"TaskTimeoutError: {record}")
            attempt.span.attrs["timeout"] = True
        # Relaunch only if no healthy attempt is still racing (a live
        # speculative copy *is* the retry).
        covered = split in self._retry_pending or any(
            not a.timed_out for a in self._live[split]
        )
        self._record_failure(split, record, record, retry=not covered)

    def _speculation_threshold(self) -> float | None:
        """The runtime past which a task is a straggler; None while
        speculation is off or too few tasks have finished to judge."""
        ctx = self._ctx
        total = len(self._splits)
        if not ctx.speculation or total < 2 or not self._durations:
            return None
        if len(self._results) < max(1, math.ceil(ctx.speculation_quantile * total)):
            return None
        return ctx.speculation_multiplier * statistics.median(self._durations)

    def _speculatable(self) -> Iterator[_TaskAttempt]:
        """Running attempts whose split may still get a speculative copy
        (none on the inline transport: nothing runs while the loop looks,
        so speculation there is accepted and inert)."""
        for attempt in self._running():
            split = attempt.split
            if split not in self._speculated and split not in self._retry_pending:
                yield attempt

    def _maybe_speculate(self, now: float, threshold: float | None) -> None:
        if threshold is None:
            return
        for attempt in list(self._speculatable()):
            if attempt.start is not None and now - attempt.start >= threshold:
                self._launch(attempt.split, speculative=True)

    def _next_wait(self, now: float, threshold: float | None) -> float | None:
        """Seconds until the next scheduled event, or None to block.

        Whatever is due already was acted on by the caller with the same
        *now*, so a zero wait cannot repeat and needs no floor.
        """
        candidates: list[float] = []
        if self._retry_heap:
            candidates.append(self._retry_heap[0][0] - now)
        for limit, attempts in (
            (self._ctx.task_timeout, self._running),
            (threshold, self._speculatable),
        ):
            if limit is not None:
                for attempt in attempts():
                    # Queued behind a busy pool: poll for its start.
                    candidates.append(
                        0.02 if attempt.start is None else attempt.start + limit - now
                    )
        return max(0.0, min(candidates)) if candidates else None

    # -- aborting ----------------------------------------------------------

    def _cancel(self, reason: str, kind: str, attempts=None) -> None:
        if attempts is None:  # everything still in flight
            attempts = [a for live in self._live.values() for a in live]
        for attempt in attempts:
            if not attempt.timed_out:
                self._ctx.metrics.tasks_cancelled += 1
            self._cancel_attempt(attempt, reason, kind)
            if attempt.span is not None:
                attempt.span.attrs["cancelled"] = True

    def _abort(self, error: JobAbortedError) -> None:
        self._cancel("job aborted", KIND_ABORT)
        raise error from error.cause

    def _abort_cancelled(self) -> None:
        """The job token was cancelled from outside the loop."""
        token = self._job_token
        if self._nested:
            # The enclosing attempt timed out, lost a race or was
            # aborted.  Unwind raw, no abort and no accounting: the outer
            # loop owns both and may retry that task, re-running this job.
            raise TaskCancelledError(token.reason or "job cancelled", token.kind)
        split = next(s for s in self._splits if s not in self._results)
        failures = list(self._failures.get(split, ()))
        if token.kind == KIND_TIMEOUT:
            record = TaskTimeoutError(
                self._label, split, max(1, self._seq.get(split, 0)),
                self._ctx.job_timeout or 0.0, scope="job",
            )
            failures.append(record)
            self._ctx.metrics.tasks_timed_out += 1
            cause: BaseException = record
        else:
            cause = TaskCancelledError(token.reason or "job cancelled", token.kind)
        self._abort(JobAbortedError(
            self._label, split, max(1, len(failures)), cause, failures
        ))


class _InlineJob(_JobLoop):
    """The inline transport: an attempt is a call on the driver thread.

    With a window of one split, attempts run one at a time in split
    order and a failed split's retry runs, after its backoff, before
    the next split starts: execution order is a function of the job and
    the fault plan alone, which keeps seeded chaos runs reproducible.
    """

    _window = 1

    def _submit_attempt(self, attempt: _TaskAttempt) -> tuple:
        timeout = self._ctx.task_timeout
        if timeout is None:
            return self._run_attempt(attempt)
        # The driver thread is about to be busy computing, so a timer
        # cancels an overdue attempt; _handle books the deadline.
        watchdog = threading.Timer(
            timeout,
            attempt.token.cancel,
            args=(f"task timeout after {timeout:g}s", KIND_TIMEOUT),
        )
        watchdog.daemon = True
        watchdog.start()
        try:
            return self._run_attempt(attempt)
        finally:
            watchdog.cancel()

    def _wait(self, timeout: float | None) -> Iterable[tuple]:
        # Only a retry can be pending; waiting on the job token lets a
        # cancelled job cut the backoff short.
        self._job_token.wait(timeout)
        return ()


class _ThreadJob(_JobLoop):
    """The thread-pool transport: pool threads compute, a queue reports."""

    def __init__(self, ctx: "SparkContext", rdd: RDD, fn, splits: list[int],
                 job_token: CancelToken) -> None:
        super().__init__(ctx, rdd, fn, splits, job_token)
        self._outcomes: queue_mod.Queue = queue_mod.Queue()
        job_token.add_callback(lambda: self._outcomes.put(_WAKE))

    def _submit_attempt(self, attempt: _TaskAttempt) -> None:
        self._ctx._ensure_pool().submit(
            lambda: self._outcomes.put(self._run_attempt(attempt))
        )

    def _wait(self, timeout: float | None) -> Iterator[tuple]:
        try:
            outcome = self._outcomes.get(timeout=timeout)
            while True:
                if outcome is not _WAKE:
                    yield outcome
                outcome = self._outcomes.get_nowait()
        except queue_mod.Empty:
            return


class _ProcessJob(_ThreadJob):
    """The process-pool transport.

    Scheduling policy is :class:`_JobLoop`'s, unchanged; what differs is
    how an attempt travels.  Attempts dispatch to a
    :class:`~repro.spark.procpool.ProcessPool` as a serialized payload +
    split id; workers recompute the partition from shipped lineage and
    send back the value plus the *side data* a shared address space
    used to make free -- a metrics delta, recorded accumulator terms,
    chaos counters and the task's trace span -- which :meth:`_absorb`
    merges into driver state.  Cancellation is kill-based:
    :meth:`_cancel_attempt` still cancels the driver-side token (so the
    loop's accounting is identical) and then shoots the attempt's
    worker process; the pool synthesizes a ``TaskCancelledError``
    outcome that ``_handle`` already knows to ignore.
    """

    def __init__(self, ctx: "SparkContext", rdd: RDD, fn, splits: list[int],
                 job_token: CancelToken, payload) -> None:
        super().__init__(ctx, rdd, fn, splits, job_token)
        self._payload = payload
        self._pool = ctx._ensure_proc_pool()
        injector = ctx.fault_injector
        self._meta_base = {
            "tracing": ctx.tracer.enabled,
            "chaos": injector.worker_spec() if injector is not None else None,
        }

    def run(self, job_span=None) -> list:
        try:
            return super().run(job_span)
        finally:
            # Workers cache the payload bytes for the job's duration;
            # the job is over, reclaim the memory.
            self._pool.release_payload(self._payload.payload_id)

    def _submit_attempt(self, attempt: _TaskAttempt) -> None:
        meta = dict(self._meta_base, attempt=attempt.number)
        outcomes = self._outcomes

        def on_start() -> None:
            attempt.start = time.perf_counter()

        def on_outcome(ok: bool, out) -> None:
            outcomes.put((attempt, ok, out))

        attempt.handle = self._pool.submit(
            self._payload, attempt.split, meta, on_start, on_outcome
        )

    def _cancel_attempt(self, attempt: _TaskAttempt, reason: str, kind: str) -> None:
        attempt.token.cancel(reason, kind)
        if attempt.handle is not None:
            self._pool.kill(attempt.handle, TaskCancelledError(reason, kind))

    def _handle(self, outcome) -> None:
        attempt, ok, payload = outcome
        if isinstance(payload, dict):
            payload = self._absorb(attempt, ok, payload)
        super()._handle((attempt, ok, payload))

    def _absorb(self, attempt: _TaskAttempt, ok: bool, out: dict):
        """Merge a worker outcome's side data; return the value/error.

        Metrics deltas, chaos counters and trace spans merge for every
        delivered outcome -- under threads, losing attempts also leave
        those footprints.  Accumulator terms only replay for an attempt
        whose *result is accepted* (first success per split), so a
        retried or superseded attempt cannot double-count.
        """
        ctx = self._ctx
        metrics = out.get("metrics")
        if metrics:
            for name, amount in metrics.items():
                if name in WORKER_METRICS:
                    setattr(ctx.metrics, name, getattr(ctx.metrics, name) + amount)
        chaos = out.get("chaos")
        if chaos and ctx.fault_injector is not None:
            ctx.fault_injector.merge_worker_stats(chaos)
        span = out.get("span")
        if span is not None and ctx.tracer.enabled and self._job_span is not None:
            shift_spans(span, attempt.start or time.perf_counter())
            if attempt.number > 1:
                span.attrs["attempt"] = attempt.number
            if attempt.speculative:
                span.attrs["speculative"] = True
            ctx.tracer.attach(self._job_span, span)
            attempt.span = span
        if ok:
            if attempt.split not in self._results:
                accumulators = out.get("accumulators")
                if accumulators:
                    for acc_id, terms in accumulators.items():
                        accumulator = self._payload.accumulators.get(acc_id)
                        if accumulator is not None:
                            for term in terms:
                                accumulator.add(term)
            return out.get("value")
        error = out.get("error")
        if not isinstance(error, BaseException):
            error = RuntimeError(f"worker task failed: {error!r}")
        remote_traceback = out.get("traceback")
        if remote_traceback:
            error.remote_traceback = remote_traceback
        return error


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
        tracer: Tracer | None = None,
        max_task_failures: int = 4,
        retry_backoff: float = 0.05,
        fault_injector=None,
        task_timeout: float | None = None,
        job_timeout: float | None = None,
        speculation: bool = False,
        speculation_quantile: float = 0.75,
        speculation_multiplier: float = 1.5,
        max_cache_entries: int | None = None,
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if executor not in ("threads", "sequential", "processes"):
            raise ValueError(f"unknown executor {executor!r}")
        if executor == "processes" and speculation:
            raise ValueError(
                "speculation requires the threads executor: speculative "
                "copies are cancelled cooperatively, which cannot cross a "
                "process boundary (processes get kill-based deadlines instead)"
            )
        if max_task_failures < 1:
            raise ValueError("max_task_failures must be >= 1")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if not 0.0 < speculation_quantile <= 1.0:
            raise ValueError("speculation_quantile must be in (0, 1]")
        if speculation_multiplier < 1.0:
            raise ValueError("speculation_multiplier must be >= 1.0")
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError("max_cache_entries must be >= 1")
        self.app_name = app_name
        self.default_parallelism = parallelism
        self._executor_mode = executor
        self._rdd_ids = itertools.count()
        self.metrics = Metrics()
        self._cache = _CacheManager(max_cache_entries, self.metrics)
        self._shuffle = _ShuffleManager(self)
        #: The execution tracer.  Defaults to the shared no-op tracer;
        #: pass ``tracing=True`` (or a :class:`Tracer`) to record spans.
        self.tracer: Tracer = tracer or (Tracer() if tracing else NULL_TRACER)
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
        #: Enable speculative execution (Spark's ``spark.speculation``):
        #: once ``speculation_quantile`` of a job's tasks have finished,
        #: a task running longer than ``speculation_multiplier`` x the
        #: median runtime gets a second copy; first result wins, the
        #: loser is cancelled.  Thread-pool executor only.
        self.speculation = speculation
        self.speculation_quantile = speculation_quantile
        self.speculation_multiplier = speculation_multiplier
        self._pool: ThreadPoolExecutor | None = None
        self._proc_pool = None
        self._max_cache_entries = max_cache_entries
        self._in_job = threading.local()
        self._stopped = False
        self._active_jobs: set[CancelToken] = set()
        self._jobs_lock = threading.Lock()

    def enable_tracing(self) -> Tracer:
        """Install (or return) a live :class:`Tracer` on this context."""
        if not self.tracer.enabled:
            self.tracer = Tracer()
        return self.tracer

    def install_fault_injector(self, injector):
        """Install a :class:`repro.chaos.FaultInjector` (None to remove)."""
        self.fault_injector = injector
        return injector

    # -- RDD creation --------------------------------------------------------

    def parallelize(self, data: Iterable[T], num_slices: int | None = None) -> RDD[T]:
        """Create an RDD from an in-memory collection."""
        return ParallelCollectionRDD(self, data, num_slices or self.default_parallelism)

    def empty_rdd(self) -> RDD[Any]:
        """An RDD with a single empty partition."""
        return ParallelCollectionRDD(self, [], 1)

    def text_file(self, path: str, num_slices: int | None = None) -> RDD[str]:
        """Read a text file (or directory of part-files) as an RDD of lines."""
        from repro.spark import storage

        return storage.text_file_rdd(self, path, num_slices or self.default_parallelism)

    def object_file(self, path: str) -> RDD[Any]:
        """Read a directory written by ``save_as_object_file``.

        Partitioning is preserved: one part-file, one partition.
        """
        from repro.spark import storage

        return storage.object_file_rdd(self, path)

    def broadcast(self, value: T) -> Broadcast[T]:
        """Wrap a read-only value shared by every task."""
        return Broadcast(value)

    def accumulator(self, initial: U, op: Callable[[U, U], U] | None = None) -> Accumulator[U]:
        """A write-only aggregation variable tasks can add to."""
        return Accumulator(initial, op)

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
        deadlines, speculation losses and :meth:`cancel_all_jobs` stop
        in-flight work cooperatively.

        With tracing on, the job runs inside a ``job`` span carrying the
        operator tag and pruning attribution of the target lineage, with
        one ``task`` span per attempt beneath it (``records_in``, and
        ``attempt`` / ``speculative`` / ``failures`` / ``last_error`` /
        ``cancelled`` / ``timeout`` as they apply); an aborting job is
        flagged ``aborted``.
        """
        if self._stopped:
            raise RuntimeError(
                f"SparkContext {self.app_name!r} has been stopped; "
                "create a new context to run jobs"
            )
        num_partitions = rdd.num_partitions
        if partitions is not None:
            splits = list(partitions)
            for split in splits:
                if not 0 <= split < num_partitions:
                    raise ValueError(
                        f"partition index {split} out of range for "
                        f"{_rdd_label(rdd)} with {num_partitions} partitions"
                    )
        else:
            splits = list(range(num_partitions))
        self.metrics.jobs_run += 1
        self.metrics.tasks_launched += len(splits)
        nested = getattr(self._in_job, "active", False)
        # Nested jobs always run inline -- under threads to avoid pool
        # re-entry starvation, under processes to avoid shipping a job
        # from within a job (the pool is not re-entrant either way).
        pooled = (
            self._executor_mode in ("threads", "processes")
            and not nested
            and len(splits) > 1
        )
        # Nested jobs chain their token under the enclosing task's, so a
        # cancelled outer job reaches a shuffle map side levels deep.
        job_token = CancelToken(parent=current_token())
        with self._jobs_lock:
            self._active_jobs.add(job_token)
        job_timer: threading.Timer | None = None
        if self.job_timeout is not None and not nested:
            job_timer = threading.Timer(
                self.job_timeout,
                job_token.cancel,
                args=(f"job timeout after {self.job_timeout:g}s", KIND_TIMEOUT),
            )
            job_timer.daemon = True
            job_timer.start()
        try:
            if not pooled:
                loop = _InlineJob(self, rdd, fn, splits, job_token, nested)
            elif self._executor_mode == "threads":
                loop = _ThreadJob(self, rdd, fn, splits, job_token)
            else:
                payload = self._prepare_process_payload(rdd, fn)
                loop = _ProcessJob(self, rdd, fn, splits, job_token, payload)
            if not self.tracer.enabled:
                return loop.run()
            attrs: dict = {
                "rdd": _rdd_label(rdd),
                "op": _lineage_tag(rdd),
                "tasks": len(splits),
            }
            pruned = _lineage_pruning(rdd)
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

    def _prepare_process_payload(self, rdd, fn):
        """Serialize a job's task and pre-materialize its shuffles.

        Raises :class:`~repro.spark.serialization.TaskSerializationError`
        before any task is dispatched if the closure violates the
        shipping contract.  Materializing reachable shuffles here runs
        each map side as a regular (driver-initiated, pooled) job whose
        own payload preparation recurses depth-first into *its*
        upstream shuffles -- workers then only ever fetch ready buckets
        and never trigger driver-side work they would have to wait on.
        """
        from repro.spark.serialization import serialize_task

        payload = serialize_task(self, rdd, fn)
        for shuffle_id in payload.shuffle_ids:
            self._shuffle.ensure(shuffle_id)
        return payload

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.default_parallelism,
                thread_name_prefix=f"{self.app_name}-task",
            )
        return self._pool

    def _ensure_proc_pool(self):
        if self._proc_pool is None:
            if self._stopped:
                raise RuntimeError("process pool is shut down")
            from repro.spark.procpool import ProcessPool

            self._proc_pool = ProcessPool(
                self.default_parallelism,
                {
                    "app_name": self.app_name,
                    "default_parallelism": self.default_parallelism,
                    "max_cache_entries": self._max_cache_entries,
                },
                self._shuffle.serve_blocks,
                name=self.app_name,
            )
        return self._proc_pool

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
        if self._proc_pool is not None:
            self._proc_pool.shutdown()
            self._proc_pool = None
        self._cache.clear()
        self._shuffle.clear()

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"SparkContext({self.app_name!r}, parallelism={self.default_parallelism})"

"""The driver context: entry point, scheduler, caches, metrics."""

from __future__ import annotations

import heapq
import itertools
import queue as queue_mod
import math
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
    cancellable_sleep,
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
        self._outputs: dict[int, list[list[list]]] = {}
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
        if self._context.shuffle_serialization:
            import pickle

            return itertools.chain.from_iterable(
                pickle.loads(map_out[reduce_split])
                for map_out in outputs
                if reduce_split in map_out
            )
        return itertools.chain.from_iterable(
            map_out.get(reduce_split, ()) for map_out in outputs
        )

    def _ensure_map_outputs(self, shuffle_id: int) -> list[list[list]]:
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
    ) -> list[dict[int, list]]:
        # The map side is itself a job over the parent RDD.  From inside
        # a reduce task, run_job must not recurse into the pool
        # (deadlock risk), so the context runs nested jobs inline; from
        # the driver (processes-backend pre-materialization) it runs as
        # a regular pooled job, so the map task must be a context-free
        # picklable closure -- accounting happens here afterwards.
        map_task = _make_map_task(
            partitioner, aggregator, self._context.shuffle_serialization
        )
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

    def serve_blocks(self, shuffle_id: int, reduce_split: int) -> tuple[bool, list]:
        """Return one reduce partition's buckets for a worker fetch.

        Shape: ``(serialized, chunks)`` -- one chunk per map output that
        produced records for this partition, each a pickled blob when
        shuffle serialization is on, a raw row list otherwise.  Unlike
        :meth:`fetch`, no chaos check happens here: ``shuffle.fetch``
        faults fire worker-side so they surface inside the task.
        """
        outputs = self._outputs.get(shuffle_id)
        if outputs is None:
            raise RuntimeError(
                f"shuffle {shuffle_id} has no materialized map outputs; "
                "processes jobs must ensure() their shuffles before dispatch"
            )
        return (
            self._context.shuffle_serialization,
            [out[reduce_split] for out in outputs if reduce_split in out],
        )

    def clear(self) -> None:
        with self._manager_lock:
            self._outputs.clear()
            self._registered.clear()
            self._locks.clear()


def _make_map_task(
    partitioner: Partitioner, aggregator: _Aggregator | None, serialize: bool
):
    """Build the map-side task closure for one shuffle.

    Module-level factory so the closure captures only picklable state
    (partitioner, aggregator, a flag) -- never the context, metrics or
    tracer -- and therefore ships to worker processes unchanged.  It
    returns ``(buckets, records_written)``; the shuffle manager does
    the metrics/tracing accounting driver-side.
    """

    def map_task(it: Iterator[tuple]) -> tuple[dict[int, Any], int]:
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
        if serialize:
            # Spill through pickle: a real shuffle serializes every
            # record to disk/network.  Reference-passing would hide
            # the very cost that separates replication-based join
            # strategies from STARK's single-assignment design.
            import pickle

            return (
                {
                    pid: pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
                    for pid, rows in buckets.items()
                },
                written,
            )
        return buckets, written

    return map_task


class _TaskAttempt:
    """One scheduled attempt of one task in a pooled job."""

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


#: Sentinel pushed into a pooled job's outcome queue to wake the driver
#: loop when its job token is cancelled from another thread.
_WAKE = object()


class _PooledJob:
    """The event-driven driver loop for one thread-pool job.

    The worker threads only *compute*; every scheduling decision --
    retries (with backoff timed on the driver, never ``time.sleep`` on a
    pool thread), per-task deadlines, whole-job deadlines, speculative
    copies of stragglers, first-result-wins resolution and cancellation
    of redundant attempts -- happens here, on the thread that called
    ``run_job``.  The loop blocks on an outcome queue with a timeout
    equal to the next scheduled event, so a job with no deadlines and no
    failures costs no polling at all, while a hung task can never block
    the driver past its deadline: the overdue attempt's token is
    cancelled, a typed :class:`TaskTimeoutError` is recorded, and a
    fresh attempt is launched without waiting for the hung one.
    """

    def __init__(self, ctx: "SparkContext", rdd: RDD, fn, splits: list[int],
                 job_token: CancelToken, job_span) -> None:
        self._ctx = ctx
        self._rdd = rdd
        self._fn = fn
        self._splits = splits
        self._job_token = job_token
        self._job_span = job_span
        self._label = _rdd_label(rdd)
        self._outcomes: queue_mod.Queue = queue_mod.Queue()
        self._results: dict[int, Any] = {}
        self._failures: dict[int, list[TaskError]] = {s: [] for s in splits}
        self._seq: dict[int, int] = {s: 0 for s in splits}
        self._live: dict[int, list[_TaskAttempt]] = {s: [] for s in splits}
        self._retry_heap: list[tuple[float, int, int]] = []  # (ready_at, order, split)
        self._retry_order = itertools.count()
        self._retry_pending: set[int] = set()
        self._speculated: set[int] = set()
        self._durations: list[float] = []

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> list:
        self._job_token.add_callback(lambda: self._outcomes.put(_WAKE))
        for split in self._splits:
            self._launch(split)
        while len(self._results) < len(self._splits):
            if self._job_token.cancelled:
                self._abort_cancelled()
            now = time.perf_counter()
            self._fire_due_retries(now)
            self._enforce_task_deadlines(now)
            self._maybe_speculate(now)
            try:
                outcome = self._outcomes.get(timeout=self._next_wait(now))
            except queue_mod.Empty:
                continue
            while True:
                if outcome is not _WAKE:
                    self._handle(outcome)
                try:
                    outcome = self._outcomes.get_nowait()
                except queue_mod.Empty:
                    break
        return [self._results[s] for s in self._splits]

    # -- launching ---------------------------------------------------------

    def _launch(self, split: int, speculative: bool = False) -> None:
        self._seq[split] += 1
        attempt = _TaskAttempt(
            split, self._seq[split], speculative, CancelToken(parent=self._job_token)
        )
        self._live[split].append(attempt)
        if speculative:
            self._speculated.add(split)
            self._ctx.metrics.tasks_speculated += 1
        try:
            self._submit_attempt(attempt)
        except RuntimeError as exc:  # pool shut down beneath us (stop())
            self._live[split].remove(attempt)
            self._abort(JobAbortedError(
                self._label, split, self._seq[split], exc, self._failures[split]
            ))

    def _submit_attempt(self, attempt: _TaskAttempt) -> None:
        """Hand one attempt to the execution backend (overridable)."""
        self._ctx._ensure_pool().submit(
            self._ctx._attempt_worker,
            self._rdd, self._fn, attempt, self._job_span, self._outcomes,
        )

    def _cancel_attempt(self, attempt: _TaskAttempt, reason: str, kind: str) -> None:
        """Stop one in-flight attempt (overridable).

        The threads backend cancels cooperatively through the attempt's
        token; the processes backend additionally kills the worker.
        """
        attempt.token.cancel(reason, kind)

    def _schedule_retry(self, split: int, failed_attempts: int) -> None:
        self._ctx.metrics.tasks_retried += 1
        delay = self._ctx.retry_backoff * (2 ** (failed_attempts - 1))
        heapq.heappush(
            self._retry_heap,
            (time.perf_counter() + delay, next(self._retry_order), split),
        )
        self._retry_pending.add(split)

    def _fire_due_retries(self, now: float) -> None:
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _ready, _order, split = heapq.heappop(self._retry_heap)
            self._retry_pending.discard(split)
            if split not in self._results:
                self._launch(split)

    # -- outcomes ----------------------------------------------------------

    def _handle(self, outcome) -> None:
        attempt, ok, payload = outcome
        split = attempt.split
        if attempt in self._live[split]:
            self._live[split].remove(attempt)
        if ok:
            if attempt.start is not None:
                self._durations.append(time.perf_counter() - attempt.start)
            if split in self._results:
                return  # a sibling already won; late result discarded
            self._resolve(split, payload, attempt)
            return
        exc = payload
        if isinstance(exc, JobAbortedError):
            # A nested job already burned its own retry budget; terminal.
            self._abort(exc)
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            self._cancel_live("job interrupted", KIND_ABORT)
            raise exc
        if isinstance(exc, TaskCancelledError):
            # The driver initiated this (deadline, lost race, abort) and
            # already did the accounting when it cancelled the token.
            return
        if split in self._results:
            return  # stray failure of a redundant attempt
        self._ctx.metrics.tasks_failed += 1
        failures = self._failures[split]
        failures.append(TaskError(self._label, split, attempt.number, exc))
        if len(failures) >= self._ctx.max_task_failures:
            self._abort(JobAbortedError(self._label, split, len(failures), exc, failures))
        self._schedule_retry(split, len(failures))

    def _resolve(self, split: int, value, attempt: _TaskAttempt) -> None:
        self._results[split] = value
        if attempt.speculative:
            self._ctx.metrics.speculation_wins += 1
        for other in self._live[split]:
            if not other.timed_out:
                self._ctx.metrics.tasks_cancelled += 1
            self._cancel_attempt(
                other, "task superseded by a completed attempt", KIND_LOSER
            )
            if other.span is not None:
                other.span.attrs["cancelled"] = True

    # -- deadlines and speculation ----------------------------------------

    def _enforce_task_deadlines(self, now: float) -> None:
        timeout = self._ctx.task_timeout
        if timeout is None:
            return
        for split, attempts in self._live.items():
            if split in self._results:
                continue
            for attempt in attempts:
                if attempt.timed_out or attempt.start is None:
                    continue
                if now - attempt.start < timeout:
                    continue
                attempt.timed_out = True
                self._cancel_attempt(
                    attempt, f"task timeout after {timeout:g}s", KIND_TIMEOUT
                )
                self._ctx.metrics.tasks_timed_out += 1
                self._ctx.metrics.tasks_failed += 1
                record = TaskTimeoutError(self._label, split, attempt.number, timeout)
                failures = self._failures[split]
                failures.append(record)
                if attempt.span is not None:
                    attempt.span.note_failure(f"TaskTimeoutError: {record}")
                    attempt.span.attrs["timeout"] = True
                if len(failures) >= self._ctx.max_task_failures:
                    self._abort(JobAbortedError(
                        self._label, split, len(failures), record, failures
                    ))
                # Relaunch only if no healthy attempt is still racing
                # (a live speculative copy *is* the retry).
                if split not in self._retry_pending and not any(
                    a is not attempt and not a.timed_out for a in attempts
                ):
                    self._schedule_retry(split, len(failures))

    def _maybe_speculate(self, now: float) -> None:
        ctx = self._ctx
        if not ctx.speculation:
            return
        total = len(self._splits)
        done = len(self._results)
        if total < 2 or not self._durations:
            return
        if done < max(1, math.ceil(ctx.speculation_quantile * total)):
            return
        threshold = ctx.speculation_multiplier * statistics.median(self._durations)
        for split in self._splits:
            if split in self._results or split in self._speculated:
                continue
            if split in self._retry_pending:
                continue
            attempts = self._live[split]
            if any(a.speculative for a in attempts):
                continue
            if any(
                a.start is not None and not a.timed_out and now - a.start > threshold
                for a in attempts
            ):
                self._launch(split, speculative=True)

    def _next_wait(self, now: float) -> float | None:
        """Seconds until the next scheduled event, or None to block."""
        candidates: list[float] = []
        if self._retry_heap:
            candidates.append(self._retry_heap[0][0] - now)
        timeout = self._ctx.task_timeout
        if timeout is not None:
            for attempts in self._live.values():
                for attempt in attempts:
                    if attempt.timed_out:
                        continue
                    if attempt.start is None:
                        # Queued behind a busy pool; poll for its start.
                        candidates.append(0.02)
                    else:
                        candidates.append(attempt.start + timeout - now)
        if self._ctx.speculation and len(self._results) < len(self._splits):
            candidates.append(self._ctx.speculation_interval)
        if not candidates:
            return None
        return max(0.001, min(candidates))

    # -- aborting ----------------------------------------------------------

    def _cancel_live(self, reason: str, kind: str) -> None:
        for attempts in self._live.values():
            for attempt in attempts:
                if not attempt.timed_out:
                    self._ctx.metrics.tasks_cancelled += 1
                self._cancel_attempt(attempt, reason, kind)
                if attempt.span is not None:
                    attempt.span.attrs["cancelled"] = True
        self._retry_heap.clear()
        self._retry_pending.clear()

    def _abort(self, error: JobAbortedError) -> None:
        self._cancel_live("job aborted", KIND_ABORT)
        raise error

    def _abort_cancelled(self) -> None:
        """The job token was cancelled externally (timeout, stop, cancel)."""
        split = next(s for s in self._splits if s not in self._results)
        failures = list(self._failures[split])
        if self._job_token.kind == KIND_TIMEOUT:
            record = TaskTimeoutError(
                self._label, split, max(1, self._seq[split]),
                self._ctx.job_timeout or 0.0, scope="job",
            )
            failures.append(record)
            self._ctx.metrics.tasks_timed_out += 1
            cause: BaseException = record
        else:
            cause = TaskCancelledError(
                self._job_token.reason or "job cancelled", self._job_token.kind
            )
        self._abort(JobAbortedError(
            self._label, split, max(1, len(failures)), cause, failures
        ))


class _ProcessJob(_PooledJob):
    """The processes-backend variant of the pooled driver loop.

    Scheduling policy (retries, backoff, deadlines, abort handling) is
    inherited unchanged from :class:`_PooledJob`; what differs is the
    transport.  Attempts dispatch to a :class:`~repro.spark.procpool.
    ProcessPool` as a serialized payload + split id; workers recompute
    the partition from shipped lineage and send back the value plus the
    *side data* a shared address space used to make free -- a metrics
    delta, recorded accumulator terms, chaos counters and the task's
    trace span -- which :meth:`_absorb` merges into driver state.
    Cancellation is kill-based: :meth:`_cancel_attempt` still cancels
    the driver-side token (so the inherited accounting is identical)
    and then shoots the attempt's worker process; the pool synthesizes
    a ``TaskCancelledError`` outcome that the inherited ``_handle``
    already knows to ignore.
    """

    def __init__(self, ctx: "SparkContext", rdd: RDD, fn, splits: list[int],
                 job_token: CancelToken, job_span, payload) -> None:
        super().__init__(ctx, rdd, fn, splits, job_token, job_span)
        self._payload = payload
        self._pool = ctx._ensure_proc_pool()
        injector = ctx.fault_injector
        self._meta_base = {
            "tracing": ctx.tracer.enabled,
            "chaos": injector.worker_spec() if injector is not None else None,
        }

    def run(self) -> list:
        try:
            return super().run()
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
    :meth:`parallelize` and the size of the task thread pool.  With
    ``executor="sequential"`` tasks run inline in deterministic order,
    which the test-suite uses.
    """

    def __init__(
        self,
        app_name: str = "repro",
        parallelism: int = 4,
        executor: str = "threads",
        shuffle_serialization: bool = True,
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
        speculation_interval: float = 0.02,
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
        if speculation_interval <= 0:
            raise ValueError("speculation_interval must be positive")
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError("max_cache_entries must be >= 1")
        self.app_name = app_name
        self.default_parallelism = parallelism
        self._executor_mode = executor
        #: Serialize shuffled records through pickle (like a real Spark
        #: shuffle).  Keeps the engine's cost model faithful; disable
        #: only for micro-tests where shuffle cost is irrelevant.
        self.shuffle_serialization = shuffle_serialization
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
        #: *n* waits ``retry_backoff * 2**(n-1)`` before re-running.  On
        #: the thread-pool executor the wait is timed by the driver loop
        #: -- a backing-off task never occupies a worker slot.
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
        #: How often (seconds) the driver loop re-evaluates stragglers.
        self.speculation_interval = speculation_interval
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

        The backbone of every action.  Nested jobs (e.g. a shuffle map
        side triggered from inside a reduce task) run inline on the
        calling thread to avoid pool starvation.

        Each task gets :attr:`max_task_failures` attempts, recomputing
        its partition from lineage every time; a task that keeps failing
        aborts the job with :class:`JobAbortedError`.  Every attempt
        runs under a :class:`CancelToken` descended from the job's, so
        deadlines, speculation losses and :meth:`cancel_all_jobs` stop
        in-flight work cooperatively.
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
        self._register_job(job_token)
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
            payload = None
            if pooled and self._executor_mode == "processes":
                # Serialize the task once for the whole job and
                # materialize every shuffle its lineage crosses, so
                # workers never trigger driver-side work they would
                # have to wait on mid-task.
                payload = self._prepare_process_payload(rdd, fn)
            if self.tracer.enabled:
                return self._run_job_traced(
                    rdd, fn, splits, pooled, nested, job_token, payload
                )
            if pooled:
                return self._pooled_job(rdd, fn, splits, job_token, None, payload).run()
            return self._run_job_inline(rdd, fn, splits, nested, job_token, None)
        except JobAbortedError:
            self.metrics.jobs_failed += 1
            raise
        finally:
            if job_timer is not None:
                job_timer.cancel()
            self._unregister_job(job_token)

    def _run_job_traced(
        self,
        rdd: RDD[T],
        fn: Callable[[Iterator[T]], U],
        splits: list[int],
        pooled: bool,
        nested: bool,
        job_token: CancelToken,
        payload=None,
    ) -> list[U]:
        """The tracing twin of :meth:`run_job`'s execution core.

        Opens a ``job`` span carrying the operator tag and pruning
        attribution of the target lineage, plus one ``task`` span per
        attempt with the records it consumed.  Task spans are parented
        to the job span explicitly because tasks may run on pool
        threads; nested jobs a task triggers attach beneath its span
        through the worker thread's stack.  Inline retries mark their
        task span with ``failures``/``attempt``/``last_error`` attrs;
        pooled retries and speculative copies open their own spans
        (``attempt``/``speculative``); cancelled and overdue attempts
        are flagged ``cancelled``/``timeout``, and an aborting job is
        flagged ``aborted``.
        """
        tracer = self.tracer
        attrs: dict = {
            "rdd": _rdd_label(rdd),
            "op": _lineage_tag(rdd),
            "tasks": len(splits),
        }
        pruned = _lineage_pruning(rdd)
        if pruned:
            attrs["partitions_pruned"] = pruned
        with tracer.span("job", kind="job", **attrs) as job_span:
            try:
                if pooled:
                    return self._pooled_job(
                        rdd, fn, splits, job_token, job_span, payload
                    ).run()
                return self._run_job_inline(rdd, fn, splits, nested, job_token, job_span)
            except JobAbortedError as exc:
                job_span.attrs["aborted"] = True
                job_span.attrs["error"] = f"{type(exc.cause).__name__}: {exc.cause}"
                raise
            except TaskCancelledError:
                # A nested job unwinding because its *enclosing* task was
                # cancelled; the outer job does the accounting.
                job_span.attrs["cancelled"] = True
                raise

    def _run_job_inline(
        self,
        rdd: RDD[T],
        fn: Callable[[Iterator[T]], U],
        splits: list[int],
        nested: bool,
        job_token: CancelToken,
        job_span,
    ) -> list[U]:
        """Sequential execution on the calling thread (also nested jobs)."""

        def task(split: int) -> U:
            # Mark this thread as inside a task so any nested job it
            # triggers (e.g. a shuffle map side) runs inline instead of
            # re-entering the pool and starving it.
            previous = getattr(self._in_job, "active", False)
            self._in_job.active = True
            try:
                if job_span is not None:
                    with self.tracer.span(
                        "task", kind="task", parent=job_span, split=split
                    ) as task_span:
                        return self._run_task(rdd, fn, split, nested, job_token, task_span)
                return self._run_task(rdd, fn, split, nested, job_token)
            finally:
                self._in_job.active = previous

        return [task(s) for s in splits]

    def _run_task(
        self,
        rdd: RDD[T],
        fn: Callable[[Iterator[T]], U],
        split: int,
        nested: bool,
        job_token: CancelToken,
        task_span=None,
    ) -> U:
        """Run one task inline with retries; the scheduler's fault boundary.

        Every attempt recomputes the partition from lineage (a cached
        block is only reused if a previous attempt fully materialized
        it, so a mid-computation failure never poisons the cache) under
        its own :class:`CancelToken`; when ``task_timeout`` is set, a
        watchdog timer cancels an overdue attempt, which surfaces here
        as a retryable :class:`TaskTimeoutError`.  Cancellation of the
        *job* (abort, stop, job timeout) is terminal.  A
        :class:`JobAbortedError` from a *nested* job is also terminal --
        the inner job already spent its own retry budget, so re-driving
        it from here would multiply attempts at every nesting level.
        """
        injector = self.fault_injector
        label = _rdd_label(rdd)
        failures: list[TaskError] = []
        attempt = 0
        while True:
            attempt += 1
            token = CancelToken(parent=job_token)
            watchdog: threading.Timer | None = None
            if self.task_timeout is not None:
                watchdog = threading.Timer(
                    self.task_timeout,
                    token.cancel,
                    args=(f"task timeout after {self.task_timeout:g}s", KIND_TIMEOUT),
                )
                watchdog.daemon = True
                watchdog.start()
            try:
                with task_scope(token):
                    token.check()
                    if injector is not None:
                        injector.check("task.compute", key=(rdd.id, split))
                    if task_span is None:
                        return fn(rdd.iterator(split))
                    counted = _CountingIterator(rdd.iterator(split))
                    try:
                        return fn(counted)
                    finally:
                        task_span.attrs["records_in"] = counted.count
                        if attempt > 1:
                            task_span.attrs["attempt"] = attempt
            except JobAbortedError:
                raise
            except TaskCancelledError as exc:
                if nested and job_token.cancelled:
                    # The cancellation came from *above* this job (the
                    # enclosing attempt timed out, lost a speculation
                    # race, or its job aborted).  Unwind raw: the outer
                    # scheduler owns the accounting and may retry the
                    # enclosing task, which will re-run this nested job.
                    if task_span is not None:
                        task_span.attrs["cancelled"] = True
                    raise
                if job_token.cancelled or exc.kind != KIND_TIMEOUT:
                    raise self._terminal_cancellation(
                        exc, label, split, attempt, failures, task_span, job_token
                    ) from exc
                # Per-attempt deadline: typed failure, then retry.
                self.metrics.tasks_timed_out += 1
                self.metrics.tasks_failed += 1
                record = TaskTimeoutError(label, split, attempt, self.task_timeout or 0.0)
                failures.append(record)
                if task_span is not None:
                    task_span.note_failure(f"TaskTimeoutError: {record}")
                    task_span.attrs["timeout"] = True
                if attempt >= self.max_task_failures:
                    raise JobAbortedError(label, split, attempt, record, failures) from exc
                self.metrics.tasks_retried += 1
                self._backoff(attempt, label, split, failures, job_token)
            except Exception as exc:
                self.metrics.tasks_failed += 1
                failures.append(TaskError(label, split, attempt, exc))
                if task_span is not None:
                    task_span.note_failure(f"{type(exc).__name__}: {exc}")
                if attempt >= self.max_task_failures:
                    raise JobAbortedError(label, split, attempt, exc, failures) from exc
                self.metrics.tasks_retried += 1
                self._backoff(attempt, label, split, failures, job_token)
            finally:
                if watchdog is not None:
                    watchdog.cancel()

    def _terminal_cancellation(
        self, exc, label, split, attempt, failures, task_span, job_token
    ) -> JobAbortedError:
        """Build the abort for a job-level cancellation of an inline task."""
        if job_token.cancelled and job_token.kind == KIND_TIMEOUT:
            record = TaskTimeoutError(
                label, split, attempt, self.job_timeout or 0.0, scope="job"
            )
            failures.append(record)
            self.metrics.tasks_timed_out += 1
            if task_span is not None:
                task_span.attrs["timeout"] = True
            return JobAbortedError(label, split, attempt, record, failures)
        self.metrics.tasks_cancelled += 1
        if task_span is not None:
            task_span.attrs["cancelled"] = True
        return JobAbortedError(label, split, attempt, exc, failures)

    def _backoff(self, attempt, label, split, failures, job_token) -> None:
        """Exponential retry backoff; wakes early if the job is cancelled."""
        if self.retry_backoff <= 0:
            return
        try:
            cancellable_sleep(self.retry_backoff * (2 ** (attempt - 1)), token=job_token)
        except TaskCancelledError as exc:
            raise JobAbortedError(label, split, attempt, exc, failures) from exc

    def _attempt_worker(self, rdd, fn, attempt: _TaskAttempt, job_span, outcomes) -> None:
        """The pool-thread half of a pooled task attempt.

        Pure computation: runs the partition function under the
        attempt's cancel scope and reports (attempt, ok, payload) to the
        driver loop.  Never raises -- even ``KeyboardInterrupt`` is
        shipped back so the driver can cancel siblings and re-raise on
        the calling thread.
        """
        previous = getattr(self._in_job, "active", False)
        self._in_job.active = True
        attempt.start = time.perf_counter()
        try:
            try:
                with task_scope(attempt.token):
                    attempt.token.check()
                    if self.tracer.enabled and job_span is not None:
                        attrs: dict = {"split": attempt.split}
                        if attempt.number > 1:
                            attrs["attempt"] = attempt.number
                        if attempt.speculative:
                            attrs["speculative"] = True
                        with self.tracer.span(
                            "task", kind="task", parent=job_span, **attrs
                        ) as span:
                            attempt.span = span
                            try:
                                value = self._compute_partition(rdd, fn, attempt.split, span)
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
                    else:
                        value = self._compute_partition(rdd, fn, attempt.split, None)
            except BaseException as exc:
                outcomes.put((attempt, False, exc))
            else:
                outcomes.put((attempt, True, value))
        finally:
            self._in_job.active = previous

    def _compute_partition(self, rdd, fn, split: int, span):
        injector = self.fault_injector
        if injector is not None:
            injector.check("task.compute", key=(rdd.id, split))
        if span is None:
            return fn(rdd.iterator(split))
        counted = _CountingIterator(rdd.iterator(split))
        try:
            return fn(counted)
        finally:
            span.attrs["records_in"] = counted.count

    def _pooled_job(self, rdd, fn, splits, job_token, job_span, payload) -> _PooledJob:
        """The driver loop for this context's parallel backend."""
        if payload is not None:
            return _ProcessJob(self, rdd, fn, splits, job_token, job_span, payload)
        return _PooledJob(self, rdd, fn, splits, job_token, job_span)

    def _prepare_process_payload(self, rdd, fn):
        """Serialize a job's task and pre-materialize its shuffles.

        Raises :class:`~repro.spark.serialization.TaskSerializationError`
        before any task is dispatched if the closure violates the
        shipping contract.  Materializing reachable shuffles here runs
        each map side as a regular (driver-initiated, pooled) job whose
        own payload preparation recurses depth-first into *its*
        upstream shuffles -- workers then only ever fetch ready buckets.
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
                    "shuffle_serialization": self.shuffle_serialization,
                    "max_cache_entries": self._max_cache_entries,
                },
                self._shuffle.serve_blocks,
                name=self.app_name,
            )
        return self._proc_pool

    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    # -- lifecycle -----------------------------------------------------------

    def _register_job(self, token: CancelToken) -> None:
        with self._jobs_lock:
            self._active_jobs.add(token)

    def _unregister_job(self, token: CancelToken) -> None:
        with self._jobs_lock:
            self._active_jobs.discard(token)

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

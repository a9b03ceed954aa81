"""The worker-process side of the ``processes`` executor.

:func:`worker_main` is the entry point a :class:`~repro.spark.procpool.
ProcessPool` spawns; it owns one end of a duplex pipe and loops over
driver messages:

``("payload", id, bytes)``
    A job's serialized ``(rdd, fn)``, cached by id (shipped at most
    once per (job, worker); dropped on job completion).
``("broadcast", id, bytes)``
    A broadcast value, cached *for the life of the process* and
    deserialized lazily on first use -- once per worker, not per task.
``("task", task_id, payload_id, split, meta)``
    Run one task attempt: deserialize the payload against this worker's
    :class:`WorkerContext`, compute the partition, ship back
    ``("done", task_id, ok, out)`` where ``out`` carries the value (or
    the exception + traceback), the metrics delta, recorded accumulator
    terms, chaos counters and the task's trace span.
``("blocks", ...)`` / ``("blocks_error", ...)``
    Responses to this worker's shuffle-fetch requests (see
    :class:`_WorkerShuffle`).
``("drop", payload_id)`` / ``("stop",)``
    Cache management / orderly exit.

The payload is deserialized *fresh for every task attempt* (the bytes
are cached, the objects are not): accumulator shims, the tracer and the
fault injector are per-attempt state, and a cached object graph would
leak one attempt's state into the next.  Broadcast values, by contrast,
are immutable and deserialize once.

There is no cooperative cancellation here -- no cancel tokens cross the
process boundary.  The driver enforces deadlines and aborts by killing
the whole process (see :mod:`repro.spark.cancellation`), so a task that
hangs in this loop simply dies with its worker.
"""

from __future__ import annotations

import itertools
import pickle
import time
import traceback
from typing import Any, Callable, Iterable, Iterator

from repro.chaos.injector import WorkerFaultInjector
from repro.obs.tracer import NULL_TRACER, Tracer, shift_spans
from repro.spark.broadcast import Broadcast
from repro.spark.cache import _CacheManager
from repro.spark.context import Metrics
from repro.spark.scheduler import _apply
from repro.spark.serialization import TaskSerializationError, deserialize
from repro.spark.shuffle import fetch_rows


class _WorkerAccumulator:
    """The write-only shim tasks see instead of a driver accumulator.

    Records raw terms; the driver replays them through the real
    accumulator's ``add`` iff it accepts the attempt's result.
    """

    __slots__ = ("id", "_terms")

    def __init__(self, accumulator_id: int, terms: list) -> None:
        self.id = accumulator_id
        self._terms = terms

    def add(self, term) -> None:
        self._terms.append(term)

    def __iadd__(self, term) -> "_WorkerAccumulator":
        self._terms.append(term)
        return self

    @property
    def value(self):
        raise RuntimeError(
            "accumulator values are only readable on the driver; "
            "tasks are write-only (call add())"
        )


class _WorkerShuffle:
    """Reduce-side fetch client: asks the driver for shuffle buckets.

    The driver materializes every reachable shuffle's map outputs
    *before* dispatching a processes job, so a fetch is a pure read --
    ``("fetch", ...)`` out, ``("blocks", ...)`` back; the chaos check
    and decoding are :func:`~repro.spark.shuffle.fetch_rows`'s.
    Out-of-band messages arriving while we wait (a ``drop`` for a
    finished job) are handed back to the context's message handler, not
    lost.
    """

    def __init__(self, ctx: "WorkerContext") -> None:
        self._ctx = ctx

    def fetch(self, shuffle_id: int, reduce_split: int) -> Iterator[tuple]:
        return fetch_rows(
            self._ctx.fault_injector, shuffle_id, reduce_split, self._request
        )

    def _request(self, shuffle_id: int, reduce_split: int) -> list:
        ctx = self._ctx
        ctx._conn.send(("fetch", ctx._current_task, shuffle_id, reduce_split))
        while True:
            msg = ctx._conn.recv()
            kind = msg[0]
            if kind == "blocks" and msg[1] == shuffle_id and msg[2] == reduce_split:
                return msg[3]
            if kind == "blocks_error" and msg[1] == shuffle_id and msg[2] == reduce_split:
                raise RuntimeError(
                    f"shuffle {shuffle_id} fetch of partition {reduce_split} "
                    f"failed on the driver: {msg[3]}"
                )
            if ctx._oob is not None:
                ctx._oob(msg)


class WorkerContext:
    """What ``("context",)`` persistent ids resolve to inside a worker.

    Duck-types the slice of :class:`~repro.spark.context.SparkContext`
    that lineage recomputation touches: the block cache (persistent
    across tasks, so a persisted RDD's partitions are computed once per
    worker), metrics, tracer, fault injector, the shuffle *client*, and
    an inline ``run_job`` for the rare nested job triggered from inside
    a task.  ``is_task_context`` is the marker ``RDD.__init__`` accepts
    in place of a real driver context.
    """

    is_task_context = True

    def __init__(self, conn, config: dict) -> None:
        self._conn = conn
        self.app_name = config.get("app_name", "repro")
        self.default_parallelism = config.get("default_parallelism", 4)
        self.metrics = Metrics()
        self._cache = _CacheManager(config.get("max_cache_entries"), self.metrics)
        self._shuffle = _WorkerShuffle(self)
        self.tracer: Any = NULL_TRACER
        self.fault_injector: WorkerFaultInjector | None = None
        self._broadcast_blobs: dict[int, bytes] = {}
        self._broadcast_objects: dict[int, Broadcast] = {}
        self._acc_terms: dict[int, list] = {}
        self._current_task: int | None = None
        # Worker-constructed RDDs must not collide with driver ids (the
        # block cache is keyed by rdd id and survives across tasks).
        self._rdd_ids = itertools.count(1_000_000_000)
        self._oob: Callable[[tuple], None] | None = None

    # -- the SparkContext surface lineage code touches ----------------------

    def _next_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def run_job(self, rdd, fn, partitions: Iterable[int] | None = None) -> list:
        """Run a nested job inline inside this worker's current task."""
        # Nested jobs inside a worker task run bare inline: retries,
        # deadlines and chaos belong to the enclosing attempt, which the
        # driver already schedules and (if need be) kills as a whole.
        splits = (
            list(partitions) if partitions is not None else range(rdd.num_partitions)
        )
        return [fn(rdd.iterator(split)) for split in splits]

    # -- persistent-id resolution -------------------------------------------

    def resolve(self, pid: tuple):
        """Map a pickled persistent-id tag to this worker's live object."""
        tag = pid[0]
        if tag == "context":
            return self
        if tag == "broadcast":
            return self.get_broadcast(pid[1])
        if tag == "accumulator":
            terms = self._acc_terms.setdefault(pid[1], [])
            return _WorkerAccumulator(pid[1], terms)
        if tag == "tracer":
            return self.tracer
        if tag == "injector":
            return self.fault_injector
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")

    def store_broadcast(self, broadcast_id: int, blob: bytes) -> None:
        """Cache a broadcast payload's pickled bytes for later use."""
        self._broadcast_blobs[broadcast_id] = blob

    def get_broadcast(self, broadcast_id: int) -> Broadcast:
        """The broadcast variable, unpickled once and cached thereafter."""
        cached = self._broadcast_objects.get(broadcast_id)
        if cached is not None:
            return cached
        blob = self._broadcast_blobs.get(broadcast_id)
        if blob is None:
            raise RuntimeError(
                f"broadcast {broadcast_id} was never shipped to this worker"
            )
        value = deserialize(blob, self.resolve)
        broadcast = Broadcast(value)
        broadcast.id = broadcast_id
        self._broadcast_objects[broadcast_id] = broadcast
        return broadcast

    # -- per-task lifecycle --------------------------------------------------

    def begin_task(self, task_id: int, meta: dict) -> None:
        """Reset per-task state (metrics, tracer, accumulator terms)."""
        self._current_task = task_id
        self.metrics.reset()
        self._acc_terms = {}
        self.tracer = Tracer() if meta.get("tracing") else NULL_TRACER
        chaos = meta.get("chaos")
        self.fault_injector = (
            WorkerFaultInjector(chaos, meta.get("attempt", 1))
            if chaos is not None
            else None
        )


def _run_task(ctx: WorkerContext, payloads: dict[int, bytes], conn, msg) -> None:
    _kind, task_id, payload_id, split, meta = msg
    conn.send(("started", task_id))
    ctx.begin_task(task_id, meta)
    out: dict[str, Any] = {}
    ok = False
    span = None
    try:
        blob = payloads.get(payload_id)
        if blob is None:
            raise RuntimeError(f"task payload {payload_id} missing on worker")
        rdd, fn = deserialize(blob, ctx.resolve)
        if ctx.fault_injector is not None:
            ctx.fault_injector.check("task.compute", key=(rdd.id, split))
        if ctx.tracer.enabled:
            with ctx.tracer.span("task", kind="task", split=split) as span:
                out["value"] = _apply(fn, rdd, split, span)
        else:
            out["value"] = _apply(fn, rdd, split, None)
        ok = True
    except BaseException as exc:
        if span is not None:
            span.note_failure(f"{type(exc).__name__}: {exc}")
        out["error"] = exc
        out["traceback"] = traceback.format_exc()
    delta = {name: value for name, value in ctx.metrics.snapshot().items() if value}
    if delta:
        out["metrics"] = delta
    if ctx._acc_terms:
        out["accumulators"] = {
            aid: terms for aid, terms in ctx._acc_terms.items() if terms
        }
    if ctx.fault_injector is not None:
        out["chaos"] = ctx.fault_injector.stats()
    if span is not None:
        # Worker clocks have their own perf_counter epoch: rebase the
        # span subtree to task-relative time; the driver shifts it onto
        # its own clock when re-parenting under the job span.
        span.attrs.update(ctx.tracer.root.attrs)
        out["span"] = shift_spans(span, -span.start)
    try:
        conn.send(("done", task_id, ok, out))
    except Exception as exc:  # result (or error) not picklable
        fallback = {
            "error": TaskSerializationError(
                f"task result for split {split} could not be shipped back: "
                f"{type(exc).__name__}: {exc}"
            ),
            "traceback": out.get("traceback", ""),
        }
        if "chaos" in out:
            fallback["chaos"] = out["chaos"]
        if "metrics" in out:
            fallback["metrics"] = out["metrics"]
        conn.send(("done", task_id, False, fallback))


def worker_main(worker_id: int, conn, config: dict) -> None:
    """Process entry point: serve tasks until told to stop (or killed)."""
    ctx = WorkerContext(conn, config)
    payloads: dict[int, bytes] = {}

    def handle_oob(msg: tuple) -> None:
        if msg[0] == "drop":
            payloads.pop(msg[1], None)
        elif msg[0] == "broadcast":
            ctx.store_broadcast(msg[1], msg[2])
        elif msg[0] == "payload":
            payloads[msg[1]] = msg[2]

    ctx._oob = handle_oob
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # the driver went away; die quietly
            kind = msg[0]
            if kind == "task":
                _run_task(ctx, payloads, conn, msg)
            elif kind == "stop":
                return
            else:
                handle_oob(msg)
    except KeyboardInterrupt:
        return

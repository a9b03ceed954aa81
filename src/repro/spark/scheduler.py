"""The scheduler: one driver loop per job (:class:`_JobLoop`) and the
two transports its attempts travel by -- :class:`_InlineJob` and
:class:`_ThreadJob`; ``run_job`` picks one."""

from __future__ import annotations

import functools
import heapq
import math
import queue as queue_mod
import threading
import time
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.spark.cancellation import (
    KIND_ABORT,
    KIND_LOSER,
    KIND_TIMEOUT,
    CancelToken,
    TaskCancelledError,
    task_scope,
)
from repro.spark.errors import JobAbortedError, TaskError, TaskTimeoutError
from repro.spark.rdd import RDD

if TYPE_CHECKING:
    from repro.spark.context import SparkContext


def _rdd_label(rdd: RDD) -> str:
    """The rdd's scheduler-facing name, e.g. ``MapPartitionsRDD[12]``."""
    return f"{type(rdd).__name__}[{rdd.id}]"


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


class _TaskAttempt:
    """One scheduled attempt of one task."""

    __slots__ = ("split", "number", "token", "start", "span", "timed_out")

    def __init__(self, split: int, number: int, token: CancelToken) -> None:
        self.split = split
        self.number = number
        self.token = token
        #: Set when the attempt actually starts running (queue time
        #: does not count against the task deadline).
        self.start: float | None = None
        self.span = None
        self.timed_out = False


#: Sentinel pushed into a pool job's outcome queue to wake the driver
#: loop when its job token is cancelled from another thread.
_WAKE = object()

#: The read-only empty every job's per-split mappings start as.
_NONE: Mapping = MappingProxyType({})


class _JobLoop:
    """The event-driven driver loop of one job: the scheduler's only policy.

    Every scheduling decision -- launch order, retries and their
    backoff, per-task and whole-job deadlines, first-result-wins
    resolution, abort and cancellation -- is made here, on the thread
    that called ``run_job``.  A *transport* subclass contributes only
    how an attempt is started, stopped and waited for, and how many
    splits may be in progress at once.

    The loop sleeps until the next scheduled event, so a job with no
    deadlines and no failures costs no polling at all, while a hung
    task can never block the driver past its deadline: the overdue
    attempt's token is cancelled, a typed :class:`TaskTimeoutError` is
    recorded, and a fresh attempt is launched without waiting for it.
    """

    #: Splits that may be in progress (launched, unresolved) at once.
    _window: float = math.inf

    # Per-split state: shared read-only empties until a job first needs
    # its own (:meth:`_own`), so a clean inline job allocates none of it.
    _live: Mapping[int, list[_TaskAttempt]] = _NONE  # attempts left in flight
    _seq: Mapping[int, int] = _NONE  # latest attempt number of relaunched splits
    _failures: Mapping[int, list[TaskError]] = _NONE
    _retry_heap: Sequence[tuple[float, int]] = ()  # (ready_at, split)

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

    def _own(self, name: str, factory: Callable[[], Any]) -> Any:
        """This job's own per-split state *name*, made by *factory* on first use."""
        state = self.__dict__.get(name)
        if state is None:
            state = self.__dict__[name] = factory()
        return state

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
        total, launched = len(todo), 0
        while True:
            heap = self._retry_heap
            while heap and heap[0][0] <= time.perf_counter():
                split = heapq.heappop(heap)[1]
                if split not in results:
                    self._launch(split, relaunch=True)
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
            self._enforce_task_deadlines(now)
            for outcome in self._wait(self._next_wait(now)):
                self._handle(outcome)

    # -- launching ---------------------------------------------------------

    def _launch(self, split: int, relaunch: bool = False) -> None:
        """Start an attempt of *split*: its first or a *relaunch*."""
        number = 1
        if relaunch:
            seq = self._own("_seq", dict)
            number = seq[split] = seq.get(split, 1) + 1
        attempt = _TaskAttempt(split, number, CancelToken(parent=self._job_token))
        try:
            outcome = self._submit_attempt(attempt)
        except RuntimeError as exc:  # pool shut down beneath us (stop())
            self._abort(JobAbortedError(
                self._label, split, number, exc, self._failures.get(split, ())
            ))
        if outcome is None:
            self._track(attempt)
        else:
            self._handle(outcome)

    def _track(self, attempt: _TaskAttempt) -> None:
        """Record *attempt* as in flight under its split."""
        self._own("_live", dict).setdefault(attempt.split, []).append(attempt)

    # -- the task body ------------------------------------------------------

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
        """Recompute one partition from lineage and apply the job's *fn*
        to it; with a task *span*, record the records it consumed as
        ``records_in``.

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
        split = attempt.split
        live = self._live.get(split, ())
        if isinstance(payload, TaskCancelledError) and self._job_token.cancelled:
            # The job itself was cancelled.  run() aborts next and counts this
            # attempt, even one the inline transport handed straight back, as cancelled.
            if attempt not in live:
                self._track(attempt)
            return
        if attempt in live:
            live.remove(attempt)
        if ok:
            if split in self._results:
                return  # a sibling already won; late result discarded
            self._results[split] = payload
            # A reaped attempt that never polled its token can return
            # before its relaunch: the first result wins either way.
            if live:
                self._cancel("task superseded by a completed attempt", KIND_LOSER, live)
            return
        exc = payload
        if isinstance(exc, JobAbortedError):
            # A nested job already burned its own retry budget; terminal.
            self._abort(exc)
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            self._cancel("job interrupted", KIND_ABORT)
            raise exc
        if attempt.timed_out:
            return  # reaped: its deadline is booked and its relaunch is the retry
        if isinstance(exc, TaskCancelledError) and attempt.token.cancelled:
            # Whoever cancelled the token owns the accounting, and the
            # loop did it when it resolved a race.  That leaves the
            # inline transport's watchdog, which can only cancel: its
            # deadline is booked here.
            if exc.kind == KIND_TIMEOUT:
                self._task_timed_out(attempt)
            return
        if split in self._results:
            return  # stray failure of a redundant attempt
        self._record_failure(
            split, TaskError(self._label, split, attempt.number, exc), exc
        )

    def _record_failure(self, split: int, record: TaskError, cause: BaseException) -> None:
        """Charge one failed attempt to *split*'s retry budget: abort once
        it is spent, else relaunch after the exponential backoff (timed
        by the loop, so a backing-off task occupies no worker)."""
        self._ctx.metrics.tasks_failed += 1
        failures = self._own("_failures", dict).setdefault(split, [])
        failures.append(record)
        if len(failures) >= self._ctx.max_task_failures:
            self._abort(JobAbortedError(self._label, split, len(failures), cause, failures))
        self._ctx.metrics.tasks_retried += 1
        delay = self._ctx.retry_backoff * (2 ** (len(failures) - 1))
        heapq.heappush(self._own("_retry_heap", list), (time.perf_counter() + delay, split))

    # -- deadlines -----------------------------------------------------------

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
        self._record_failure(split, record, record)

    def _next_wait(self, now: float) -> float | None:
        """Seconds until the next scheduled event, or None to block.

        Whatever is due already was acted on by the caller with the same
        *now*, so a zero wait cannot repeat and needs no floor.
        """
        candidates: list[float] = []
        if self._retry_heap:
            candidates.append(self._retry_heap[0][0] - now)
        timeout = self._ctx.task_timeout
        if timeout is not None:
            for attempt in self._running():
                # Queued behind a busy pool: poll for its start.
                candidates.append(
                    0.02 if attempt.start is None else attempt.start + timeout - now
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
                self._label, split, self._seq.get(split, 1),
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
            timeout, attempt.token.cancel, (f"task timeout after {timeout:g}s", KIND_TIMEOUT)
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
        # Bound to the queue, not the job: a closure over self would make
        # job -> token -> callback -> job a cycle, keeping every job's
        # lineage and blocks alive until a full collection.
        job_token.add_callback(functools.partial(self._outcomes.put, _WAKE))

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

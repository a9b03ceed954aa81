"""Cooperative cancellation for the scheduler and the operators.

The gray-failure counterpart of the retry layer: retries recover tasks
that *fail fast*, but a task that hangs or straggles never raises, so
something outside the task must be able to stop it.  The primitive is
the :class:`CancelToken` -- a thread-safe, parentable flag the
scheduler threads into every task attempt:

- the scheduler creates one token per job and one child token per task
  attempt; cancelling the job token cancels every attempt under it
  (and, through attempt tokens, any nested job an attempt triggers);
- while an attempt runs, its token is installed in a thread-local task
  context (:func:`task_scope`); long loops anywhere in the engine poll
  it through a :class:`Heartbeat` (or :func:`current_token` directly)
  and raise :class:`TaskCancelledError` promptly when cancelled;
- blocking waits (retry backoff, chaos delays/hangs) go through
  :func:`cancellable_sleep`, which wakes the moment the token is
  cancelled instead of sleeping through it.

Cancellation is *cooperative*: a task stuck in code that neither polls
nor waits on its token cannot be preempted (Python threads cannot be
killed).  Under ``threads`` the scheduler still stops waiting for it
-- the deadline in :mod:`repro.spark.scheduler` records the timeout and
relaunches the task.  If the orphaned attempt returns before its
relaunch, its result wins and the relaunch is cancelled; otherwise its
late result is discarded.  Under ``sequential`` the
attempt runs on the driver thread itself: a watchdog timer cancels its
token, and a task that never polls holds the driver until it returns.

Tokens carry a *kind* so handlers can tell retryable deadline kills
(:data:`KIND_TIMEOUT`) from terminal aborts (:data:`KIND_ABORT`) and
benign kills of an attempt whose task another attempt already finished
(:data:`KIND_LOSER`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: Another attempt of the task already returned its result.
KIND_LOSER = "loser"
#: The task or job exceeded its deadline; the attempt may be retried.
KIND_TIMEOUT = "timeout"
#: The job was aborted (sibling exhausted retries, driver cancelled it,
#: context stopped).
KIND_ABORT = "abort"


class TaskCancelledError(RuntimeError):
    """Raised inside a task when its cancel token fires.

    Attributes
    ----------
    reason : str
        Human-readable explanation (``"task timeout after 0.5s"``, ...).
    kind : str
        One of :data:`KIND_TIMEOUT` / :data:`KIND_ABORT` /
        :data:`KIND_LOSER`; the scheduler uses it to decide whether the
        cancellation is retryable.
    """

    def __init__(self, reason: str = "cancelled", kind: str = KIND_ABORT) -> None:
        self.reason = reason
        self.kind = kind
        super().__init__(reason)


class CancelToken:
    """A thread-safe cancellation flag with downward propagation.

    Tokens form a tree mirroring the job tree: cancelling a token
    cancels every registered child (job -> attempts -> nested jobs), so
    one ``cancel_all_jobs()`` reaches a shuffle map side three levels
    deep.  A child created under an already-cancelled parent starts
    cancelled.  ``add_callback`` lets the scheduler's driver loop wake
    from a blocking wait when a token it watches is cancelled.

    The state is a plain flag set under the token's lock; the first
    :meth:`wait` builds a ``threading.Event`` to block on.  A one-task
    job makes two tokens, and neither waits unless a retry backs off.
    """

    __slots__ = ("_cancelled", "_event", "_lock", "_children", "_callbacks", "reason", "kind")

    def __init__(self, parent: "CancelToken | None" = None) -> None:
        self._cancelled = False
        self._event: threading.Event | None = None
        self._lock = threading.Lock()
        self._children: list[CancelToken] = []
        self._callbacks: list[Callable[[], None]] = []
        self.reason: str = ""
        self.kind: str = KIND_ABORT
        if parent is not None:
            parent._adopt(self)

    def _adopt(self, child: "CancelToken") -> None:
        with self._lock:
            if not self._cancelled:
                self._children.append(child)
                return
            reason, kind = self.reason, self.kind
        child.cancel(reason, kind)

    def cancel(self, reason: str = "cancelled", kind: str = KIND_ABORT) -> None:
        """Cancel this token and every child; idempotent (first call wins)."""
        with self._lock:
            if self._cancelled:
                return
            self.reason = reason
            self.kind = kind
            self._cancelled = True
            if self._event is not None:
                self._event.set()
            children, self._children = self._children, []
            callbacks, self._callbacks = self._callbacks, []
        for child in children:
            child.cancel(reason, kind)
        for callback in callbacks:
            callback()

    def add_callback(self, callback: Callable[[], None]) -> None:
        """Run *callback* on cancellation (immediately if already cancelled)."""
        with self._lock:
            if not self._cancelled:
                self._callbacks.append(callback)
                return
        callback()

    @property
    def cancelled(self) -> bool:
        """True once the token (or an ancestor) has been cancelled."""
        return self._cancelled

    def check(self) -> None:
        """Raise :class:`TaskCancelledError` if cancelled; else no-op."""
        if self._cancelled:
            raise TaskCancelledError(self.reason or "cancelled", self.kind)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled or *timeout* elapses; True if cancelled."""
        with self._lock:
            if self._cancelled:
                return True
            if self._event is None:
                # Made under the lock: a cancel() either finds it and sets
                # it, or came first and left the flag read above.
                self._event = threading.Event()
            event = self._event
        return event.wait(timeout)

    def __repr__(self) -> str:
        state = f"cancelled kind={self.kind}" if self.cancelled else "live"
        return f"CancelToken({state})"


# -- the thread-local task context ------------------------------------------

_current = threading.local()


def current_token() -> CancelToken | None:
    """The cancel token of the task running on this thread, if any."""
    return getattr(_current, "token", None)


class task_scope:
    """Install *token* as this thread's task context for the block.

    The scheduler wraps every task attempt in one of these; everything
    the attempt calls -- operators, the shuffle map side, chaos hooks --
    reaches the same token through :func:`current_token` without any
    parameter threading.  A plain class, not a generator-based context
    manager: it is entered once per task attempt, and one-task jobs are
    most of what a pruned query runs.
    """

    __slots__ = ("_token", "_previous")

    def __init__(self, token: CancelToken) -> None:
        self._token = token

    def __enter__(self) -> CancelToken:
        self._previous = getattr(_current, "token", None)
        _current.token = self._token
        return self._token

    def __exit__(self, *exc_info) -> None:
        _current.token = self._previous


class Heartbeat:
    """A cheap periodic cancellation poll for long loops.

    ``beat()`` costs an increment and a branch; every ``every``-th call
    (power of two) it checks the current task's token and raises
    :class:`TaskCancelledError` if the task was cancelled.  Loops that
    may run for seconds -- nested-loop joins, DBSCAN expansion, index
    bulk-loads, shuffle bucketing -- call it once per iteration so
    cancellation latency is bounded by a few hundred iterations, not by
    the loop's total runtime.  Outside any task (no token installed)
    every beat is a no-op.
    """

    __slots__ = ("_token", "_mask", "_count")

    def __init__(self, every: int = 256) -> None:
        if every < 1 or every & (every - 1):
            raise ValueError(f"every must be a positive power of two, got {every}")
        self._token = current_token()
        self._mask = every - 1
        self._count = 0

    def beat(self) -> None:
        """Tick once; every 2**k ticks, poll the token and maybe raise."""
        self._count += 1
        if self._token is not None and not (self._count & self._mask):
            self._token.check()


def cancellable_sleep(seconds: float, token: CancelToken | None = None) -> None:
    """Sleep, but wake and raise the moment the task is cancelled.

    The replacement for ``time.sleep`` anywhere inside the execution
    stack (retry backoff, chaos delay faults): a plain sleep would make
    a cancelled task linger for the full duration.
    """
    if token is None:
        token = current_token()
    if token is None:
        time.sleep(seconds)
        return
    if token.wait(seconds):
        token.check()

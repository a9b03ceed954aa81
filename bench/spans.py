"""Span recording from outside the program, and the self-time arithmetic.

The traced run of a workload wraps a fixed table of the program's
callables (:mod:`layers`) with :meth:`SpanRecorder.wrap_call` /
:meth:`SpanRecorder.wrap_generator`; nothing under ``src/`` knows it is
being measured.  Every call of a wrapped callable records one span --
``(id, parent, name, thread, op, start, end, note)`` -- into a
per-thread list, and the lists are merged when the run ends.

**Parent rule.**  A span's parent is the innermost span still open on
the same thread.  A thread with nothing open (a pool thread running a
task) takes the innermost open span of the thread that owns the running
job -- the thread that entered the outermost ``run_job`` still in
flight -- which is the driver of that job; with no job in flight the
span is a root.

**Self time.**  A span's self time is its duration minus the *union* of
the intervals its children cover (children on pool threads overlap each
other, so their durations must not be summed), clipped to the span's
own interval.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, NamedTuple

_clock = time.perf_counter


class Span(NamedTuple):
    """One recorded call (times are ``perf_counter`` seconds)."""

    id: int
    parent: int  # 0 for a root span
    name: str
    thread: int
    op: int
    start: float
    end: float
    note: Any  # what the table's ``note`` function made of the call, or None


class SpanRecorder:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._lock = threading.Lock()
        self._buffers: list[list[tuple]] = []
        #: The open-span stack of the thread owning the running job.
        self._job_stack: list[int] | None = None
        #: Operation id stamped on every span (set by the harness).
        self.op = 0
        #: ``(owner, attribute, original)`` for :meth:`restore`.
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self) -> tuple[list[int], list[tuple], int]:
        local = self._local
        try:
            return local.state
        except AttributeError:
            buffer: list[tuple] = []
            with self._lock:
                self._buffers.append(buffer)
                index = len(self._buffers)
            local.state = ([], buffer, index)
            return local.state

    def _open(self, stack: list[int]) -> tuple[int, int]:
        """Allocate a span id and push it; returns ``(id, parent)``."""
        if stack:
            parent = stack[-1]
        else:
            job_stack = self._job_stack
            parent = job_stack[-1] if job_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def wrap_call(
        self,
        func: Callable,
        name: str | Callable[[tuple], str],
        note: Callable[[tuple, Any], Any] | None = None,
        owns_job: bool = False,
    ) -> Callable:
        """A timing wrapper around a plain callable.

        *name* may be a function of the call's positional arguments (job
        spans carry their lineage tag that way); *note* turns
        ``(args, result)`` into the span's note (a candidate count, a
        hit flag).  *owns_job* marks ``run_job``: while the outermost
        such call is open, its thread's stack is the fallback parent
        for threads with nothing open.
        """
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack, buffer, thread = recorder._thread_state()
            sid, parent = recorder._open(stack)
            owner = owns_job and recorder._job_stack is None
            if owner:
                recorder._job_stack = stack
            result = None
            start = _clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = _clock()
                if owner:
                    recorder._job_stack = None
                stack.pop()
                buffer.append(
                    (
                        sid,
                        parent,
                        name if isinstance(name, str) else name(args),
                        thread,
                        recorder.op,
                        start,
                        end,
                        note(args, result) if note is not None else None,
                    )
                )

        traced.__wrapped_by_bench__ = True
        return traced

    def wrap_generator(self, func: Callable, name: str) -> Callable:
        """A wrapper for a callable returning a lazy iterator.

        The span opens at the first ``next()`` and closes when the
        iterator is exhausted or dropped, so it covers the work the
        iterator does on behalf of its consumer (and whatever wrapped
        calls happen in between nest beneath it).
        """
        recorder = self

        def drain(iterator):
            stack, buffer, thread = recorder._thread_state()
            sid, parent = recorder._open(stack)
            start = _clock()
            try:
                yield from iterator
            finally:
                end = _clock()
                # An abandoned iterator is finalized out of LIFO order.
                if stack and stack[-1] == sid:
                    stack.pop()
                elif sid in stack:
                    stack.remove(sid)
                buffer.append(
                    (sid, parent, name, thread, recorder.op, start, end, None)
                )

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return drain(func(*args, **kwargs))

        traced.__wrapped_by_bench__ = True
        return traced

    def span(self, name: str) -> "_ManualSpan":
        """A ``with`` block recorded as a span (the harness's own spans)."""
        return _ManualSpan(self, name)

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` with ``make(original)``, remembering
        the original; static methods stay static."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patched.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)

    # -- results -----------------------------------------------------------

    def spans(self) -> list[Span]:
        """Every recorded span, in start order."""
        with self._lock:
            rows = [row for buffer in self._buffers for row in buffer]
        rows.sort(key=lambda row: row[5])
        return [Span(*row) for row in rows]


class _ManualSpan:
    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_ManualSpan":
        recorder = self._recorder
        self._stack, self._buffer, self._thread = recorder._thread_state()
        self._sid, self._parent = recorder._open(self._stack)
        self._start = _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        end = _clock()
        self._stack.pop()
        self._buffer.append(
            (
                self._sid,
                self._parent,
                self._name,
                self._thread,
                self._recorder.op,
                self._start,
                end,
                None,
            )
        )


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if end > span.start and start < span.end
        ]
        out[span.id] = (span.end - span.start) - union_length(clipped)
    return out

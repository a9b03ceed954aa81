"""Execution tracing: nested spans over jobs, shuffles and tasks.

The observability layer the engine reports itself through.  A
:class:`Tracer` records a tree of :class:`Span` objects:

- the scheduler opens a ``job`` span per :meth:`SparkContext.run_job`
  and a ``task`` span per partition computed, with per-task record
  counts and cache-hit / partition-pruning attribution;
- the shuffle manager opens a ``shuffle`` span around each map side,
  attributing the records written;
- every operator in :mod:`repro.core` opens a tagged ``operator`` span
  (``knn``, ``join.plan``, ``dbscan.merge``, ...), so a single query
  yields a full job → stage/shuffle → task execution trace.

Tracing is **off by default**: contexts start with :data:`NULL_TRACER`,
whose whole API is no-ops, and every hot-path call site additionally
guards on ``tracer.enabled`` so the disabled path costs one attribute
read.  Enable with ``SparkContext(tracing=True)`` or
``sc.enable_tracing()``.

Spans nest through a per-thread stack.  Tasks may run on pool threads;
the scheduler parents their spans to the job span explicitly, and any
nested job a task triggers (e.g. a shuffle map side) lands under that
task's span via the worker thread's own stack -- so the tree reflects
the real execution structure in both executor modes.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    """One timed node of the trace tree."""

    name: str
    #: Structural role: ``root`` | ``job`` | ``task`` | ``shuffle`` | ``operator``.
    kind: str = "operator"
    attrs: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds; still-open spans measure up to now."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def add(self, key: str, amount: int = 1) -> None:
        """Increment a counter-style attribute."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def note_failure(self, error: str) -> None:
        """Record one failed attempt: bumps ``failures``, keeps the error.

        The scheduler calls this on task spans as it retries, so a trace
        of a chaos run shows exactly which tasks failed, how often, and
        with what final error.
        """
        self.add("failures", 1)
        self.attrs["last_error"] = error

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (and self) with the given name, pre-order."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready representation of the subtree."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Collects spans into a tree rooted at :attr:`root`.

    Thread-safe: concurrent tasks append children under a lock, and the
    "current span" is tracked per thread so nesting follows each
    thread's own call structure.
    """

    enabled = True

    def __init__(self) -> None:
        self.root = Span("trace", kind="root", start=time.perf_counter())
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span:
        """The innermost open span on this thread (the root if none)."""
        stack = self._stack()
        return stack[-1] if stack else self.root

    @contextmanager
    def span(
        self, name: str, kind: str = "operator", parent: Span | None = None, **attrs
    ):
        """Open a child span of *parent* (default: this thread's current).

        Passing *parent* explicitly is how the scheduler attaches task
        spans running on pool threads to the driver's job span.
        """
        node = Span(name, kind=kind, attrs=dict(attrs), start=time.perf_counter())
        target = parent if parent is not None else self.current()
        with self._lock:
            target.children.append(node)
        stack = self._stack()
        stack.append(node)
        try:
            yield node
        finally:
            stack.pop()
            node.end = time.perf_counter()

    # -- attribution -------------------------------------------------------

    def annotate(self, **attrs) -> None:
        """Set attributes on the current span."""
        self.current().attrs.update(attrs)

    def add(self, key: str, amount: int = 1) -> None:
        """Increment a counter attribute on the current span."""
        with self._lock:
            self.current().add(key, amount)

    def add_to(self, span: Span, key: str, amount: int = 1) -> None:
        """Increment a counter on a specific span (cross-thread safe)."""
        with self._lock:
            span.add(key, amount)

    # -- export ------------------------------------------------------------

    def reset(self) -> None:
        """Drop all recorded spans and restart the clock."""
        self.root = Span("trace", kind="root", start=time.perf_counter())
        self._local = threading.local()

    def to_dict(self) -> dict[str, Any]:
        return self.root.to_dict()

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def export(self, path: str) -> None:
        """Write the trace as JSON to *path*."""
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    def render(self) -> str:
        """The human-readable tree report (see :mod:`repro.obs.report`)."""
        from repro.obs.report import render_trace

        return render_trace(self)


class _NullSpan(Span):
    """The span no-op tracing hands out: accepts writes, keeps nothing."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", kind="null")

    def add(self, key: str, amount: int = 1) -> None:
        pass

    @property
    def attrs(self) -> dict:  # type: ignore[override]
        return {}

    @attrs.setter
    def attrs(self, value) -> None:
        pass

    @property
    def children(self) -> list:  # type: ignore[override]
        return []

    @children.setter
    def children(self, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """A reusable, allocation-free context manager yielding the null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: same API as :class:`Tracer`, all no-ops.

    Call sites on hot paths should still guard on :attr:`enabled` to
    skip argument construction entirely.
    """

    enabled = False

    @property
    def root(self) -> Span:
        return _NULL_SPAN

    def current(self) -> Span:
        return _NULL_SPAN

    def span(self, name: str, kind: str = "operator", parent=None, **attrs):
        return _NULL_CONTEXT

    def annotate(self, **attrs) -> None:
        pass

    def add(self, key: str, amount: int = 1) -> None:
        pass

    def add_to(self, span, key: str, amount: int = 1) -> None:
        pass

    def reset(self) -> None:
        pass

    def to_dict(self) -> dict[str, Any]:
        return {}

    def to_json(self, indent: int | None = 2) -> str:
        return "{}"

    def render(self) -> str:
        return "(tracing disabled)"


#: The shared disabled tracer every context starts with.
NULL_TRACER = NullTracer()


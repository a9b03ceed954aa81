"""Accumulators: write-only shared counters for tasks."""

from __future__ import annotations

import threading
from typing import Callable, Generic, TypeVar

T = TypeVar("T")


class Accumulator(Generic[T]):
    """A thread-safe aggregation variable.

    Tasks call :meth:`add`; only the driver reads :attr:`value`.  The
    default combine operation is ``+``.  Tasks share this one object, so
    every attempt's terms count, a retried or superseded one's included
    (Spark's contract for accumulators updated in transformations).
    """

    def __init__(self, initial: T, op: Callable[[T, T], T] | None = None) -> None:
        self._value = initial
        self._op = op or (lambda a, b: a + b)  # type: ignore[operator]
        self._lock = threading.Lock()

    def add(self, term: T) -> None:
        """Fold *term* into the running value (thread-safe)."""
        with self._lock:
            self._value = self._op(self._value, term)

    def __iadd__(self, term: T) -> "Accumulator[T]":
        self.add(term)
        return self

    @property
    def value(self) -> T:
        """The current accumulated value (read on the driver)."""
        return self._value

    def __repr__(self) -> str:
        return f"Accumulator({self._value!r})"

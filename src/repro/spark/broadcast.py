"""Broadcast variables.

Every task runs in the driver's process, so a broadcast is a thin
read-only wrapper sharing one in-memory value; it exists so code
written against the Spark API (and the baselines' broadcast joins)
keeps its shape, and so the destroyed-broadcast error mode is
reproduced.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T")


class Broadcast(Generic[T]):
    """A read-only value shared across all tasks."""

    __slots__ = ("_value", "_destroyed")

    def __init__(self, value: T) -> None:
        self._value = value
        self._destroyed = False

    @property
    def value(self) -> T:
        """The broadcast payload; raises after :meth:`destroy`."""
        if self._destroyed:
            raise RuntimeError("attempted to use a destroyed broadcast variable")
        return self._value

    def destroy(self) -> None:
        """Release the value; later reads raise."""
        self._destroyed = True
        self._value = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        state = "destroyed" if self._destroyed else repr(self._value)
        return f"Broadcast({state})"

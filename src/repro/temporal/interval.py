"""The interval temporal type and temporal-value coercion."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from numbers import Real
from typing import Union

from repro.temporal.instant import Instant


class Interval:
    """An immutable closed time interval ``[start, end]``.

    Intervals are never empty: ``start <= end`` is enforced.  A
    zero-length interval is a valid value distinct from an
    :class:`Instant` only in type; the predicates treat them alike.
    Written out like :class:`Instant`, with the dataclass's equality,
    hash and pickled state.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: float, end: float) -> None:
        for bound in (start, end):
            kind = type(bound)
            if kind is not float and kind is not int and not isinstance(bound, Real):
                raise TypeError(f"interval bounds must be numbers, got {kind.__name__}")
            if bound != bound:  # NaN
                raise ValueError("interval bounds must not be NaN")
        if start > end:
            raise ValueError(f"interval start {start} after end {end}")
        _set_start(self, start)
        _set_end(self, end)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __getstate__(self) -> list:
        return [self.start, self.end]

    def __setstate__(self, state: list) -> None:
        start, end = state
        _set_start(self, start)
        _set_end(self, end)

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains_value(self, t: float) -> bool:
        """Closed containment of a timestamp."""
        return self.start <= t <= self.end

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlapping interval, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def merge(self, other: "Interval") -> "Interval":
        """The smallest interval covering both operands."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def buffer(self, margin: float) -> "Interval":
        """Grow by *margin* on both sides (must not invert the interval)."""
        return Interval(self.start - margin, self.end + margin)

    def __repr__(self) -> str:
        return f"Interval({self.start!r}, {self.end!r})"


_set_start = Interval.start.__set__
_set_end = Interval.end.__set__

TemporalExpression = Union[Instant, Interval]


def make_temporal(value) -> TemporalExpression | None:
    """Coerce a user-supplied value into a temporal expression.

    Accepts ``None`` (no temporal component), an existing
    :class:`Instant`/:class:`Interval`, a bare number (an instant) or a
    ``(start, end)`` pair (an interval).  This is the coercion the
    ``STObject`` constructor applies so users can write
    ``STObject(wkt, time)`` exactly as in the paper's example.
    """
    kind = type(value)
    if kind is float or kind is int:
        return Instant(value)
    if value is None or kind is Instant or kind is Interval:
        return value
    if isinstance(value, Real):
        return Instant(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Interval(float(value[0]), float(value[1]))
    raise TypeError(
        "temporal component must be None, a number, an (start, end) pair, "
        f"an Instant or an Interval; got {type(value).__name__}"
    )

"""Axis-aligned bounding boxes (envelopes).

Envelopes are the workhorse of every pruning decision in the system: the
spatial partitioners describe partition bounds and extents with them, the
STR-tree stores them at every node, and the join/filter operators use them
for the cheap reject test before the exact predicate runs.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator


class Envelope:
    """An immutable, closed, axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    An envelope may be *empty* (contains no point).  Emptiness is a
    construction-time fact: any ``min > max`` input -- including a
    half-empty one like ``Envelope(5, 0, 3, 10)`` -- is normalised to
    the one canonical empty ``(inf, inf, -inf, -inf)`` that
    :meth:`empty` returns, so :attr:`is_empty` is a single comparison.
    All operations treat the empty envelope as the identity for
    :meth:`merge` and as disjoint from everything.

    Every point a reader builds makes one, so the class is written out
    rather than generated: ``__init__`` stores the four fields through
    their slot descriptors (``__setattr__`` refuses every write, as a
    frozen dataclass's does), equality and hashing are those of the
    field tuple, and the pickled state is the dataclass's field list,
    so envelopes pickled by either form load under the other.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float) -> None:
        if not (min_x <= max_x and min_y <= max_y):
            if min_x != min_x or min_y != min_y or max_x != max_x or max_y != max_y:
                raise ValueError("envelope coordinates must not be NaN")
            min_x = min_y = math.inf
            max_x = max_y = -math.inf
        _set_min_x(self, min_x)
        _set_min_y(self, min_y)
        _set_max_x(self, max_x)
        _set_max_y(self, max_y)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Envelope:
            return NotImplemented
        return (
            self.min_x == other.min_x
            and self.min_y == other.min_y
            and self.max_x == other.max_x
            and self.max_y == other.max_y
        )

    def __hash__(self) -> int:
        return hash((self.min_x, self.min_y, self.max_x, self.max_y))

    def __getstate__(self) -> list:
        return [self.min_x, self.min_y, self.max_x, self.max_y]

    def __setstate__(self, state: list) -> None:
        min_x, min_y, max_x, max_y = state
        _set_min_x(self, min_x)
        _set_min_y(self, min_y)
        _set_max_x(self, max_x)
        _set_max_y(self, max_y)

    @staticmethod
    def empty() -> "Envelope":
        """The empty envelope (neutral element of :meth:`merge`)."""
        return Envelope(math.inf, math.inf, -math.inf, -math.inf)

    @staticmethod
    def of_point(x: float, y: float) -> "Envelope":
        """A degenerate envelope covering a single point."""
        return Envelope(x, y, x, y)

    @staticmethod
    def of_points(coords: Iterable[tuple[float, float]]) -> "Envelope":
        """The tightest envelope around an iterable of ``(x, y)`` pairs."""
        min_x = min_y = math.inf
        max_x = max_y = -math.inf
        for x, y in coords:
            min_x = min(min_x, x)
            min_y = min(min_y, y)
            max_x = max(max_x, x)
            max_y = max(max_y, y)
        return Envelope(min_x, min_y, max_x, max_y)

    @property
    def is_empty(self) -> bool:
        return self.min_x > self.max_x

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.max_x - self.min_x

    @property
    def height(self) -> float:
        return 0.0 if self.is_empty else self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 0.0 if self.is_empty else 2.0 * (self.width + self.height)

    def center(self) -> tuple[float, float]:
        """The center point; raises on the empty envelope."""
        if self.is_empty:
            raise ValueError("empty envelope has no center")
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains_point(self, x: float, y: float) -> bool:
        """Closed containment test for a point."""
        return (
            not self.is_empty
            and self.min_x <= x <= self.max_x
            and self.min_y <= y <= self.max_y
        )

    def contains(self, other: "Envelope") -> bool:
        """True when *other* lies fully inside (or on the border of) this envelope."""
        if self.is_empty or other.is_empty:
            return False
        return (
            self.min_x <= other.min_x
            and other.max_x <= self.max_x
            and self.min_y <= other.min_y
            and other.max_y <= self.max_y
        )

    def intersects(self, other: "Envelope") -> bool:
        """True when the two (closed) envelopes share at least one point.

        The canonical empty fails the four comparisons by itself
        against every bounded operand; the trailing pair only decides
        the one remaining case, an empty envelope against one that is
        unbounded on both sides, and is read on hits alone.
        """
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
            and self.min_x <= self.max_x
            and other.min_x <= other.max_x
        )

    def intersection(self, other: "Envelope") -> "Envelope":
        """The envelope of the common region; empty when disjoint."""
        if not self.intersects(other):
            return Envelope.empty()
        return Envelope(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def merge(self, other: "Envelope") -> "Envelope":
        """The smallest envelope covering both operands."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Envelope(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expand_to_point(self, x: float, y: float) -> "Envelope":
        """The smallest envelope covering this one and the point."""
        return self.merge(Envelope.of_point(x, y))

    def buffer(self, margin: float) -> "Envelope":
        """Grow (or, for negative margins, shrink) by *margin* on every side.

        Shrinking past the point where the envelope vanishes yields the
        empty envelope.
        """
        if self.is_empty:
            return self
        grown = Envelope(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
        return Envelope.empty() if grown.is_empty else grown

    def distance(self, other: "Envelope") -> float:
        """Minimum Euclidean distance between the two envelopes (0 if they touch)."""
        if self.is_empty or other.is_empty:
            raise ValueError("distance undefined for empty envelopes")
        dx = max(other.min_x - self.max_x, self.min_x - other.max_x, 0.0)
        dy = max(other.min_y - self.max_y, self.min_y - other.max_y, 0.0)
        return math.hypot(dx, dy)

    def distance_to_point(self, x: float, y: float) -> float:
        """Minimum Euclidean distance from the envelope to a point."""
        if self.is_empty:
            raise ValueError("distance undefined for empty envelopes")
        dx = max(self.min_x - x, x - self.max_x, 0.0)
        dy = max(self.min_y - y, y - self.max_y, 0.0)
        return math.hypot(dx, dy)

    def max_distance_to_point(self, x: float, y: float) -> float:
        """Maximum Euclidean distance from the envelope to a point.

        Used as a kNN pruning upper bound: every geometry inside the
        envelope is at most this far from ``(x, y)``.
        """
        if self.is_empty:
            raise ValueError("distance undefined for empty envelopes")
        dx = max(abs(x - self.min_x), abs(x - self.max_x))
        dy = max(abs(y - self.min_y), abs(y - self.max_y))
        return math.hypot(dx, dy)

    def corners(self) -> Iterator[tuple[float, float]]:
        """The four corners in counter-clockwise order starting at (min_x, min_y)."""
        yield (self.min_x, self.min_y)
        yield (self.max_x, self.min_y)
        yield (self.max_x, self.max_y)
        yield (self.min_x, self.max_y)

    def split_at(self, value: float, axis: int) -> tuple["Envelope", "Envelope"]:
        """Cut the envelope at *value* along *axis* (0 = x, 1 = y).

        Returns the (low, high) halves.  The cut must fall inside the
        envelope; both halves are closed and share the cut line, matching
        how the BSP partitioner defines adjacent partition bounds.
        """
        if self.is_empty:
            raise ValueError("cannot split an empty envelope")
        if axis == 0:
            if not self.min_x <= value <= self.max_x:
                raise ValueError(f"cut {value} outside x range [{self.min_x}, {self.max_x}]")
            low = Envelope(self.min_x, self.min_y, value, self.max_y)
            high = Envelope(value, self.min_y, self.max_x, self.max_y)
        elif axis == 1:
            if not self.min_y <= value <= self.max_y:
                raise ValueError(f"cut {value} outside y range [{self.min_y}, {self.max_y}]")
            low = Envelope(self.min_x, self.min_y, self.max_x, value)
            high = Envelope(self.min_x, value, self.max_x, self.max_y)
        else:
            raise ValueError(f"axis must be 0 or 1, got {axis}")
        return low, high

    def __repr__(self) -> str:
        if self.is_empty:
            return "Envelope.empty()"
        return (
            f"Envelope({self.min_x!r}, {self.min_y!r}, "
            f"{self.max_x!r}, {self.max_y!r})"
        )


_set_min_x = Envelope.min_x.__set__
_set_min_y = Envelope.min_y.__set__
_set_max_x = Envelope.max_x.__set__
_set_max_y = Envelope.max_y.__set__

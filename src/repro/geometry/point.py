"""The point geometry."""

from __future__ import annotations

import math

from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope


#: Every empty point shares the one immutable empty envelope.
_EMPTY = Envelope.empty()


class Point(Geometry):
    """An immutable 2D point.

    ``Point()`` with no arguments constructs the empty point
    (``POINT EMPTY`` in WKT).
    """

    __slots__ = ("_x", "_y", "_empty")
    dimension = 0

    def __init__(self, x: float | None = None, y: float | None = None) -> None:
        if x is None or y is None:
            if x is not y:
                raise ValueError("provide both coordinates or neither")
            self._empty = True
            self._x = math.nan
            self._y = math.nan
            self._envelope = _EMPTY
            return
        x = float(x)
        y = float(y)
        if x != x or y != y:
            raise ValueError("point coordinates must not be NaN")
        self._empty = False
        self._x = x
        self._y = y
        # Eager: the stream store and the join read it once per record.
        self._envelope = Envelope(x, y, x, y)

    @property
    def x(self) -> float:
        if self._empty:
            raise ValueError("empty point has no coordinates")
        return self._x

    @property
    def y(self) -> float:
        if self._empty:
            raise ValueError("empty point has no coordinates")
        return self._y

    @property
    def coord(self) -> tuple[float, float]:
        """The ``(x, y)`` tuple."""
        return (self.x, self.y)

    @property
    def geom_type(self) -> str:
        return "POINT"

    @property
    def is_empty(self) -> bool:
        return self._empty

    def centroid(self) -> "Point":
        return self

    def coordinates(self) -> list[tuple[float, float]]:
        return [] if self._empty else [(self._x, self._y)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self._empty or other._empty:
            return self._empty and other._empty
        return self._x == other._x and self._y == other._y

    def __hash__(self) -> int:
        if self._empty:
            return hash(("POINT", None))
        return hash(("POINT", self._x, self._y))

    def __getstate__(self) -> tuple:
        return (self._x, self._y, self._empty)

    def __setstate__(self, state: tuple) -> None:
        self._x, self._y, self._empty = state
        self._envelope = _EMPTY if self._empty else Envelope(self._x, self._y, self._x, self._y)

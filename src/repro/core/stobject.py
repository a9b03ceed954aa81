"""The ``STObject`` data type (paper section 2.3).

An ``STObject`` has exactly two fields: ``geo`` -- the spatial
component -- and an optional ``time`` -- the temporal component.  The
time is optional to support spatial-only data.

The constructor mirrors the paper's usage patterns:

>>> STObject("POINT (10 20)")                       # spatial only
STObject(POINT (10 20))
>>> STObject("POINT (10 20)", 1000)                 # instant
STObject(POINT (10 20), Instant(1000))
>>> STObject("POLYGON ((0 0, 1 0, 1 1, 0 0))", 10, 20)  # interval [begin, end]
STObject(POLYGON ((0 0, 1 0, 1 1, 0 0)), Interval(10, 20))

The relation methods :meth:`intersects`, :meth:`contains` and
:meth:`contained_by` implement the combined semantics of the paper's
equations (1)-(3).
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.wkt import parse_wkt
from repro.temporal.instant import Instant
from repro.temporal.interval import Interval, TemporalExpression, make_temporal


class STObject:
    """An immutable spatio-temporal value: geometry plus optional time."""

    __slots__ = ("_geo", "_time")

    def __init__(
        self,
        geo: Geometry | str,
        time=None,
        end=None,
    ) -> None:
        kind = type(geo)
        if kind is str:
            geo = parse_wkt(geo)
            kind = type(geo)
        # A point is by far the common case: its type is tested before
        # the Geometry ABC, and its emptiness read from its slot.
        if kind is Point:
            if geo._empty:
                raise ValueError("STObject requires a non-empty geometry")
        elif not isinstance(geo, Geometry):
            raise TypeError(
                f"geo must be a Geometry or WKT string, got {kind.__name__}"
            )
        elif geo.is_empty:
            raise ValueError("STObject requires a non-empty geometry")
        if end is not None:
            # STObject(wkt, begin, end) form from the paper's query example.
            time = Interval(float(time), float(end))
        self._geo = geo
        self._time = make_temporal(time)

    @property
    def geo(self) -> Geometry:
        """The spatial component."""
        return self._geo

    @property
    def time(self) -> Optional[TemporalExpression]:
        """The temporal component, or ``None`` for spatial-only objects."""
        return self._time

    @property
    def has_time(self) -> bool:
        """True when the object carries a temporal component."""
        return self._time is not None

    # -- combined spatio-temporal relations (paper eqs. (1)-(3)) ----------

    def intersects(self, other: "STObject") -> bool:
        """Spatial and/or temporal intersection per the combined semantics."""
        from repro.core.predicates import INTERSECTS

        return INTERSECTS.evaluate(self, other)

    def contains(self, other: "STObject") -> bool:
        """True when this object completely contains *other*."""
        from repro.core.predicates import CONTAINS

        return CONTAINS.evaluate(self, other)

    def contained_by(self, other: "STObject") -> bool:
        """The reverse operation of :meth:`contains`."""
        return other.contains(self)

    # camelCase alias matching the paper's API verbatim
    containedBy = contained_by

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, STObject):
            return NotImplemented
        return self._geo == other._geo and self._time == other._time

    def __hash__(self) -> int:
        return hash((self._geo, self._time))

    def __reduce_ex__(self, protocol):
        # A point event -- nearly every row a reader or an index stores --
        # pickles as one call over its numbers, not as a class, a Point
        # and a temporal object rebuilt through three state hooks.
        geo, time = self._geo, self._time
        if type(geo) is Point and not geo._empty:
            kind = type(time)
            if time is None:
                return _point_stobject, (geo._x, geo._y)
            if kind is Instant:
                return _point_stobject, (geo._x, geo._y, time.value)
            if kind is Interval:
                return _point_stobject, (geo._x, geo._y, time.start, time.end)
        return object.__reduce_ex__(self, protocol)

    def __getstate__(self) -> tuple:
        return (self._geo, self._time)

    def __setstate__(self, state: tuple) -> None:
        # Also what every pickle of a point event written before
        # ``_point_stobject`` existed loads through.
        self._geo, self._time = state

    def __repr__(self) -> str:
        if self._time is None:
            return f"STObject({self._geo.wkt()})"
        return f"STObject({self._geo.wkt()}, {self._time!r})"


_new_stobject = STObject.__new__
_new_point = Point.__new__
_new_instant = Instant.__new__
_new_interval = Interval.__new__
_set_instant = Instant.value.__set__
_set_start = Interval.start.__set__
_set_end = Interval.end.__set__


def _point_stobject(x: float, y: float, *time) -> STObject:
    """Rebuild a point event from the numbers :meth:`STObject.__reduce_ex__`
    wrote: none, one (an :class:`Instant`) or two (an :class:`Interval`)
    time values after the coordinates.  They come from a valid object,
    so nothing is checked again.  Pickles name this function: keep it.
    """
    obj = _new_stobject(STObject)
    obj._geo = point = _new_point(Point)
    point._x = x
    point._y = y
    point._empty = False
    point._envelope = Envelope(x, y, x, y)
    if not time:
        obj._time = None
    elif len(time) == 1:
        obj._time = instant = _new_instant(Instant)
        _set_instant(instant, time[0])
    else:
        obj._time = interval = _new_interval(Interval)
        _set_start(interval, time[0])
        _set_end(interval, time[1])
    return obj

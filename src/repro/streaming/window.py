"""Event-time windowing for spatio-temporal streams.

The paper models events as :class:`~repro.core.stobject.STObject`
values whose temporal component is an instant or an interval, and its
combined predicates (eqs. (1)-(3)) are *intersection* semantics over
those temporal components.  Windowing inherits exactly that rule: a
record belongs to every window whose time interval its own temporal
component intersects.  An instant therefore lands in one tumbling
window (or ``length / slide`` sliding windows), while an interval-timed
event -- a concert spanning an evening -- lands in every window it
overlaps, the streaming analogue of the paper's interval-aware
``intersects``.

This module is the pure arithmetic: :class:`Window`, and
:class:`WindowSpec` -- assignment for tumbling (``slide == length``)
and sliding (``slide < length``) windows aligned to multiples of
``slide`` from ``origin``.  Which records are in which open window,
where the watermark is and what is late is state, and there is one
implementation of it: :class:`~repro.streaming.state.KeyedWindowState`
over the keyed store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.stobject import STObject


@dataclass(frozen=True, order=True)
class Window:
    """One half-open event-time window ``[start, end)``."""

    start: float
    end: float

    @property
    def length(self) -> float:
        """The window's extent in event-time units."""
        return self.end - self.start

    def contains_time(self, t: float) -> bool:
        """True when instant *t* falls inside ``[start, end)``."""
        return self.start <= t < self.end

    def intersects_span(self, t_start: float, t_end: float) -> bool:
        """True when the closed span ``[t_start, t_end]`` overlaps this
        window -- the temporal half of the paper's eq. (1)."""
        return t_start < self.end and t_end >= self.start

    def __repr__(self) -> str:
        return f"Window[{self.start:g}, {self.end:g})"


class WindowSpec:
    """Tumbling/sliding window assignment arithmetic.

    ``length`` is the window extent; ``slide`` (default ``length``,
    which makes the windows tumbling) is the distance between
    consecutive window starts.  Window starts are the multiples of
    ``slide`` offset by ``origin``, so assignment is O(windows-hit) and
    needs no per-window state; :meth:`pane` replays the last instant's
    answer for instants that share its windows.
    """

    __slots__ = ("length", "slide", "origin", "_window_cache", "_pane")

    #: Per-spec cap on memoized Window objects; streams revisit the same
    #: few open windows record after record, so a small cache hits nearly
    #: always while staying bounded on unbounded event time.
    _CACHE_LIMIT = 512

    def __init__(self, length: float, slide: float | None = None, origin: float = 0.0) -> None:
        if length <= 0:
            raise ValueError(f"window length must be positive, got {length}")
        slide = length if slide is None else slide
        if slide <= 0:
            raise ValueError(f"window slide must be positive, got {slide}")
        if slide > length:
            raise ValueError(
                f"slide ({slide}) must not exceed length ({length}); "
                "gapped windows would drop records between windows"
            )
        self.length = float(length)
        self.slide = float(slide)
        self.origin = float(origin)
        self._window_cache: dict[int, Window] = {}
        #: ``[lo, hi)`` and the windows of the last assigned instant's pane.
        self._pane: tuple[float, float, tuple[Window, ...]] = (0.0, 0.0, ())

    def _window_at(self, k: int) -> Window:
        """The k-th window (start ``origin + k * slide``), memoized --
        a stream assigns the same handful of open windows millions of
        times, and Window construction dominates assignment otherwise."""
        window = self._window_cache.get(k)
        if window is None:
            if len(self._window_cache) >= self._CACHE_LIMIT:
                self._window_cache.clear()
            start = self.origin + k * self.slide
            window = self._window_cache[k] = Window(start, start + self.length)
        return window

    @property
    def is_tumbling(self) -> bool:
        """True when windows do not overlap (slide equals length)."""
        return self.slide == self.length

    def assign(self, t_start: float, t_end: float | None = None) -> list[Window]:
        """Every window the span ``[t_start, t_end]`` intersects, ascending.

        With ``t_end`` omitted the record is an instant.  The result is
        never empty: any event time hits at least one window.  An
        instant's pane is remembered for :meth:`pane`.
        """
        if t_end is None:
            t_end = t_start
        if t_end < t_start:
            raise ValueError(f"span end {t_end} precedes start {t_start}")
        # Earliest window whose [start, start+length) can still reach
        # t_start; latest window starting at or before t_end.  The k
        # range is widened by one slide on each side and every candidate
        # is checked with the exact intersection test: the float floor
        # division can land one slide off at large magnitudes or exact
        # boundaries, and the widen-then-filter keeps assignment exact
        # in the arithmetic the windows themselves are built with.
        first = math.floor((t_start - self.origin - self.length) / self.slide) + 1
        last = math.floor((t_end - self.origin) / self.slide)
        windows = []
        for k in range(first - 1, last + 2):
            window = self._window_at(k)
            if window.intersects_span(t_start, t_end):
                if not windows:
                    k_first = k
                windows.append(window)
        if not windows:
            # Pathological float gap: consecutive windows k and k+1 can
            # satisfy start_k + length < start_{k+1} by one ulp, leaving
            # an instant between them.  Assign to the nearest window so
            # the result is never empty, as documented.
            windows.append(self._window_at(last))
        elif t_start == t_end:
            # Remember the instant's pane for pane(): from the last window's
            # start and the previous window's end to the first window's end
            # and the next window's start.  Bounds never decrease with k,
            # so every instant in that range is in exactly these windows.
            self._pane = (
                max(windows[-1].start, self._window_at(k_first - 1).end),
                min(windows[0].end, self._window_at(k_first + len(windows)).start),
                tuple(windows),
            )
        return windows

    def pane(self, t_start: float, t_end: float | None = None) -> Sequence[Window]:
        """:meth:`assign`, without assigning again when the span is an
        instant in the last assigned instant's pane -- the instants that
        fall in exactly the same windows.  Read-only: a hit returns the
        pane's shared tuple."""
        lo, hi, windows = self._pane
        if not (lo <= t_start < hi and (t_end is None or t_end == t_start)):
            windows = self.assign(t_start, t_end)
        return windows

    def __repr__(self) -> str:
        shape = "tumbling" if self.is_tumbling else f"sliding/{self.slide:g}"
        return f"WindowSpec(length={self.length:g}, {shape})"


def event_span(st: STObject, fallback: float) -> tuple[float, float]:
    """The ``(start, end)`` event-time span of a record's key.

    Spatial-only records (no temporal component) take *fallback* --
    the streaming engine passes the batch's ingestion time, so untimed
    data still flows through windows deterministically.
    """
    time = st.time
    if time is None:
        return (fallback, fallback)
    return (time.start, time.end)


"""``window()`` against a from-scratch model of event-time windowing.

The model below is written the slow, obvious way -- enumerate every
window a record's span intersects, append the record to a list per
open window, close the windows the watermark passed in ascending order
-- and shares no code with :mod:`repro.streaming.state`.  Whatever
holds the records underneath ``window()``, its observable behaviour
must equal the model's: the same windows, in the same order, each with
the same records in arrival order, and the same two lateness counters.

Streams mix out-of-order instants, interval events spanning several
windows, untimed records (which take their batch's time) and arrivals
late enough to miss some or all of their windows, over tumbling and
sliding windows with and without allowed lateness.  Two time grids:

- halves, with lengths 4 and 6: every window bound is exact in floating
  point, so the model enumerates windows with its own arithmetic and
  that enumeration is the whole truth;
- tenths, with lengths and slides 0.1 / 0.3 / 0.7 and events sitting
  on window bounds: ``k * 0.1`` and ``n / 10`` differ by an ulp for
  many k (``6 * 0.1 > 0.6``), which is where a second opinion on
  membership inside the implementation would show.  There the model
  takes its windows from :meth:`WindowSpec.assign` -- the one public
  statement of which windows a span has -- and the test adds that no
  record vanishes: each is in an emitted window or counted late.
"""

from __future__ import annotations

import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import StreamingContext, Window, WindowSpec
from repro.streaming.state import KeyedStateStore, KeyedWindowState

#: Times are integer *ticks* over a divisor (2 = halves, 10 = tenths).
#: Micro-batch *b* has batch time ``b * BATCH_TICKS`` ticks; events
#: scatter around it by up to +/- ``SCATTER_TICKS`` -- further than any
#: lateness drawn below, so some arrive after their windows fired.
BATCH_TICKS = 6
SCATTER_TICKS = 18


def windows_of(length: float, slide: float, t_start: float, t_end: float) -> list[Window]:
    """Every window ``[k*slide, k*slide + length)`` the span touches
    (exact bounds only)."""
    first = math.floor((t_start - length) / slide) - 1
    last = math.floor(t_end / slide) + 1
    out = []
    for k in range(first, last + 1):
        start = k * slide
        if t_start < start + length and t_end >= start:
            out.append(Window(start, start + length))
    return out


def model(batches, assign, lateness):
    """``(emitted, late_records, late_window_drops)`` of a whole stream
    of ``(value, t_start, t_end)`` batches, shutdown flush included;
    ``assign(t_start, t_end)`` names a span's windows."""
    watermark = horizon = -math.inf
    open_windows: dict[Window, list[int]] = {}
    emitted: list[tuple[Window, list[int]]] = []
    late_records = late_window_drops = 0

    def close(ready):
        nonlocal horizon
        for window in sorted(ready):
            emitted.append((window, open_windows.pop(window)))
            horizon = max(horizon, window.end)

    for events in batches:
        frontier = watermark + lateness
        for value, t_start, t_end in events:
            frontier = max(frontier, t_end)
            windows = assign(t_start, t_end)
            live = [w for w in windows if w.end > horizon]
            late_window_drops += len(windows) - len(live)
            if not live:
                late_records += 1
            for window in live:
                open_windows.setdefault(window, []).append(value)
        watermark = max(watermark, frontier - lateness)
        close(w for w in open_windows if w.end <= watermark)
    close(list(open_windows))
    return emitted, late_records, late_window_drops


def span_batches(batches, ticks_per_unit):
    """The stream as the model reads it: ``(value, t_start, t_end)`` batches."""
    return [list(spans(events, b, ticks_per_unit)) for b, events in enumerate(batches)]


def spans(events, b, ticks_per_unit):
    """``(value, t_start, t_end)`` per event of batch *b*; an untimed
    event (offset None) sits at the batch time.  Each time is one
    division of an integer, i.e. the float its decimal literal names."""
    for value, offset, duration in events:
        start = b * BATCH_TICKS + (offset or 0)
        yield value, start / ticks_per_unit, (start + duration) / ticks_per_unit


def records(events, b, ticks_per_unit):
    """The ``(STObject, value)`` rows the stream is fed for batch *b*."""
    rows = []
    for (value, offset, duration), (_v, t_start, t_end) in zip(
        events, spans(events, b, ticks_per_unit)
    ):
        if offset is None:
            key = STObject("POINT (1 1)")
        elif duration:
            key = STObject("POINT (1 1)", t_start, t_end)
        else:
            key = STObject("POINT (1 1)", t_start)
        rows.append((key, value))
    return rows


ticks = st.integers(-SCATTER_TICKS, SCATTER_TICKS)
event = st.one_of(
    st.tuples(ticks, st.just(0)),  # instant
    st.tuples(ticks, st.integers(1, 30)),  # interval
    st.just((None, 0)),  # untimed
)
stream = st.lists(st.lists(event, max_size=6), min_size=1, max_size=8)


def run_window(stream, length, slide, lateness, ticks_per_unit):
    """Feed *stream* through ``window().collect_windows()`` and through
    nothing else: ``(batches, emitted, metrics)``."""
    # Values number the events in arrival order, so a window's value
    # list pins both membership and order.
    counter = iter(range(10_000))
    batches = [[(next(counter), *ev) for ev in events] for events in stream]
    with SparkContext("window-model", parallelism=2, executor="sequential") as sc:
        ssc = StreamingContext(sc)
        _source, events = ssc.queue_stream(
            [records(rows, b, ticks_per_unit) for b, rows in enumerate(batches)]
        )
        sink = events.window(length, slide, lateness=lateness).collect_windows()
        ssc.run_batches(
            len(batches),
            batch_times=[b * BATCH_TICKS / ticks_per_unit for b in range(len(batches))],
        )
        ssc.stop()
    got = [(window, [value for _st, value in rows]) for window, rows in sink.results()]
    return batches, got, ssc.metrics


@given(
    stream=stream,
    length=st.sampled_from([4.0, 6.0]),
    sliding=st.booleans(),
    lateness=st.sampled_from([0.0, 0.0, 2.5, 7.0]),
)
@settings(max_examples=120, deadline=None)
def test_window_equals_model(stream, length, sliding, lateness):
    slide = 2.0 if sliding else length
    batches, got, metrics = run_window(stream, length, slide, lateness, 2)
    want, late_records, late_window_drops = model(
        span_batches(batches, 2), lambda a, b: windows_of(length, slide, a, b), lateness
    )
    assert got == want
    assert metrics.late_records_dropped == late_records
    assert metrics.late_window_drops == late_window_drops


@given(
    stream=stream,
    shape=st.sampled_from([(0.1, 0.1), (0.3, 0.3), (0.7, 0.7), (0.3, 0.1), (0.7, 0.3)]),
    lateness=st.sampled_from([0.0, 0.0, 0.25, 0.7]),
)
@settings(max_examples=120, deadline=None)
def test_window_equals_model_on_inexact_bounds(stream, shape, lateness):
    length, slide = shape
    batches, got, metrics = run_window(stream, length, slide, lateness, 10)
    want, late_records, late_window_drops = model(
        span_batches(batches, 10), WindowSpec(length, slide).assign, lateness
    )
    assert got == want
    assert metrics.late_records_dropped == late_records
    assert metrics.late_window_drops == late_window_drops
    # Nothing vanishes: no window is emitted empty, and a record is
    # delivered at least once or counted late.
    assert all(values for _window, values in got)
    delivered = {value for _window, values in got for value in values}
    fed = sum(len(rows) for rows in batches)
    assert len(delivered) + metrics.late_records_dropped == fed


# -- panes against WindowSpec.assign -----------------------------------------

#: ``(length, slide)``: whole (8/2), non-whole (5/2) and non-dyadic
#: (0.3/0.1, 0.7/0.3) ratios, sliding and tumbling.
PANE_SHAPES = [(8.0, 2.0), (5.0, 2.0), (4.0, 4.0), (0.3, 0.1), (0.7, 0.3), (0.1, 0.1), (0.3, 0.3)]


def nudge(t: float, ulps: int) -> float:
    """*t* moved by *ulps* units in the last place."""
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.inf if ulps > 0 else -math.inf)
    return t


@st.composite
def pane_streams(draw):
    """``(spec args, lateness, batches of (t_start, t_end), restore_at)``.

    Near 1e15 a float is a multiple of 0.125 and ``floor`` of the
    assignment quotient lands one slide off; slides below 0.25 would
    make distinct windows share a start there, so that magnitude draws
    only the wider shapes.  Instants sit anywhere, or on a window bound
    give or take two ulps (the one-ulp gaps between tumbling windows
    with inexact bounds); intervals span up to four slides.  Each
    batch scatters around an advancing front, so arrivals are out of
    order and some are late.
    """
    base = draw(st.sampled_from([0.0, -3.7, 1e15]))
    shapes = [s for s in PANE_SHAPES if base < 1e15 or s[1] >= 0.25]
    length, slide = draw(st.sampled_from(shapes))
    origin = draw(st.sampled_from([0.0, 0.05, -1.3]))
    spec = WindowSpec(length, slide, origin)
    lateness = draw(st.sampled_from([0.0, 0.0, slide, length]))
    batches = []
    for b in range(draw(st.integers(1, 8))):
        events = []
        for _ in range(draw(st.integers(0, 8))):
            t = base + draw(st.integers(b * 6 - 12, b * 6 + 12)) * slide / 3
            kind = draw(st.sampled_from(["instant", "bound", "interval"]))
            if kind == "bound":
                windows = spec.assign(t)
                t = nudge(draw(st.sampled_from([windows[0].end, windows[-1].start])),
                          draw(st.integers(-2, 2)))
            span = draw(st.integers(1, 8)) * slide / 2 if kind == "interval" else 0.0
            events.append((t, t + span))
        batches.append(events)
    restore_at = draw(st.integers(0, len(batches)))
    return (length, slide, origin), lateness, batches, restore_at


@given(stream=pane_streams())
@settings(max_examples=300, deadline=None)
def test_panes_equal_assign(stream):
    """Every fired window holds, in arrival order, exactly the records
    whose :meth:`WindowSpec.assign` names it, across a snapshot ->
    restore into a fresh state (and a fresh spec) mid-stream."""
    shape, lateness, batches, restore_at = stream

    def fresh():
        return KeyedWindowState(WindowSpec(*shape), KeyedStateStore(None), lateness)

    def drain(state):
        for window in state.ready_windows():
            values = [value for _st, value in state.window_records(window)]
            # Every record listed in the window is stored with a span in it.
            spans = [state.store.get(rid)[2:] for _key, rids in state.panes_of(window) for rid in rids]
            assert all(window.intersects_span(*span) for span in spans)
            got.append((window, values))
            state.close_window(window)

    numbered = iter(range(10_000))
    batches = [[(next(numbered), t_start, t_end) for t_start, t_end in b] for b in batches]
    state, got = fresh(), []
    for b, events in enumerate(batches):
        if b == restore_at:
            twin = fresh()
            twin.restore(pickle.loads(pickle.dumps(state.snapshot())))
            state = twin
        rows = [
            (STObject("POINT (1 1)", t_start, None if t_end == t_start else t_end), value)
            for value, t_start, t_end in events
        ]
        state.add_batch(rows, batch_time=0.0)
        drain(state)
    state.watermark = math.inf
    drain(state)

    want, late_records, late_window_drops = model(batches, WindowSpec(*shape).assign, lateness)
    assert got == want
    assert (state.late_dropped, state.late_window_drops) == (late_records, late_window_drops)
    assert state.store.size == 0 and state.open_windows == 0

"""Event-time window arithmetic and watermark state.

WindowSpec assignment is pure arithmetic, so these tests enumerate the
paper's temporal cases directly: instants in tumbling and sliding
windows, interval events spanning several windows (eq. (1) intersection
semantics), origin offsets, and the boundary conventions of the
half-open ``[start, end)`` window.  The window state adds the
watermark: lateness, out-of-order absorption, late-drop accounting and
shutdown flush -- checked on the one implementation there is,
``KeyedWindowState`` over the one-cell store ``window()`` builds, driven
the way ``StateConsumer.fire`` / ``flush`` drive it.
"""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace

import pytest

from repro.core.stobject import STObject
from repro.streaming import state as state_module
from repro.streaming.state import KeyedStateStore, KeyedWindowState
from repro.streaming.window import Window, WindowSpec, event_span


class CountingSpec(WindowSpec):
    """A spec that counts its real assignment work."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.calls = 0

    def assign(self, t_start, t_end=None):
        self.calls += 1
        return super().assign(t_start, t_end)


class TestWindow:
    def test_half_open_boundaries(self):
        w = Window(0.0, 10.0)
        assert w.contains_time(0.0)
        assert w.contains_time(9.999)
        assert not w.contains_time(10.0)
        assert w.length == 10.0

    def test_span_intersection(self):
        w = Window(10.0, 20.0)
        assert w.intersects_span(5.0, 10.0)  # touches start (closed span)
        assert w.intersects_span(19.9, 25.0)
        assert not w.intersects_span(20.0, 30.0)  # starts at open end
        assert not w.intersects_span(0.0, 9.0)

    def test_ordering(self):
        assert Window(0.0, 10.0) < Window(10.0, 20.0)


class TestWindowSpec:
    def test_tumbling_instant_hits_one_window(self):
        spec = WindowSpec(10.0)
        assert spec.is_tumbling
        assert spec.assign(3.0) == [Window(0.0, 10.0)]
        assert spec.assign(10.0) == [Window(10.0, 20.0)]
        assert spec.assign(-1.0) == [Window(-10.0, 0.0)]

    def test_sliding_instant_hits_length_over_slide_windows(self):
        spec = WindowSpec(10.0, slide=5.0)
        assert spec.assign(7.0) == [Window(0.0, 10.0), Window(5.0, 15.0)]

    def test_interval_spans_every_overlapping_window(self):
        spec = WindowSpec(10.0)
        # A "concert" lasting from t=8 to t=25 intersects three windows.
        assert spec.assign(8.0, 25.0) == [
            Window(0.0, 10.0),
            Window(10.0, 20.0),
            Window(20.0, 30.0),
        ]

    def test_origin_offsets_window_grid(self):
        spec = WindowSpec(10.0, origin=3.0)
        assert spec.assign(3.0) == [Window(3.0, 13.0)]
        assert spec.assign(2.9) == [Window(-7.0, 3.0)]

    def test_assignment_never_empty(self):
        for spec in (WindowSpec(10.0), WindowSpec(10.0, 2.5), WindowSpec(7.0, 3.0)):
            for t in (-13.7, 0.0, 0.1, 5.0, 123.456):
                windows = spec.assign(t)
                assert windows, (spec, t)
                assert all(w.contains_time(t) for w in windows)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WindowSpec(0.0)
        with pytest.raises(ValueError):
            WindowSpec(10.0, slide=0.0)
        with pytest.raises(ValueError):
            WindowSpec(10.0, slide=11.0)  # gapped windows drop records
        with pytest.raises(ValueError):
            WindowSpec(10.0).assign(5.0, 4.0)

    def test_pane_serves_instants_sharing_the_last_instants_windows(self):
        spec, plain = CountingSpec(5.0, 2.0), WindowSpec(5.0, 2.0)
        times = [i * 0.25 for i in range(-40, 80)] + [3.9, 4.0, 4.1, 5.0, 6.0]
        for t in times:
            assert list(spec.pane(t)) == plain.assign(t)
            assert list(spec.pane(t, t)) == plain.assign(t, t)
        # One assignment per change of pane, never one per instant.
        assert spec.calls < len(times) / 2
        calls = spec.calls
        assert spec.pane(4.5, 6.0) == plain.assign(4.5, 6.0)  # intervals always assign
        assert spec.calls == calls + 1


class TestEventSpan:
    def test_instant_interval_and_untimed(self):
        assert event_span(STObject("POINT (0 0)", 5.0), 99.0) == (5.0, 5.0)
        assert event_span(STObject("POINT (0 0)", 5.0, 8.0), 99.0) == (5.0, 8.0)
        assert event_span(STObject("POINT (0 0)"), 99.0) == (99.0, 99.0)


def _rec(t: float, value, t_end: float | None = None):
    st = STObject("POINT (0 0)", t) if t_end is None else STObject("POINT (0 0)", t, t_end)
    return (st, value)


def window_state(spec: WindowSpec, lateness: float = 0.0) -> KeyedWindowState:
    """The window state exactly as ``window()`` configures it."""
    store = KeyedStateStore(None)
    return KeyedWindowState(spec, store, lateness)


def advance(state: KeyedWindowState):
    """Close every ready window: ``[(window, records)]`` as outputs see them."""
    out = []
    for window in state.ready_windows():
        out.append((window, state.window_records(window)))
        state.close_window(window)
    return out


def flush(state: KeyedWindowState):
    """Stream shutdown: the watermark jumps to +inf, everything closes."""
    state.watermark = math.inf
    return advance(state)


class TestWindowState:
    def test_watermark_closes_passed_windows(self):
        state = window_state(WindowSpec(10.0))
        state.add_batch([_rec(1.0, "a"), _rec(2.0, "b")], batch_time=0.0)
        assert advance(state) == []  # watermark at 2.0 < window end
        state.add_batch([_rec(11.0, "c")], batch_time=0.0)
        closed = advance(state)
        assert [w for w, _ in closed] == [Window(0.0, 10.0)]
        assert [v for _, v in closed[0][1]] == ["a", "b"]

    def test_lateness_delays_closing_and_absorbs_stragglers(self):
        state = window_state(WindowSpec(10.0), lateness=5.0)
        state.add_batch([_rec(1.0, "a"), _rec(12.0, "b")], batch_time=0.0)
        # Watermark is 12 - 5 = 7: window [0, 10) is still open.
        assert advance(state) == []
        state.add_batch([_rec(3.0, "late-but-allowed")], batch_time=0.0)
        state.add_batch([_rec(16.0, "c")], batch_time=0.0)
        closed = advance(state)
        assert [w for w, _ in closed] == [Window(0.0, 10.0)]
        assert [v for _, v in closed[0][1]] == ["a", "late-but-allowed"]
        assert state.late_dropped == 0

    def test_late_records_are_counted_not_silently_lost(self):
        state = window_state(WindowSpec(10.0))
        state.add_batch([_rec(1.0, "a"), _rec(25.0, "b")], batch_time=0.0)
        advance(state)  # closes [0,10) and [10,20) would not have fired (empty)
        state.add_batch([_rec(2.0, "too-late")], batch_time=0.0)
        assert state.late_dropped == 1

    def test_interval_record_lands_in_every_window(self):
        state = window_state(WindowSpec(10.0))
        state.add_batch([_rec(5.0, "span", t_end=15.0)], batch_time=0.0)
        state.add_batch([_rec(31.0, "tick")], batch_time=0.0)
        closed = dict(advance(state))
        assert [v for _, v in closed[Window(0.0, 10.0)]] == ["span"]
        assert [v for _, v in closed[Window(10.0, 20.0)]] == ["span"]

    def test_untimed_records_use_batch_time(self):
        state = window_state(WindowSpec(10.0))
        state.add_batch([(STObject("POINT (0 0)"), "x")], batch_time=4.0)
        state.add_batch([_rec(20.0, "tick")], batch_time=0.0)
        closed = advance(state)
        assert [w for w, _ in closed] == [Window(0.0, 10.0)]

    def test_flush_closes_everything_ascending(self):
        state = window_state(WindowSpec(10.0))
        state.add_batch([_rec(25.0, "c"), _rec(1.0, "a"), _rec(14.0, "b")], batch_time=0.0)
        flushed = flush(state)
        assert [w for w, _ in flushed] == [
            Window(0.0, 10.0),
            Window(10.0, 20.0),
            Window(20.0, 30.0),
        ]
        assert state.open_windows == 0

    def test_advance_returns_ascending_windows(self):
        state = window_state(WindowSpec(10.0))
        state.add_batch([_rec(15.0, "b"), _rec(1.0, "a")], batch_time=0.0)
        state.add_batch([_rec(40.0, "d")], batch_time=0.0)
        closed = advance(state)
        assert [w for w, _ in closed] == [Window(0.0, 10.0), Window(10.0, 20.0)]

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            window_state(WindowSpec(10.0), lateness=-1.0)

    def test_watermark_monotone_under_out_of_order_batches(self):
        state = window_state(WindowSpec(10.0))
        state.add_batch([_rec(12.0, "b")], batch_time=0.0)
        first = state.watermark
        state.add_batch([_rec(3.0, "a")], batch_time=0.0)
        assert state.watermark == first  # older data never regresses it
        assert math.isfinite(state.watermark)

    def test_instant_in_a_one_ulp_gap_between_windows_is_delivered(self):
        # 6 * 0.1 > 0.6: no window's float bounds contain the instant
        # 0.6, and assign places it in the nearest one.  It must reach
        # that window's outputs, stored with a span inside the window.
        state = window_state(WindowSpec(0.1))
        assert not any(w.contains_time(0.6) for w in state.spec.assign(0.6))
        state.add_batch([_rec(0.6, "edge")], batch_time=0.0)
        window = Window(0.5, 0.6)
        ((_key, (rid,)),) = state.panes_of(window)
        _st, value, t_start, t_end = state.store.get(rid)
        assert value == "edge" and window.intersects_span(t_start, t_end)
        assert [(w, [v for _st, v in rows]) for w, rows in flush(state)] == [
            (window, ["edge"])
        ]
        assert state.late_dropped == 0 and state.store.size == 0

    def test_each_record_is_assigned_listed_and_evicted_once(self, monkeypatch):
        # 2,000 instants in 4x-overlapping sliding windows, 100 a batch.
        spec = CountingSpec(8.0, 2.0)
        state = window_state(spec)
        times = [i * 0.01 for i in range(2000)]
        panes = {tuple(WindowSpec(8.0, 2.0).assign(t)) for t in times}

        def per_record_heap(*_args):
            raise AssertionError("the window state keeps no per-record heap")

        monkeypatch.setattr(state_module, "heapq", SimpleNamespace(
            heappush=per_record_heap, heappop=per_record_heap,
            heapify=per_record_heap, merge=heapq.merge,
        ))
        evicted = []
        for b in range(0, 2000, 100):
            state.add_batch([_rec(t, i) for i, t in enumerate(times[b:b + 100], b)], 0.0)
            for window in state.ready_windows():
                evicted += state.close_window(window)
        state.watermark = math.inf
        for window in state.ready_windows():
            evicted += state.close_window(window)
        assert 0 < spec.calls <= len(panes) < 20
        # Each pane leaves once, and with it each of its records.
        assert len(evicted) == len(set(evicted))
        assert state.store.removes == state.store.inserts == 2000 and state.store.size == 0

    def test_restore_rederives_membership_and_eviction(self):
        state = window_state(WindowSpec(10.0, 5.0), lateness=5.0)
        state.add_batch(
            [_rec(1.0, "a"), _rec(7.0, "b", t_end=12.0), _rec(21.0, "c")], batch_time=0.0
        )
        advance(state)  # watermark 16 closes up to [5, 15): "a" has left
        state.add_batch([_rec(11.0, "partly-late")], batch_time=0.0)
        twin = window_state(WindowSpec(10.0, 5.0), lateness=5.0)
        twin.restore(state.snapshot())
        assert twin.late_window_drops == state.late_window_drops == 1
        assert [(w, [v for _st, v in rows]) for w, rows in flush(twin)] == [
            (w, [v for _st, v in rows]) for w, rows in flush(state)
        ]
        assert twin.store.size == state.store.size == 0

"""Regression gate for the streaming ingest-loss bugs.

Three bugs lived at the ingest edge, all of the lose-data-quietly kind:

- :meth:`DirectorySource.poll` marked files *seen before parsing*, so a
  transient read failure (partially-written file, storage hiccup)
  blacklisted the file forever -- and because a failed poll delivers
  nothing, records from files parsed earlier in the same poll were lost
  with it;
- :meth:`DirectorySource.close` cleared the seen-file set, so a stopped
  and restarted stream re-ingested the whole directory as duplicates;
- the window state's ``add_batch`` only counted a late record when *every*
  window it belonged to had fired, silently eating the closed-window
  contributions of partially-late records.

A fourth, found when ``window()`` moved onto the keyed store: an
instant that no window's float bounds contain (``6 * 0.1 > 0.6``) is
placed by ``WindowSpec.assign`` in the nearest window, but the store's
span view did not agree, so ``continuous()`` emitted that window
without the record.

Each test here fails against the pre-fix behaviour.  The window
assignment arithmetic itself is pinned separately by a property test
against brute-force enumeration, including the float-boundary cases
the closed-form floor division gets wrong.
"""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stobject import STObject
from repro.io.readers import EventParseError
from repro.spark.context import SparkContext
from repro.streaming import (
    DirectorySource,
    StreamingContext,
    Window,
    WindowSpec,
)
from repro.streaming.state import KeyedStateStore, KeyedWindowState
from repro.geometry.envelope import Envelope


def write_events(path, rows):
    with open(path, "w") as fh:
        for event_id, t, x in rows:
            fh.write(f"{event_id};cat;{t};POINT ({x} {x})\n")


class TestDirectoryPollAtomicity:
    def test_transient_read_failure_loses_nothing(self, tmp_path):
        """A poll that fails mid-directory delivers the records later.

        ``a.txt`` parses fine; ``b.txt`` is truncated mid-write.  The
        poll raises -- and before the fix it had already marked both
        files seen, so ``a.txt``'s parsed records and ``b.txt``'s
        repaired ones were never delivered by any later poll.
        """
        write_events(tmp_path / "a.txt", [(1, 1.0, 5.0), (2, 2.0, 6.0)])
        (tmp_path / "b.txt").write_text("3;cat;3.0\n")  # truncated line
        source = DirectorySource(str(tmp_path))

        with pytest.raises(EventParseError):
            source.poll()
        # Nothing was committed: the failed poll left no seen marks.
        assert source._seen == set()

        write_events(tmp_path / "b.txt", [(3, 3.0, 7.0)])
        got = sorted(value for _st, value in source.poll())
        assert got == [(1, "cat"), (2, "cat"), (3, "cat")]
        assert source.poll() == []  # and exactly once

    def test_failed_poll_surfaces_in_stream_metrics(self, tmp_path):
        write_events(tmp_path / "a.txt", [(1, 1.0, 5.0)])
        (tmp_path / "b.txt").write_text("garbage\n")
        with SparkContext(
            "ingest-bugs", parallelism=2, executor="sequential", retry_backoff=0.0
        ) as sc:
            ssc = StreamingContext(sc)
            stream = ssc.stream(DirectorySource(str(tmp_path)))
            sink = stream.count_batches()
            ssc.run_batch(batch_time=0.0)  # poll fails, tick reads empty
            write_events(tmp_path / "b.txt", [(2, 2.0, 6.0)])
            ssc.run_batch(batch_time=0.0)  # repaired: both files arrive
            ssc.stop()
        assert ssc.metrics.poll_failures == 1
        assert ssc.metrics.records_ingested == 2
        assert sink.results() == [(0, 0), (1, 2)]

    def test_stop_and_restart_does_not_reingest(self, tmp_path):
        write_events(tmp_path / "a.txt", [(1, 1.0, 5.0), (2, 2.0, 6.0)])
        source = DirectorySource(str(tmp_path))
        assert len(source.poll()) == 2
        source.close()
        # A restarted stream over the same directory sees nothing new...
        assert source.poll() == []
        write_events(tmp_path / "b.txt", [(3, 3.0, 7.0)])
        assert [v for _st, v in source.poll()] == [(3, "cat")]
        # ...until an explicit reset asks for everything again.
        source.reset()
        assert len(source.poll()) == 3


class TestPartialLatenessAccounting:
    def batches(self):
        def rec(i, t):
            return (STObject(f"POINT ({i} {i})", t), i)

        # Batch 0 advances the watermark to 12: windows [-5,5) and
        # [0,10) fire, closed horizon 10.  Batch 1's t=7 record spans
        # [0,10) (already fired -> one window drop) and [5,15) (still
        # open -> accepted); its t=1 record's windows have both fired
        # (fully late -> dropped, two more window drops).
        return [[rec(0, 2.0), rec(1, 12.0)], [rec(2, 7.0), rec(3, 1.0)]]

    def expected_counts(self, state):
        assert state.late_dropped == 1
        assert state.late_window_drops == 3

    @pytest.mark.parametrize(
        "universe", [None, Envelope(0.0, 0.0, 10.0, 10.0)], ids=["window-store", "continuous-store"]
    )
    def test_window_state_counts_partial_drops(self, universe):
        store = KeyedStateStore(universe)
        state = KeyedWindowState(WindowSpec(10.0, 5.0), store)
        for i, rows in enumerate(self.batches()):
            state.add_batch(rows, float(i))
            for window in state.ready_windows():
                state.close_window(window)
        self.expected_counts(state)
        # The partially-late record still landed in its open window.
        got = sorted(v for _st, v in state.window_records(Window(5.0, 15.0)))
        assert got == [1, 2]

    @pytest.mark.parametrize("path", ["window", "continuous"])
    def test_counters_flow_into_stream_metrics(self, path):
        with SparkContext(
            "lateness", parallelism=2, executor="sequential", retry_backoff=0.0
        ) as sc:
            ssc = StreamingContext(sc)
            source, events = ssc.queue_stream(self.batches())
            if path == "window":
                events.window(length=10.0, slide=5.0).count_windows()
            else:
                events.continuous(length=10.0, slide=5.0).range(
                    STObject("POLYGON ((0 0, 20 0, 20 20, 0 20, 0 0))")
                )
            ssc.run_batches(2, batch_times=[0.0, 1.0])
            ssc.stop()
        assert ssc.metrics.late_records_dropped == 1
        assert ssc.metrics.late_window_drops == 3
        snapshot = ssc.metrics.snapshot()
        assert snapshot["late_records_dropped"] == 1
        assert snapshot["late_window_drops"] == 3


class TestInstantBetweenWindowBounds:
    @pytest.mark.parametrize("path", ["window", "continuous"])
    def test_record_reaches_the_window_it_was_assigned(self, path):
        edge = (STObject("POINT (1 1)", 0.6), "edge")
        with SparkContext("ulp", parallelism=2, executor="sequential") as sc:
            ssc = StreamingContext(sc)
            _source, events = ssc.queue_stream([[edge]])
            if path == "window":
                sink = events.window(length=0.1).collect_windows()
            else:
                sink = events.continuous(length=0.1).range(
                    STObject("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")
                )
            ssc.run_batches(1, batch_times=[0.0])
            ssc.stop()
        assert sink.results() == [(Window(0.5, 0.6), [edge])]
        assert ssc.metrics.late_records_dropped == 0


def brute_force_assign(spec: WindowSpec, t_start: float, t_end: float):
    """Window assignment by generous enumeration + exact filtering.

    Enumerates k far beyond any float error the closed form can make
    and keeps exactly the windows the span intersects -- the oracle
    ``WindowSpec.assign`` must match whenever this is non-empty.
    """
    first = math.floor((t_start - spec.origin - spec.length) / spec.slide) - 8
    last = math.floor((t_end - spec.origin) / spec.slide) + 8
    out = []
    for k in range(first, last + 1):
        start = spec.origin + k * spec.slide
        window = Window(start, start + spec.length)
        if window.intersects_span(t_start, t_end):
            out.append(window)
    return out


class TestWindowAssignProperty:
    @given(
        length=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        slide_frac=st.floats(min_value=0.05, max_value=1.0),
        origin=st.floats(min_value=-1e9, max_value=1e9),
        t=st.floats(min_value=-1e9, max_value=1e9),
        span_slides=st.floats(min_value=0.0, max_value=25.0),
        boundary_k=st.one_of(st.none(), st.integers(min_value=-1000, max_value=1000)),
    )
    @settings(max_examples=200)
    def test_assign_matches_brute_force(
        self, length, slide_frac, origin, t, span_slides, boundary_k
    ):
        spec = WindowSpec(length, max(length * slide_frac, 1e-4), origin)
        if boundary_k is not None:
            # Land t exactly on a window boundary -- the half-open edge
            # where the floor division is most likely to sit one off.
            t = origin + boundary_k * spec.slide
        # Span measured in slides keeps the enumeration bounded while
        # still covering instants, sub-slide spans and many-window spans.
        t_end = t + span_slides * spec.slide
        got = spec.assign(t, t_end)
        oracle = brute_force_assign(spec, t, t_end)
        if oracle:
            assert got == oracle
        else:
            # Pathological float gap between consecutive windows: the
            # documented contract is a non-empty nearest-window answer.
            assert len(got) == 1
        assert got == sorted(got)
        assert len(set(got)) == len(got)

    @given(
        exponent=st.integers(min_value=6, max_value=12),
        k=st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=60)
    def test_large_magnitude_instants_never_unassigned(self, exponent, k):
        # Large times with small slides stress the division's precision.
        spec = WindowSpec(10.0, 2.5, origin=0.0)
        t = float(10**exponent) + k * 2.5
        got = spec.assign(t)
        assert got, f"instant {t} fell between windows"
        assert got == brute_force_assign(spec, t, t) or len(got) == 1

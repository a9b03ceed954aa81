"""The durable per-window sink: write format, commit markers, dedup.

The recovery kill matrix (test_recovery.py) proves the sink absorbs
re-delivered windows end-to-end; this suite pins the mechanics in
isolation -- target naming, the event format's round-trip, the
existing-target skip path, and that orphaned ``._tmp`` staging files
from a crashed write are invisible and get overwritten.
"""

from __future__ import annotations

import os

import pytest

from repro.core.stobject import STObject
from repro.io.readers import parse_event_line
from repro.spark.context import SparkContext
from repro.streaming import EventFileSink
from repro.streaming.window import Window


@pytest.fixture
def sc():
    with SparkContext("sinks", parallelism=2, executor="sequential") as context:
        yield context


def window_rdd(sc, rows):
    return sc.parallelize(rows, 2)


def events(n, t=1.0):
    return [(STObject(f"POINT ({i} {i})", t), (i, "taxi")) for i in range(n)]


WINDOW = Window(0.0, 4.0)


class TestEventFileSink:
    def test_writes_the_flat_event_schema(self, tmp_path, sc):
        sink = EventFileSink(str(tmp_path))
        sink(WINDOW, window_rdd(sc, events(3)))
        assert sink.committed == 1
        target = sink.target(WINDOW)
        assert os.path.basename(target) == "window-0.0-4.0.events"
        rows = sorted(
            parse_event_line(line) for line in open(target).read().splitlines()
        )
        assert [r[0] for r in rows] == [0, 1, 2]
        assert {r[1] for r in rows} == {"taxi"}

    def test_unpaired_values_become_ids_and_untimed_take_window_start(
        self, tmp_path, sc
    ):
        sink = EventFileSink(str(tmp_path))
        rows = [(STObject("POINT (1 2)"), "lone")]
        sink(WINDOW, window_rdd(sc, rows))
        line = open(sink.target(WINDOW)).read().strip()
        event_id, category, time, wkt = line.split(";")
        assert (event_id, category) == ("lone", "")
        assert float(time) == WINDOW.start

    def test_redelivery_skips_committed_target(self, tmp_path, sc):
        sink = EventFileSink(str(tmp_path))
        sink(WINDOW, window_rdd(sc, events(3)))
        first = open(sink.target(WINDOW)).read()
        # A recovered run re-delivers the same window, possibly with the
        # same records in a different partition order: no rewrite.
        sink(WINDOW, window_rdd(sc, list(reversed(events(3)))))
        assert (sink.committed, sink.skipped) == (1, 1)
        assert open(sink.target(WINDOW)).read() == first

    def test_tmp_orphan_from_crashed_write_is_overwritten(self, tmp_path, sc):
        sink = EventFileSink(str(tmp_path))
        orphan = sink.target(WINDOW) + "._tmp"
        with open(orphan, "w") as fh:
            fh.write("half-written garbage")
        # The orphan is not a commit marker: delivery proceeds, reusing
        # and then atomically replacing the staging name.
        sink(WINDOW, window_rdd(sc, events(2)))
        assert sink.committed == 1
        assert not os.path.exists(orphan)
        assert len(open(sink.target(WINDOW)).read().splitlines()) == 2

    def test_distinct_windows_get_distinct_targets(self, tmp_path, sc):
        sink = EventFileSink(str(tmp_path))
        sink(Window(0.0, 4.0), window_rdd(sc, events(2)))
        sink(Window(2.0, 6.0), window_rdd(sc, events(3)))
        assert sink.committed == 2
        assert len(os.listdir(tmp_path)) == 2


class TestWindowNaming:
    def test_epoch_scale_adjacent_windows_do_not_collide(self, tmp_path, sc):
        # Regression: a ':g' (6 significant digit) rendering collapsed
        # adjacent wall-clock windows onto one file name, so the
        # commit-marker dedup silently dropped every window after the
        # first.  repr round-trips the bounds exactly.
        sink = EventFileSink(str(tmp_path))
        w1 = Window(1754400000.0, 1754400008.0)
        w2 = Window(1754400008.0, 1754400016.0)
        assert sink.window_key(w1) != sink.window_key(w2)
        sink(w1, window_rdd(sc, events(2, t=1754400001.0)))
        sink(w2, window_rdd(sc, events(3, t=1754400009.0)))
        assert (sink.committed, sink.skipped) == (2, 0)
        assert len(open(sink.target(w1)).read().splitlines()) == 2
        assert len(open(sink.target(w2)).read().splitlines()) == 3

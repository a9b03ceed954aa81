"""DStream chains, sources, sinks and the StreamingContext drive modes.

The synchronous ``run_batch`` drive makes every scenario deterministic:
what a test pushes as batch *n* is what batch *n* processes.  The
threaded drive is covered separately with timing-tolerant assertions
(counts and flags, never exact schedules).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.stobject import STObject
from repro.streaming import (
    GeneratorSource,
    QueueSource,
    StreamingContext,
    StreamingError,
    Window,
)


def rec(x, y, t, value):
    return (STObject(f"POINT ({x} {y})", t), value)


@pytest.fixture
def ssc(sc):
    context = StreamingContext(sc, batch_interval=0.02)
    yield context
    context.stop()


class TestTransformations:
    def test_map_filter_chain(self, ssc):
        source, events = ssc.queue_stream()
        doubled = (
            events.map(lambda kv: (kv[0], kv[1] * 2))
            .filter(lambda kv: kv[1] >= 4)
            .collect_batches()
        )
        source.push([rec(0, 0, 1.0, 1), rec(1, 1, 2.0, 2), rec(2, 2, 3.0, 3)])
        ssc.run_batch(batch_time=0.0)
        [(batch_id, rows)] = doubled.results()
        assert batch_id == 0
        assert sorted(v for _st, v in rows) == [4, 6]

    def test_flat_map_and_transform(self, ssc):
        source, events = ssc.queue_stream()
        sink = (
            events.flat_map(lambda kv: [kv, kv])
            .transform(lambda rdd: rdd.map(lambda kv: kv[1]))
            .collect_batches()
        )
        source.push([rec(0, 0, 1.0, "a")])
        ssc.run_batch(batch_time=0.0)
        assert sink.values() == [["a", "a"]]

    def test_spatial_filters_per_batch(self, ssc):
        source, events = ssc.queue_stream()
        inside = events.intersects(
            "POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))"
        ).count_batches()
        near = events.within_distance("POINT (0 0)", 2.0).count_batches()
        source.push([rec(1, 1, 1.0, "in"), rec(9, 9, 1.0, "out")])
        ssc.run_batch(batch_time=0.0)
        assert inside.values() == [1]
        assert near.values() == [1]

    def test_each_batch_is_independent(self, ssc):
        source, events = ssc.queue_stream()
        counts = events.count_batches()
        source.push([rec(0, 0, 1.0, "a"), rec(1, 1, 1.0, "b")])
        source.push([rec(2, 2, 2.0, "c")])
        ssc.run_batches(2, batch_times=[0.0, 0.0])
        assert counts.results() == [(0, 2), (1, 1)]

    def test_chain_without_output_is_never_computed(self, ssc):
        source, events = ssc.queue_stream()
        boom = events.map(lambda kv: 1 / 0)  # noqa: F841 -- defined, no output
        counted = events.count_batches()
        source.push([rec(0, 0, 1.0, "a")])
        assert ssc.run_batch(batch_time=0.0)
        assert counted.values() == [1]


class TestSources:
    def test_queue_source_one_batch_per_poll(self):
        source = QueueSource([[("a", 1)], [("b", 2)]])
        assert source.pending_batches == 2
        assert source.poll() == [("a", 1)]
        assert source.poll() == [("b", 2)]
        assert source.poll() == []
        source.push([("c", 3)])
        assert source.poll() == [("c", 3)]
        source.close()
        with pytest.raises(RuntimeError):
            source.push([("d", 4)])

    def test_directory_source_ingests_new_event_files(self, ssc, tmp_path):
        stream = ssc.directory_stream(str(tmp_path))
        sink = stream.collect_batches()
        (tmp_path / "a.events").write_text(
            "1;accident;5.0;POINT (1 1)\n2;concert;6.0;POINT (2 2)\n"
        )
        ssc.run_batch(batch_time=0.0)
        (tmp_path / "b.events").write_text("3;protest;7.0;POINT (3 3)\n")
        ssc.run_batch(batch_time=0.0)
        ssc.run_batch(batch_time=0.0)  # nothing new
        batches = sink.values()
        assert [len(b) for b in batches] == [2, 1, 0]
        (st, (event_id, category)) = batches[0][0]
        assert (event_id, category) == (1, "accident")
        assert st.time.start == 5.0

    def test_directory_source_geojson(self, ssc, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [1.0, 2.0]},
                    "properties": {"name": "site"},
                }
            ],
        }
        (tmp_path / "x.geojson").write_text(json.dumps(doc))
        stream = ssc.directory_stream(str(tmp_path), format="geojson")
        sink = stream.collect_batches()
        ssc.run_batch(batch_time=0.0)
        [(_, rows)] = sink.results()
        assert len(rows) == 1
        assert rows[0][1] == {"name": "site"}

    @staticmethod
    def _geojson_with_one_bad_feature(tmp_path):
        point = {"type": "Point", "coordinates": [1.0, 2.0]}
        features = [
            {"type": "Feature", "geometry": point, "properties": {"name": "good"}},
            {"type": "Feature", "geometry": {**point, "type": "Pointy"}, "properties": {}},
            {"type": "Feature", "geometry": point, "properties": {"repro:time_start": "x"}},
        ]
        doc = {"type": "FeatureCollection", "features": features}
        (tmp_path / "x.geojson").write_text(json.dumps(doc))

    def test_directory_source_geojson_skips_exactly_the_bad_features(self, tmp_path):
        from repro.streaming import DirectorySource

        self._geojson_with_one_bad_feature(tmp_path)
        source = DirectorySource(str(tmp_path), format="geojson", on_error="skip")
        [(st, properties)] = source.poll()
        assert (st.geo.wkt(), properties) == ("POINT (1 2)", {"name": "good"})
        assert source.last_poll_delta() == ["x.geojson"]

    def test_directory_source_geojson_raise_still_raises(self, tmp_path):
        from repro.io.geojson import GeoJSONError
        from repro.streaming import DirectorySource

        self._geojson_with_one_bad_feature(tmp_path)
        source = DirectorySource(str(tmp_path), format="geojson")
        with pytest.raises(GeoJSONError, match="Pointy"):
            source.poll()
        assert source.last_poll_delta() is None

    @pytest.mark.parametrize("text", ['{"type": "FeatureCollection", "feat', "[]"])
    def test_directory_source_geojson_skip_keeps_an_unreadable_file(self, tmp_path, text):
        # A partial write commits nothing: the next poll reads it again.
        from repro.streaming import DirectorySource

        (tmp_path / "x.geojson").write_text(text)
        source = DirectorySource(str(tmp_path), format="geojson", on_error="skip")
        with pytest.raises(ValueError):
            source.poll()
        assert source.cursor() == []
        self._geojson_with_one_bad_feature(tmp_path)
        assert len(source.poll()) == 1

    def test_directory_source_skips_bad_rows_when_asked(self, ssc, tmp_path):
        (tmp_path / "dirty.events").write_text(
            "1;accident;5.0;POINT (1 1)\nnot-a-row\n"
        )
        stream = ssc.directory_stream(str(tmp_path), on_error="skip")
        sink = stream.count_batches()
        ssc.run_batch(batch_time=0.0)
        assert sink.values() == [1]
        assert ssc.metrics.poll_failures == 0

    def test_directory_source_skips_hostile_nesting(self, ssc, tmp_path):
        hostile = "GEOMETRYCOLLECTION (" * 600 + "POINT (0 0)" + ")" * 600
        (tmp_path / "dirty.events").write_text(
            f"1;accident;5.0;POINT (1 1)\n2;accident;6.0;{hostile}\n"
        )
        stream = ssc.directory_stream(str(tmp_path), on_error="skip")
        sink = stream.count_batches()
        ssc.run_batch(batch_time=0.0)
        assert sink.values() == [1]
        assert ssc.metrics.poll_failures == 0

    def test_directory_source_raise_surfaces_as_poll_failure(self, ssc, tmp_path):
        (tmp_path / "dirty.events").write_text("not-a-row\n")
        stream = ssc.directory_stream(str(tmp_path), on_error="raise")
        sink = stream.count_batches()
        ssc.run_batch(batch_time=0.0)
        assert ssc.metrics.poll_failures == 1
        assert sink.values() == [0]  # the tick read empty, the loop goes on

    def test_generator_source_is_deterministic(self):
        a = GeneratorSource(rate=10, seed=42)
        b = GeneratorSource(rate=10, seed=42)
        batch_a, batch_b = a.poll(), b.poll()
        assert [(st.geo.wkt(), st.time, v) for st, v in batch_a] == [
            (st.geo.wkt(), st.time, v) for st, v in batch_b
        ]

    def test_generator_event_time_advances(self):
        source = GeneratorSource(rate=4, time_step=1.0, seed=1)
        first, second = source.poll(), source.poll()
        assert max(st.time.end for st, _ in first) < min(
            st.time.start for st, _ in second
        ) + 1.0
        assert all(st.time.start >= 1.0 for st, _ in second)

    def test_generator_limit(self):
        source = GeneratorSource(rate=8, limit=10, seed=1)
        assert len(source.poll()) == 8
        assert len(source.poll()) == 2
        assert source.poll() == []

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            GeneratorSource(rate=0)
        with pytest.raises(ValueError):
            GeneratorSource(time_step=0.0)
        from repro.streaming import DirectorySource

        with pytest.raises(ValueError):
            DirectorySource(str(tmp_path), format="csv")
        with pytest.raises(ValueError):
            DirectorySource(str(tmp_path), on_error="ignore")


class TestWindowedOutputs:
    def test_tumbling_window_counts(self, ssc):
        source, events = ssc.queue_stream()
        counts = events.window(length=10.0).count_windows()
        source.push([rec(0, 0, 1.0, "a"), rec(1, 1, 9.0, "b")])
        source.push([rec(2, 2, 11.0, "c")])
        source.push([rec(3, 3, 21.0, "d")])
        ssc.run_batches(3, batch_times=[0.0, 0.0, 0.0])
        assert counts.results() == [
            (Window(0.0, 10.0), 2),
            (Window(10.0, 20.0), 1),
        ]
        assert ssc.metrics.windows_emitted == 2

    def test_stop_flushes_open_windows(self, sc):
        ssc = StreamingContext(sc)
        source, events = ssc.queue_stream()
        counts = events.window(length=10.0).count_windows()
        source.push([rec(0, 0, 1.0, "a")])
        ssc.run_batch(batch_time=0.0)
        assert counts.results() == []  # window still open
        ssc.stop()
        assert counts.results() == [(Window(0.0, 10.0), 1)]

    def test_stop_without_flush_drops_open_windows(self, sc):
        ssc = StreamingContext(sc)
        source, events = ssc.queue_stream()
        counts = events.window(length=10.0).count_windows()
        source.push([rec(0, 0, 1.0, "a")])
        ssc.run_batch(batch_time=0.0)
        ssc.stop(flush=False)
        assert counts.results() == []

    def test_sliding_windows_share_records(self, ssc):
        source, events = ssc.queue_stream()
        counts = events.window(length=10.0, slide=5.0).count_windows()
        source.push([rec(0, 0, 7.0, "a")])
        ssc.run_batch(batch_time=0.0)
        ssc.stop()
        assert counts.results() == [
            (Window(0.0, 10.0), 1),
            (Window(5.0, 15.0), 1),
        ]


class TestWindowBridge:
    def test_bridge_feeds_a_second_context(self, sc):
        """Chained pipelines: each closed window of the upstream context
        arrives as one micro-batch in the downstream one."""
        upstream = StreamingContext(sc)
        downstream = StreamingContext(sc)
        source, events = upstream.queue_stream()
        bridged = events.window(length=10.0).bridge_to(downstream)
        sink = bridged.map(lambda kv: (kv[0], kv[1].upper())).collect_batches()

        source.push([rec(0, 0, 1.0, "a"), rec(1, 1, 9.0, "b")])
        source.push([rec(2, 2, 11.0, "c")])  # closes [0, 10)
        source.push([rec(3, 3, 21.0, "d")])  # closes [10, 20)
        upstream.run_batches(3, batch_times=[0.0, 0.0, 0.0])
        assert upstream.metrics.windows_emitted == 2

        downstream.run_batches(2, batch_times=[0.0, 1.0])
        results = sink.results()
        assert [sorted(v for _st, v in rows) for _b, rows in results] == [
            ["A", "B"],
            ["C"],
        ]
        upstream.stop(flush=False)
        downstream.stop()

    def test_bridge_flush_delivers_the_tail_window(self, sc):
        upstream = StreamingContext(sc)
        downstream = StreamingContext(sc)
        source, events = upstream.queue_stream()
        bridged = events.window(length=10.0).bridge_to(downstream)
        sink = bridged.collect_batches()
        source.push([rec(0, 0, 1.0, "a")])
        upstream.run_batch(batch_time=0.0)
        assert downstream.pending_batches == 0  # window still open
        upstream.stop()  # flush fires [0, 10) into the bridge
        downstream.run_batch(batch_time=0.0)
        [(_batch_id, rows)] = sink.results()
        assert [v for _st, v in rows] == ["a"]
        downstream.stop()


class TestStreamingContextLifecycle:
    def test_validation(self, sc):
        for kwargs in (
            {"batch_interval": 0.0},
            {"max_pending_batches": 0},
            {"max_batch_failures": 0},
            {"num_slices": 0},
        ):
            with pytest.raises(ValueError):
                StreamingContext(sc, **kwargs)

    def test_stopped_context_rejects_everything(self, sc):
        ssc = StreamingContext(sc)
        ssc.stop()
        ssc.stop()  # idempotent
        with pytest.raises(StreamingError):
            ssc.run_batch()
        with pytest.raises(StreamingError):
            ssc.queue_stream()

    def test_stop_leaves_spark_context_usable(self, sc):
        ssc = StreamingContext(sc)
        ssc.queue_stream()
        ssc.stop()
        assert sc.parallelize(range(10), 2).count() == 10

    def test_context_manager(self, sc):
        with StreamingContext(sc) as ssc:
            source, events = ssc.queue_stream()
            counts = events.window(length=10.0).count_windows()
            source.push([rec(0, 0, 1.0, "a")])
            ssc.run_batch(batch_time=0.0)
        assert counts.results() == [(Window(0.0, 10.0), 1)]

    def test_metrics_snapshot(self, ssc):
        source, events = ssc.queue_stream()
        events.count_batches()
        source.push([rec(0, 0, 1.0, "a"), rec(1, 1, 1.0, "b")])
        ssc.run_batch(batch_time=0.0)
        snap = ssc.metrics.snapshot()
        assert snap["batches_run"] == 1
        assert snap["records_ingested"] == 2
        assert snap["polls"] == 1

    def test_batch_latencies_recorded(self, ssc):
        source, events = ssc.queue_stream()
        events.count_batches()
        source.push([rec(0, 0, 1.0, "a")])
        ssc.run_batch(batch_time=0.0)
        [(batch_id, records, latency, depth)] = ssc.batch_latencies
        assert (batch_id, records, depth) == (0, 1, 0)
        assert latency >= 0.0

    def test_batch_span_traced(self, sc):
        sc.enable_tracing()
        ssc = StreamingContext(sc)
        source, events = ssc.queue_stream()
        events.count_batches()
        source.push([rec(0, 0, 1.0, "a")])
        ssc.run_batch(batch_time=0.0)
        ssc.stop()
        batch_spans = [s for s in sc.tracer.root.children if s.kind == "batch"]
        assert len(batch_spans) == 1
        assert batch_spans[0].attrs["records"] == 1


class TestThreadedDrive:
    def test_start_processes_pushed_batches(self, sc):
        ssc = StreamingContext(sc, batch_interval=0.01)
        source, events = ssc.queue_stream()
        sink = events.collect_batches()
        for i in range(5):
            source.push([rec(i, i, float(i), i)])
        ssc.start()
        deadline = time.monotonic() + 5.0
        while source.pending_batches and time.monotonic() < deadline:
            time.sleep(0.01)
        ssc.stop()
        values = sorted(v for _b, rows in sink.results() for _st, v in rows)
        assert values == [0, 1, 2, 3, 4]
        assert ssc.metrics.batches_run >= 5

    def test_cannot_mix_drive_modes(self, sc):
        ssc = StreamingContext(sc, batch_interval=0.01)
        ssc.queue_stream()
        ssc.start()
        try:
            with pytest.raises(StreamingError):
                ssc.run_batch()
        finally:
            ssc.stop()

    def test_backpressure_counts_stalls(self, sc):
        ssc = StreamingContext(sc, batch_interval=0.005, max_pending_batches=1)
        source, events = ssc.queue_stream()

        def slow_sink(batch_id, rdd):
            rdd.collect()
            time.sleep(0.05)

        events.for_each_rdd(slow_sink)
        for i in range(10):
            source.push([rec(i, i, float(i), i)])
        ssc.start()
        time.sleep(0.5)
        ssc.stop()
        assert ssc.metrics.backpressure_waits >= 1

    def test_await_termination_times_out_while_running(self, sc):
        ssc = StreamingContext(sc, batch_interval=0.01)
        ssc.queue_stream()
        ssc.start()
        assert ssc.await_termination(timeout=0.05) is False
        ssc.stop()

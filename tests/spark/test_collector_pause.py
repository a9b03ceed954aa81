"""A persisted partition is built with the cyclic collector paused, and
the pause always ends in the state it found."""

import gc
import threading

import pytest

from repro.io.datagen import event_rows, uniform_points
from repro.io.readers import load_event_file, write_event_file
from repro.spark import cache
from repro.spark.context import SparkContext
from repro.spark.errors import JobAbortedError
from repro.streaming.sources import DirectorySource


@pytest.fixture
def collector_on():
    """Start with the collector on and leave it on, whatever a test did."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def seen_while_building(sc, partitions=2):
    """Materialize a persisted RDD; each partition records whether the
    collector was on while it was built."""
    seen = []

    def build(it):
        seen.append(gc.isenabled())
        return it

    rdd = sc.parallelize(range(40), partitions).map_partitions(build).persist()
    assert rdd.count() == 40
    return seen


@pytest.mark.usefixtures("collector_on")
class TestCollectorPause:
    @pytest.mark.parametrize("executor", ["sequential", "threads"])
    def test_paused_while_building_and_on_after(self, executor):
        sc = SparkContext("t", parallelism=2, executor=executor)
        try:
            assert seen_while_building(sc) == [False, False]
        finally:
            sc.stop()
        assert gc.isenabled()

    def test_unpersisted_partitions_keep_the_collector(self):
        sc = SparkContext("t", executor="sequential")
        try:
            seen = []
            sc.parallelize(range(4), 2).map_partitions(
                lambda it: seen.append(gc.isenabled()) or it
            ).count()
            assert seen == [True, True]
        finally:
            sc.stop()

    def test_a_callers_disabled_collector_stays_disabled(self):
        sc = SparkContext("t", parallelism=2, executor="threads")
        gc.disable()
        try:
            assert seen_while_building(sc) == [False, False]
            assert not gc.isenabled()
        finally:
            sc.stop()

    def test_overlapping_builds_enable_it_once_after_the_last(self, monkeypatch):
        enables = []
        real_enable = gc.enable
        monkeypatch.setattr(
            gc, "enable", lambda: (enables.append(gc.isenabled()), real_enable())
        )
        both_inside = threading.Barrier(2, timeout=10)
        first_out = threading.Event()

        def build(split, it):
            both_inside.wait()  # both partitions are being built at once
            if split == 0:
                first_out.set()
            else:
                first_out.wait(10)
                # The other build has finished; this one still holds the pause.
                assert not gc.isenabled() and enables == []
            return it

        sc = SparkContext("t", parallelism=2, executor="threads")
        try:
            rdd = sc.parallelize(range(40), 2).map_partitions_with_index(build).persist()
            assert rdd.count() == 40
        finally:
            sc.stop()
        assert enables == [False]
        assert gc.isenabled()

    def test_nested_pauses_restore_on_the_outermost_exit(self):
        with cache.collector_paused():
            with cache.collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("executor", ["sequential", "threads"])
    def test_a_failing_build_restores_it(self, executor):
        sc = SparkContext("t", parallelism=2, executor=executor, retry_backoff=0.0)

        def explode(it):
            raise RuntimeError("boom")

        try:
            rdd = sc.parallelize(range(10), 2).map_partitions(explode).persist()
            with pytest.raises(JobAbortedError):
                rdd.count()
        finally:
            sc.stop()
        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            with cache.collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_on_after_a_persisted_event_read(self, tmp_path):
        path = str(tmp_path / "events.txt")
        write_event_file(event_rows(uniform_points(200, seed=3), seed=3), path)
        sc = SparkContext("t", parallelism=2, executor="threads")
        try:
            assert load_event_file(sc, path).persist().count() == 200
        finally:
            sc.stop()
        assert gc.isenabled()


def source_over(tmp_path, lines=(), **kwargs):
    """A directory source over one event file (200 events, then *lines*)
    whose decoder records whether the collector was on for each row."""
    path = tmp_path / "events.txt"
    write_event_file(event_rows(uniform_points(200, seed=5), seed=5), str(path))
    with open(path, "a") as fh:
        fh.writelines(line + "\n" for line in lines)
    source = DirectorySource(str(tmp_path), **kwargs)
    seen = []
    decode = source._event_record
    source._event_record = lambda line: seen.append(gc.isenabled()) or decode(line)
    return source, seen


@pytest.mark.usefixtures("collector_on")
class TestDirectorySourcePause:
    def test_decodes_paused_and_turns_it_back_on(self, tmp_path):
        source, seen = source_over(tmp_path)
        assert len(source.poll()) == 200
        assert seen == [False] * 200
        assert gc.isenabled()

    def test_a_callers_disabled_collector_stays_disabled(self, tmp_path):
        source, seen = source_over(tmp_path)
        gc.disable()
        assert len(source.poll()) == 200
        assert seen == [False] * 200
        assert not gc.isenabled()

    def test_a_raised_parse_failure_restores_it(self, tmp_path):
        source, seen = source_over(tmp_path, lines=["not;an;event"], on_error="raise")
        with pytest.raises(ValueError):
            source.poll()
        assert seen == [False] * 201
        assert gc.isenabled()
        assert source.last_poll_delta() is None

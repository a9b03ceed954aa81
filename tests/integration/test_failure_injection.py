"""Failure injection: dirty inputs, corrupted storage, bad configs."""

import os
import pickle
import random

import pytest

from repro.core.spatial_rdd import IndexedSpatialRDD, spatial
from repro.core.stobject import STObject
from repro.io.datagen import event_rows, uniform_points
from repro.io.readers import EventParseError, load_event_file, write_event_file
from repro.spark.errors import JobAbortedError
from repro.spark.storage import StorageError, read_object_part


@pytest.fixture
def dirty_event_file(tmp_path):
    rows = event_rows(uniform_points(20, seed=91), seed=91)
    path = tmp_path / "dirty.csv"
    good_lines = [
        f"{i};{cat};{t!r};{wkt}" for i, cat, t, wkt in rows
    ]
    bad_lines = [
        "not;enough",                       # too few fields
        "x;cat;5.0;POINT (0 0)",            # bad id
        "1;cat;noon;POINT (0 0)",           # bad time
        "2;cat;5.0;POINT (1",               # malformed WKT
        "3;cat;5.0;POINT EMPTY",            # empty geometry
    ]
    path.write_text("\n".join(good_lines[:10] + bad_lines + good_lines[10:]) + "\n")
    return str(path)


class TestDirtyInput:
    def test_raise_mode_surfaces_first_error(self, sc, dirty_event_file):
        # A deterministic parse error exhausts the task's retry budget
        # and aborts the job; the typed abort carries the root cause.
        events = load_event_file(sc, dirty_event_file, on_error="raise")
        with pytest.raises(JobAbortedError) as excinfo:
            events.collect()
        assert isinstance(excinfo.value.cause, (EventParseError, ValueError))

    def test_skip_mode_keeps_good_rows(self, sc, dirty_event_file):
        events = load_event_file(sc, dirty_event_file, on_error="skip")
        collected = events.collect()
        assert len(collected) == 20
        assert sorted(v[0] for _k, v in collected) == list(range(20))

    def test_unknown_policy_rejected(self, sc, dirty_event_file):
        with pytest.raises(ValueError, match="on_error"):
            load_event_file(sc, dirty_event_file, on_error="ignore")

    def test_skipped_rows_do_not_break_queries(self, sc, dirty_event_file):
        events = load_event_file(sc, dirty_event_file, on_error="skip")
        query = STObject(
            "POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))", 0, 10**9
        )
        assert events.containedBy(query).count() <= 20


class TestCorruptedStorage:
    def test_truncated_part_file(self, sc, tmp_path):
        path = str(tmp_path / "data")
        sc.parallelize(list(range(100)), 4).save_as_object_file(path)
        part = os.path.join(path, "part-00002.pkl")
        with open(part, "rb") as f:
            blob = f.read()
        with open(part, "wb") as f:
            f.write(blob[: len(blob) // 2])
        with pytest.raises(JobAbortedError) as excinfo:
            sc.object_file(path).collect()
        assert isinstance(excinfo.value.cause, StorageError)
        assert "part-00002.pkl" in str(excinfo.value.cause)

    def test_missing_part_file_changes_partitioning_only(self, sc, tmp_path):
        # deleting a part is detected as missing data, not silently empty
        path = str(tmp_path / "data")
        sc.parallelize(list(range(100)), 4).save_as_object_file(path)
        os.remove(os.path.join(path, "part-00001.pkl"))
        loaded = sc.object_file(path)
        assert loaded.num_partitions == 3
        assert len(loaded.collect()) < 100

    def test_non_pickle_garbage(self, sc, tmp_path):
        # Raw pickle internals never leak: the corrupt part surfaces as
        # a StorageError naming the path, carried by the job abort.
        path = str(tmp_path / "data")
        sc.parallelize([1], 1).save_as_object_file(path)
        with open(os.path.join(path, "part-00000.pkl"), "wb") as f:
            f.write(b"this is not a pickle")
        with pytest.raises(JobAbortedError) as excinfo:
            sc.object_file(path).collect()
        assert isinstance(excinfo.value.cause, StorageError)
        assert isinstance(excinfo.value.cause.__cause__, pickle.UnpicklingError)
        assert "part-00000.pkl" in str(excinfo.value.cause)

    @pytest.mark.parametrize(
        "blob, raised",
        [
            (b"crepro.core.stobject\nNoSuchClass\n.", AttributeError),
            (b"crepro.no_such_module\nThing\n.", ModuleNotFoundError),
        ],
    )
    def test_unresolvable_name_is_typed(self, sc, tmp_path, blob, raised):
        path = str(tmp_path / "data")
        sc.parallelize([1], 1).save_as_object_file(path)
        with open(os.path.join(path, "part-00000.pkl"), "wb") as f:
            f.write(blob)
        with pytest.raises(JobAbortedError) as excinfo:
            sc.object_file(path).collect()
        assert isinstance(excinfo.value.cause, StorageError)
        assert isinstance(excinfo.value.cause.__cause__, raised)
        assert "part-00000.pkl" in str(excinfo.value.cause)

    def test_random_byte_flips_fail_typed(self, sc, tmp_path):
        # Whatever a damaged part makes the unpickler raise, the reader
        # raises one StorageError naming the part.
        path = str(tmp_path / "data")
        rows = [
            (STObject("POINT (1 2)", i), {"id": i, "name": f"n{i}"}, [i * 0.5, None])
            for i in range(4)
        ] + [STObject("POLYGON ((0 0, 1 0, 1 1, 0 0))", 1.0, 2.0)]
        sc.parallelize(rows, 1).save_as_object_file(path)
        part = os.path.join(path, "part-00000.pkl")
        with open(part, "rb") as f:
            original = f.read()
        rng = random.Random(2024)
        typed = 0
        for trial in range(300):
            damaged = bytearray(original)
            for _ in range(3):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            with open(part, "wb") as f:
                f.write(damaged)
            try:
                read_object_part(part)
            except StorageError as exc:
                assert "part-00000.pkl" in str(exc), trial
                typed += 1
        assert typed > 150

    def test_file_instead_of_directory(self, sc, tmp_path):
        path = tmp_path / "plainfile"
        path.write_text("hello")
        with pytest.raises(StorageError):
            sc.object_file(str(path)).collect()


class TestIndexPersistenceFaults:
    @pytest.fixture
    def saved_index(self, sc, tmp_path):
        objs = [STObject(p) for p in uniform_points(50, seed=92)]
        rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 2)
        indexed = spatial(rdd).index(order=4)
        path = str(tmp_path / "idx")
        indexed.save(path)
        return path

    def test_missing_meta_degrades_gracefully(self, sc, saved_index):
        os.remove(os.path.join(saved_index, "_index_meta.pkl"))
        reloaded = IndexedSpatialRDD.load(sc, saved_index)
        assert reloaded.partitioner is None  # pruning disabled, queries work
        query = STObject("POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))")
        assert reloaded.intersects(query).count() == 50

    def test_missing_success_marker_rejected(self, sc, saved_index):
        os.remove(os.path.join(saved_index, "_SUCCESS"))
        with pytest.raises(StorageError):
            IndexedSpatialRDD.load(sc, saved_index)

    def test_save_refuses_existing_path(self, sc, saved_index):
        objs = [STObject(p) for p in uniform_points(5, seed=93)]
        rdd = sc.parallelize([(o, i) for i, o in enumerate(objs)], 1)
        with pytest.raises(StorageError):
            spatial(rdd).index(order=4).save(saved_index)

    def test_truncated_part_falls_back_to_live_index(self, sc, saved_index):
        # Damage one part; the load reads that partition's rows from the
        # recovery copy and query results stay exact.
        part = os.path.join(saved_index, "part-00001.pkl")
        with open(part, "rb") as f:
            blob = f.read()
        with open(part, "wb") as f:
            f.write(blob[: len(blob) // 2])
        tracer = sc.enable_tracing()
        reloaded = IndexedSpatialRDD.load(sc, saved_index)
        query = STObject("POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))")
        assert reloaded.intersects(query).count() == 50
        assert sc.metrics.index_fallbacks == 1
        assert reloaded.tree_rdd.fallbacks == [1]
        # the degradation is visible in the trace report
        assert "index.fallback" in tracer.render()

    def test_corrupt_meta_degrades_to_unpartitioned(self, sc, saved_index):
        with open(os.path.join(saved_index, "_index_meta.pkl"), "wb") as f:
            f.write(b"garbage, not a pickle")
        reloaded = IndexedSpatialRDD.load(sc, saved_index)
        assert reloaded.partitioner is None  # pruning disabled, queries work
        query = STObject("POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))")
        assert reloaded.intersects(query).count() == 50
        # One fallback for the metadata; the parts are read as they
        # would be with it.
        assert sc.metrics.index_fallbacks == 1
        assert reloaded.tree_rdd.fallbacks == []

    def test_corrupt_part_without_sidecar_raises_storage_error(self, sc, saved_index):
        # Without its recovery copy a corrupt part cannot recover: the
        # error is a typed StorageError naming the path, not raw pickle.
        import shutil

        shutil.rmtree(os.path.join(saved_index, "_rows_copy"))
        part = os.path.join(saved_index, "part-00000.pkl")
        with open(part, "wb") as f:
            f.write(b"not a pickle")
        reloaded = IndexedSpatialRDD.load(sc, saved_index)
        query = STObject("POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))")
        with pytest.raises(JobAbortedError) as excinfo:
            reloaded.intersects(query).count()
        assert isinstance(excinfo.value.cause, StorageError)
        assert "part-00000.pkl" in str(excinfo.value.cause)

    def test_injected_index_load_fault_falls_back(self, sc, saved_index):
        from repro.chaos import FaultInjector

        with FaultInjector().fail("index.load", times=1).installed(sc):
            reloaded = IndexedSpatialRDD.load(sc, saved_index)
            query = STObject("POLYGON ((0 0, 1000 0, 1000 1000, 0 1000, 0 0))")
            assert reloaded.intersects(query).count() == 50
        assert sc.metrics.index_fallbacks >= 1

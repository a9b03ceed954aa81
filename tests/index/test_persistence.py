"""Persistent indexes: re-saving, the tree layout version, the metadata
checksum, and where a loaded index lives."""

import gc
import os
import random
import shutil
import weakref

import pytest

from repro.core.spatial_rdd import IndexedSpatialRDD, spatial
from repro.core.stobject import STObject
from repro.geometry.point import Point
from repro.index import STRTree3D, partition_index, persistence
from repro.partitioners.grid import GridPartitioner
from repro.spark.context import SparkContext
from repro.spark.errors import JobAbortedError
from repro.spark.storage import StorageError
from repro.temporal import Interval


def make_rdd(sc, n=400, partitions=4, seed=5):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        start = rng.uniform(0, 1000)
        rows.append(
            (
                STObject(
                    Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                    Interval(start, start + 5),
                ),
                i,
            )
        )
    return sc.parallelize(rows, partitions)


QUERY = STObject("POLYGON((10 10, 80 10, 80 80, 10 80, 10 10))", Interval(0, 1000))


def ids(rdd):
    return sorted(kv[1] for kv in rdd.collect())


class TestResave:
    def test_resave_over_the_same_path_serves_the_new_rows(self, sc, tmp_path):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc, seed=5)).index(order=8).save(path)
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()

        shutil.rmtree(path)
        spatial(make_rdd(sc, seed=99)).index(order=8).save(path)
        reloaded = IndexedSpatialRDD.load(sc, path)
        naive = ids(spatial(make_rdd(sc, seed=99)).intersects(QUERY))
        assert ids(reloaded.intersects(QUERY)) == naive


class TestTreeLayoutVersion:
    """Pickled parts follow the kernel's node layout; the metadata says which."""

    def rewrite_meta(self, path, **changes):
        meta = persistence._read_meta(path)
        for key, value in changes.items():
            if value is None:
                meta.pop(key)
            else:
                meta[key] = value
        persistence._write_meta(path, meta)

    def old_layout_dir(self, sc, tmp_path, layout):
        """A saved index whose parts are what layout 1 pickled: they
        name a class (``_Node3``) this version no longer has."""
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8, mode="3d").save(path)
        assert sc.metrics.index_fallbacks == 0
        self.rewrite_meta(path, layout=layout)
        for name in os.listdir(path):
            if name.startswith("part-"):
                with open(os.path.join(path, name), "wb") as f:
                    f.write(b"crepro.index.rtree3d\n_Node3\n.")
        return path

    @pytest.mark.parametrize("layout", [None, 1, 2])
    def test_old_or_missing_version_rebuilds_from_sidecar(self, sc, tmp_path, layout):
        path = self.old_layout_dir(sc, tmp_path, layout)
        loaded = IndexedSpatialRDD.load(sc, path)
        got = ids(loaded.intersects(QUERY))
        assert got == ids(spatial(make_rdd(sc)).intersects(QUERY))
        assert sc.metrics.index_fallbacks == loaded.tree_rdd.num_partitions
        assert sorted(loaded.tree_rdd.fallbacks) == list(range(4))

    def test_damaged_part_is_rebuilt_in_the_saved_mode(self, sc, tmp_path):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8, mode="3d").save(path)
        with open(os.path.join(path, "part-00001.pkl"), "wb") as f:
            f.write(b"not a pickle")
        loaded = IndexedSpatialRDD.load(sc, path)
        window = STObject(QUERY.geo, Interval(200, 260))
        assert ids(loaded.intersects(window)) == ids(spatial(make_rdd(sc)).intersects(window))
        assert loaded.tree_rdd.fallbacks == [1]
        trees = loaded.tree_rdd.collect()
        assert {type(tree) for tree in trees} == {STRTree3D}
        assert len(trees[1]) == 100

    def test_old_version_without_sidecar_is_a_storage_error(self, sc, tmp_path):
        path = self.old_layout_dir(sc, tmp_path, layout=1)
        shutil.rmtree(os.path.join(path, "_data"))
        loaded = IndexedSpatialRDD.load(sc, path)
        with pytest.raises(JobAbortedError) as excinfo:
            loaded.intersects(QUERY).collect()
        assert isinstance(excinfo.value.cause, StorageError)
        assert "layout" in str(excinfo.value.cause)

    def test_mislabelled_old_part_is_still_typed(self, sc, tmp_path):
        # The metadata claims the current layout but the part is not:
        # pickle's AttributeError must not escape either.
        path = self.old_layout_dir(sc, tmp_path, layout=persistence.INDEX_LAYOUT)
        loaded = IndexedSpatialRDD.load(sc, path)
        assert loaded.intersects(QUERY).count() > 0
        assert sc.metrics.index_fallbacks == 4
        shutil.rmtree(os.path.join(path, "_data"))
        with pytest.raises(JobAbortedError) as excinfo:
            IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        assert isinstance(excinfo.value.cause, StorageError)


class TestMetadataChecksum:
    """The metadata's summaries and partitioner prune whole partitions, so
    a damaged file must be rejected, never half-believed."""

    QUERIES = [
        STObject("POLYGON((0 0, 30 0, 30 30, 0 30, 0 0))", Interval(0, 1000)),
        STObject("POLYGON((55 60, 95 60, 95 99, 55 99, 55 60))", Interval(200, 400)),
        STObject("POLYGON((40 5, 60 5, 60 95, 40 95, 40 5))", Interval(0, 1000)),
    ]

    def answers(self, handle):
        found = [ids(handle.intersects(q)) for q in self.QUERIES]
        nearest = [d for d, _kv in handle.knn(STObject("POINT(50 50)"), 5)]
        return found, nearest

    def test_random_byte_flips_fail_typed_and_stay_exact(self, sc, tmp_path):
        rdd = make_rdd(sc)
        path = str(tmp_path / "idx")
        spatial(rdd).index(order=8, partitioner=GridPartitioner.from_rdd(rdd, 2)).save(
            path
        )
        expected = self.answers(spatial(rdd))
        meta_path = os.path.join(path, "_index_meta.pkl")
        with open(meta_path, "rb") as f:
            original = f.read()
        rng = random.Random(2024)
        for trial in range(300):
            damaged = bytearray(original)
            for _ in range(3):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            with open(meta_path, "wb") as f:
                f.write(damaged)
            if bytes(damaged) != original:
                with pytest.raises(StorageError):
                    persistence._read_meta(path)
            try:
                loaded = IndexedSpatialRDD.load(sc, path)
            except StorageError:
                continue
            assert self.answers(loaded) == expected, trial


class TestOneIndexCache:
    def test_a_loaded_index_is_released(self, tmp_path):
        sc = SparkContext(executor="sequential", retry_backoff=0.0)
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8).save(path)
        loaded = IndexedSpatialRDD.load(sc, path)
        assert loaded.tree_rdd.count() == 4
        tree = weakref.ref(loaded.tree_rdd.take(1)[0])
        assert tree() is not None
        loaded.tree_rdd.unpersist()
        sc.stop()
        gc.collect()
        assert tree() is None

    def test_memo_hits_are_counted(self, sc):
        persisted = make_rdd(sc).persist()
        first = partition_index(persisted)
        assert sc.metrics.index_cache_hits == 0
        assert partition_index(persisted) is first
        assert sc.metrics.index_cache_hits == 1

        unpersisted = make_rdd(sc)
        partition_index(unpersisted)
        partition_index(unpersisted)
        assert sc.metrics.index_cache_hits == 1

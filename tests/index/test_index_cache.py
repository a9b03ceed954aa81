"""The process-level persistent-index cache."""

import os
import random
import shutil

import pytest

from repro.core.spatial_rdd import IndexedSpatialRDD, spatial
from repro.core.stobject import STObject
from repro.geometry.point import Point
from repro.index import persistence
from repro.temporal import Interval


@pytest.fixture(autouse=True)
def clean_cache():
    persistence.invalidate_index_cache()
    yield
    persistence.invalidate_index_cache()


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


class TestCacheHits:
    def test_repeated_load_hits_cache(self, sc, tmp_path):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8).save(path)

        first = IndexedSpatialRDD.load(sc, path)
        baseline = sorted(kv[1] for kv in first.intersects(QUERY).collect())
        assert sc.metrics.index_cache_hits == 0

        second = IndexedSpatialRDD.load(sc, path)
        again = sorted(kv[1] for kv in second.intersects(QUERY).collect())
        assert again == baseline
        assert sc.metrics.index_cache_hits == second.tree_rdd.num_partitions

    def test_results_identical_with_and_without_cache(self, sc, tmp_path):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8).save(path)
        warm = sorted(
            kv[1] for kv in IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        )
        cached = sorted(
            kv[1] for kv in IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        )
        persistence.invalidate_index_cache(path)
        cold = sorted(
            kv[1] for kv in IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        )
        assert warm == cached == cold


class TestInvalidation:
    def test_rewrite_invalidates(self, sc, tmp_path):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc, seed=5)).index(order=8).save(path)
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()

        # Rewriting the same path must not serve stale trees.
        shutil.rmtree(path)
        spatial(make_rdd(sc, seed=99)).index(order=8).save(path)
        reloaded = IndexedSpatialRDD.load(sc, path)
        fresh = sorted(kv[1] for kv in reloaded.intersects(QUERY).collect())
        naive = sorted(
            kv[1] for kv in spatial(make_rdd(sc, seed=99)).intersects(QUERY).collect()
        )
        assert fresh == naive

    def test_touched_file_invalidates(self, sc, tmp_path):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8).save(path)
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        hits_before = sc.metrics.index_cache_hits
        assert hits_before > 0

        # Bump mtime of one part: the signature changes, cache misses.
        part = next(
            str(tmp_path / "idx" / name)
            for name in os.listdir(path)
            if name.startswith("part-")
        )
        stat = os.stat(part)
        os.utime(part, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        assert sc.metrics.index_cache_hits == hits_before

    def test_explicit_invalidate_all(self, sc, tmp_path):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8).save(path)
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        persistence.invalidate_index_cache()
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        assert sc.metrics.index_cache_hits == 0


class TestTreeLayoutVersion:
    """Pickled parts follow the kernel's node layout; the metadata says which."""

    def rewrite_meta(self, path, **changes):
        import pickle

        meta_path = os.path.join(path, "_index_meta.pkl")
        with open(meta_path, "rb") as f:
            meta = pickle.load(f)
        for key, value in changes.items():
            if value is None:
                meta.pop(key)
            else:
                meta[key] = value
        with open(meta_path, "wb") as f:
            pickle.dump(meta, f)

    def old_layout_dir(self, sc, tmp_path, layout):
        """A saved index whose parts are what the PR-12 layout pickled:
        they name a class (``_Node3``) this version no longer has."""
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8, mode="3d").save(path)
        assert sc.metrics.index_fallbacks == 0
        self.rewrite_meta(path, layout=layout)
        for name in os.listdir(path):
            if name.startswith("part-"):
                with open(os.path.join(path, name), "wb") as f:
                    f.write(b"crepro.index.rtree3d\n_Node3\n.")
        return path

    @pytest.mark.parametrize("layout", [None, 1])
    def test_old_or_missing_version_rebuilds_from_sidecar(self, sc, tmp_path, layout):
        path = self.old_layout_dir(sc, tmp_path, layout)
        loaded = IndexedSpatialRDD.load(sc, path)
        got = sorted(kv[1] for kv in loaded.intersects(QUERY).collect())
        naive = sorted(kv[1] for kv in spatial(make_rdd(sc)).intersects(QUERY).collect())
        assert got == naive
        assert sc.metrics.index_fallbacks == loaded.tree_rdd.num_partitions
        assert sorted(loaded.tree_rdd.fallbacks) == list(range(4))
        # Rebuilt partitions are never cached.
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        assert sc.metrics.index_cache_hits == 0

    def test_old_version_without_sidecar_is_a_storage_error(self, sc, tmp_path):
        from repro.spark.errors import JobAbortedError
        from repro.spark.storage import StorageError

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
        from repro.spark.errors import JobAbortedError
        from repro.spark.storage import StorageError

        path = self.old_layout_dir(sc, tmp_path, layout=persistence.INDEX_LAYOUT)
        loaded = IndexedSpatialRDD.load(sc, path)
        assert loaded.intersects(QUERY).count() > 0
        assert sc.metrics.index_fallbacks == 4
        shutil.rmtree(os.path.join(path, "_data"))
        with pytest.raises(JobAbortedError) as excinfo:
            IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        assert isinstance(excinfo.value.cause, StorageError)

    def test_cache_signature_carries_the_version(self, sc, tmp_path, monkeypatch):
        path = str(tmp_path / "idx")
        spatial(make_rdd(sc)).index(order=8).save(path)
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        hits = sc.metrics.index_cache_hits
        assert hits == 4
        # Trees deserialized under one layout are never served to another.
        monkeypatch.setattr(persistence, "INDEX_LAYOUT", persistence.INDEX_LAYOUT + 1)
        loaded = IndexedSpatialRDD.load(sc, path)
        assert loaded.intersects(QUERY).count() > 0
        assert sc.metrics.index_cache_hits == hits
        assert sc.metrics.index_fallbacks == 4


class TestChaosBypass:
    def test_fault_injector_disables_cache(self, tmp_path):
        from repro.chaos import FaultInjector
        from repro.spark.context import SparkContext

        plain = SparkContext(executor="sequential", retry_backoff=0.0)
        path = str(tmp_path / "idx")
        spatial(make_rdd(plain)).index(order=8).save(path)
        IndexedSpatialRDD.load(plain, path).intersects(QUERY).collect()
        plain.stop()

        chaotic = SparkContext(
            executor="sequential",
            retry_backoff=0.0,
            fault_injector=FaultInjector(seed=3).fail(
                "index.load", times=1, per_key=False
            ),
        )
        loaded = IndexedSpatialRDD.load(chaotic, path)
        result = sorted(kv[1] for kv in loaded.intersects(QUERY).collect())
        assert chaotic.metrics.index_cache_hits == 0
        assert chaotic.metrics.index_fallbacks >= 1  # the fault actually fired
        naive = sorted(
            kv[1] for kv in spatial(make_rdd(chaotic)).intersects(QUERY).collect()
        )
        assert result == naive
        chaotic.stop()

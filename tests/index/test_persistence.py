"""Persistent indexes: round trips, recovery, the tree layout written
before rows were saved, the metadata checksum, and where a loaded index
lives."""

import gc
import os
import pickle
import random
import shutil
import weakref

import pytest

from repro.core.spatial_rdd import IndexedSpatialRDD, spatial
from repro.core.stobject import STObject
from repro.geometry.point import Point
from repro.index import STRTree3D, build_partition_index, partition_index, persistence
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


def rewrite_meta(path, **changes):
    meta = persistence._read_meta(path)
    for key, value in changes.items():
        if value is None:
            meta.pop(key, None)
        else:
            meta[key] = value
    persistence._write_meta(path, meta)


def query_answers(handle, queries, k=7):
    """Every filter's rows and every kNN's (distance, row) list, in the
    order the index returns them."""
    found = [handle.intersects(q).collect() for q in queries]
    nearest = [handle.knn(STObject(q.geo.centroid()), k) for q in queries]
    return found, nearest


def mixed_rows(sc, partitions=4, seed=11):
    """Timed and untimed points with many duplicate coordinates (and
    duplicate times), so tie order is exercised."""
    rng = random.Random(seed)
    spots = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(60)]
    rows = []
    for i in range(500):
        x, y = spots[rng.randrange(len(spots))] if i % 3 else (rng.uniform(0, 100), rng.uniform(0, 100))
        draw = rng.random()
        if draw < 0.3:
            time = None
        elif draw < 0.6:
            time = Interval(float(i % 7) * 100, float(i % 7) * 100 + 50)
        else:
            time = rng.choice([100.0, 250.0, rng.uniform(0, 1000)])
        rows.append((STObject(Point(x, y), time), i))
    return sc.parallelize(rows, partitions)


ROUND_TRIP_QUERIES = [
    STObject("POLYGON((10 10, 80 10, 80 80, 10 80, 10 10))", Interval(0, 1000)),
    STObject("POLYGON((0 0, 50 0, 50 50, 0 50, 0 0))"),
    STObject("POLYGON((30 20, 95 20, 95 99, 30 99, 30 20))", Interval(90, 260)),
    STObject("POINT(50 50)", 250.0),
]


def packing(tree):
    """A tree's whole structure: every node's boxes, with the items it
    holds by identity."""

    def node(n):
        return tuple((box, node(child) if not n.leaf else id(child)) for box, child in n.rows)

    return [node(root) for _box, root in tree._roots()]


class TestRebuildFromItems:
    """``items()`` order is what makes rows a complete record of a tree:
    bulk-loading them again packs the same nodes, even when keys tie
    across the tiling's cuts (the tree's left-to-right order does not)."""

    @pytest.mark.parametrize("mode", ["spatial", "3d"])
    def test_same_packing_under_ties(self, mode):
        for seed in range(60):
            rng = random.Random(seed)
            xs = [rng.choice([0.0, 1.0, rng.uniform(0, 5)]) for _ in range(5)]
            ys = [rng.choice([0.0, 1.0, rng.uniform(0, 5)]) for _ in range(5)]
            rows = []
            for i in range(rng.randrange(0, 300)):
                draw = rng.random()
                start = rng.choice([0.0, 10.0, rng.uniform(0, 20)])
                time = None if draw < 0.25 else start if draw < 0.7 else Interval(start, start + 5)
                rows.append((STObject(Point(rng.choice(xs), rng.choice(ys)), time), i))
            capacity = rng.choice([2, 3, 4, 10])
            tree = build_partition_index(rows, capacity, mode)
            again = build_partition_index(tree.items(), capacity, mode)
            assert packing(again) == packing(tree), seed


class TestRoundTrip:
    """A saved index is its rows in tiling order; the trees rebuilt from
    them answer with the lists the saved trees gave, order included."""

    @pytest.mark.parametrize("mode", ["spatial", "3d"])
    def test_reloaded_index_answers_with_the_same_lists(self, sc, tmp_path, mode):
        rdd = mixed_rows(sc)
        partitioner = GridPartitioner.from_rdd(rdd, 2)
        index = spatial(rdd).index(order=4, partitioner=partitioner, mode=mode)
        before = query_answers(index, ROUND_TRIP_QUERIES)
        path = str(tmp_path / "idx")
        index.save(path)
        # Earlier versions recorded the forest's slice count in every mode.
        rewrite_meta(path, time_slices=3)
        loaded = IndexedSpatialRDD.load(sc, path)
        assert loaded.mode == mode
        assert query_answers(loaded, ROUND_TRIP_QUERIES) == before
        assert [tree.items() for tree in loaded.tree_rdd.collect()] == [
            tree.items() for tree in index.tree_rdd.collect()
        ]
        assert sc.metrics.index_fallbacks == 0

    def test_a_time_sliced_forest_save_is_refused_at_load(self, sc, tmp_path):
        # The metadata an earlier version wrote for a forest index, beside
        # parts that hold rows: refused by load, not at the first query.
        path = str(tmp_path / "idx")
        spatial(mixed_rows(sc)).index(order=4).save(path)
        rewrite_meta(path, mode="temporal", time_slices=3)
        with pytest.raises(StorageError, match="mode 'temporal'"):
            IndexedSpatialRDD.load(sc, path)

    def test_parts_and_copy_hold_the_rows(self, sc, tmp_path):
        index = spatial(mixed_rows(sc)).index(order=4, mode="3d")
        path = str(tmp_path / "idx")
        index.save(path)
        rows = [tree.items() for tree in index.tree_rdd.collect()]
        assert sc.object_file(path).glom().collect() == rows
        assert sc.object_file(os.path.join(path, "_rows_copy")).glom().collect() == rows
        assert not os.path.exists(os.path.join(path, "_data"))

    def test_damaged_part_loads_the_same_lists_from_the_copy(self, sc, tmp_path):
        index = spatial(mixed_rows(sc)).index(order=4, mode="3d")
        before = query_answers(index, ROUND_TRIP_QUERIES)
        path = str(tmp_path / "idx")
        index.save(path)
        with open(os.path.join(path, "part-00002.pkl"), "r+b") as f:
            f.truncate(40)
        loaded = IndexedSpatialRDD.load(sc, path)
        assert query_answers(loaded, ROUND_TRIP_QUERIES) == before
        assert loaded.tree_rdd.fallbacks == [2]
        assert sc.metrics.index_fallbacks == 1

    @pytest.mark.parametrize("damage", ["garbage", "missing"])
    def test_damaged_meta_never_changes_how_parts_are_read(self, sc, tmp_path, damage):
        index = spatial(mixed_rows(sc)).index(order=4)
        before = query_answers(index, ROUND_TRIP_QUERIES)
        path = str(tmp_path / "idx")
        index.save(path)
        meta = os.path.join(path, "_index_meta.pkl")
        if damage == "missing":
            os.remove(meta)
        else:
            with open(meta, "wb") as f:
                f.write(b"garbage")
        loaded = IndexedSpatialRDD.load(sc, path)
        assert loaded.partitioner is None
        # Saved as ``spatial`` with order 4; rebuilt with the defaults,
        # the same rows answer with the same sets.
        found, nearest = query_answers(loaded, ROUND_TRIP_QUERIES)
        assert [sorted(kv[1] for kv in rows) for rows in found] == [
            sorted(kv[1] for kv in rows) for rows in before[0]
        ]
        assert [[d for d, _kv in hits] for hits in nearest] == [
            [d for d, _kv in hits] for hits in before[1]
        ]
        assert loaded.tree_rdd.fallbacks == []
        assert sc.metrics.index_fallbacks == (1 if damage == "garbage" else 0)


class TestTreeLayoutVersion:
    """Directories written when the parts were pickled trees: the trees
    are never unpickled, every partition is rebuilt from the ``_data``
    sidecar of ``(Envelope, item)`` entry lists."""

    def old_layout_dir(self, sc, tmp_path, layout):
        """A saved index in the tree layout, its metadata naming *layout*.
        Its parts are what layout 1 pickled: they name a class
        (``_Node3``) this version does not have."""
        path = str(tmp_path / "idx")
        index = spatial(make_rdd(sc)).index(order=8, mode="3d")
        index.save(path)
        assert sc.metrics.index_fallbacks == 0
        shutil.rmtree(os.path.join(path, "_rows_copy"))
        entry_lists = index.tree_rdd.map(
            lambda tree: [[(kv[0].geo.envelope, kv) for kv in tree.items()]]
        )
        entry_lists.save_as_object_file(os.path.join(path, "_data"))
        rewrite_meta(path, layout=layout)
        for name in os.listdir(path):
            if name.startswith("part-"):
                with open(os.path.join(path, name), "wb") as f:
                    f.write(b"crepro.index.rtree3d\n_Node3\n.")
        return path

    @pytest.mark.parametrize("layout", [None, 1, 2, 3])
    def test_old_or_missing_version_rebuilds_from_sidecar(self, sc, tmp_path, layout):
        path = self.old_layout_dir(sc, tmp_path, layout)
        loaded = IndexedSpatialRDD.load(sc, path)
        got = ids(loaded.intersects(QUERY))
        assert got == ids(spatial(make_rdd(sc)).intersects(QUERY))
        assert sc.metrics.index_fallbacks == loaded.tree_rdd.num_partitions
        assert sorted(loaded.tree_rdd.fallbacks) == list(range(4))
        assert {type(tree) for tree in loaded.tree_rdd.collect()} == {STRTree3D}

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
        assert "part-0000" in str(excinfo.value.cause)

    def test_mislabelled_old_part_is_still_typed(self, sc, tmp_path):
        # Parts that unpickle to trees, not rows (a tree-layout directory
        # that lost its sidecar), are refused typed: nothing in them is
        # read as a row.
        path = str(tmp_path / "idx")
        index = spatial(make_rdd(sc)).index(order=8)
        index.save(path)
        shutil.rmtree(os.path.join(path, "_rows_copy"))
        for split, tree in enumerate(index.tree_rdd.collect()):
            with open(os.path.join(path, f"part-{split:05d}.pkl"), "wb") as f:
                pickle.dump([tree], f)
        with pytest.raises(JobAbortedError) as excinfo:
            IndexedSpatialRDD.load(sc, path).intersects(QUERY).collect()
        assert isinstance(excinfo.value.cause, StorageError)
        assert "rows" in str(excinfo.value.cause)


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

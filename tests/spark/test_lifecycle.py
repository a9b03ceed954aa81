"""Context lifecycle hardening: idempotent stop, block cache, shuffle locks."""

import gc
import random
import threading
import time
import weakref

import pytest

from repro.spark.context import SparkContext


class TestStopSemantics:
    def test_stop_is_idempotent(self):
        context = SparkContext("stop-twice", executor="sequential")
        context.parallelize(range(8), 4).count()
        context.stop()
        context.stop()  # second call is a no-op, not an error

    def test_run_job_after_stop_raises(self):
        context = SparkContext("stopped", executor="sequential")
        rdd = context.parallelize(range(8), 4)
        context.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            rdd.collect()

    def test_stop_does_not_lazily_recreate_pool(self):
        context = SparkContext("no-pool", parallelism=2)
        context.parallelize(range(8), 4).count()
        context.stop()
        assert context._pool is None
        with pytest.raises(RuntimeError):
            context.parallelize(range(4), 2).collect()
        assert context._pool is None

    def test_context_manager_exit_stops(self):
        with SparkContext("ctx-mgr", executor="sequential") as context:
            assert context.parallelize(range(4), 2).count() == 4
        with pytest.raises(RuntimeError):
            context.parallelize(range(4), 2).count()


class TestBlockCache:
    def test_blocks_stay_until_unpersisted(self):
        with SparkContext("blocks-stay", executor="sequential") as sc:
            rdd = sc.parallelize(range(100), 10).persist()
            rdd.count()
            other = sc.parallelize(range(8), 4).persist()
            other.count()
            assert len(sc._cache) == 14
            rdd.unpersist()
            assert len(sc._cache) == 4


class TestPerCallCachesAreReleased:
    """Operators that cache an intermediate RDD per call must not leak it."""

    def test_joins_and_dbscans_leave_cache_and_shuffles_bounded(self):
        import gc
        import random

        from repro.core.spatial_rdd import spatial
        from repro.core.stobject import STObject
        from repro.geometry.point import Point

        rng = random.Random(11)
        rows = [
            (STObject(Point(rng.uniform(0, 50), rng.uniform(0, 50))), i)
            for i in range(120)
        ]
        with SparkContext("leak", parallelism=4, executor="sequential") as sc:
            rdd = sc.parallelize(rows, 4)

            def one_round(joins, dbscans):
                for _ in range(joins):
                    assert spatial(rdd).join(rdd, "intersects").count() == len(rows)
                for _ in range(dbscans):
                    assert spatial(rdd).cluster(eps=3.0, min_pts=3).count() == len(rows)
                gc.collect()
                return len(sc._cache), len(sc._shuffle._outputs)

            after_one = one_round(joins=1, dbscans=1)
            after_many = one_round(joins=30, dbscans=10)
            # Nothing a finished call cached is still held: the totals
            # after 41 more operations are what they were after two.
            assert after_many[0] <= after_one[0] <= 2 * rdd.num_partitions
            assert after_many[1] <= after_one[1] <= 1

    def test_persisted_right_side_keeps_one_set_of_trees_until_unpersist(self):
        import gc
        import random

        from repro.core.spatial_rdd import spatial
        from repro.core.stobject import STObject
        from repro.geometry.point import Point

        rng = random.Random(11)
        rows = [
            (STObject(Point(rng.uniform(0, 50), rng.uniform(0, 50))), i)
            for i in range(120)
        ]
        with SparkContext("leak-persisted", parallelism=4, executor="sequential") as sc:
            probes = sc.parallelize(rows, 4)
            points = sc.parallelize(rows, 4).persist()
            for _ in range(30):
                assert spatial(probes).join(points, "intersects").count() == len(rows)
            gc.collect()
            # The data's blocks plus one tree per partition, for 30 joins.
            assert len(sc._cache) == 2 * points.num_partitions
            points.unpersist()
            gc.collect()
            assert len(sc._cache) == 0
            points.persist()
            assert spatial(probes).join(points, "intersects").count() == len(rows)
            del points
            gc.collect()
            assert len(sc._cache) == 0

    def test_live_rdd_keeps_its_blocks(self):
        import gc

        with SparkContext("keep", executor="sequential") as sc:
            rdd = sc.parallelize(range(40), 4).persist()
            derived = rdd.map(lambda v: v + 1)
            del rdd  # still reachable through the lineage of `derived`
            gc.collect()
            assert derived.count() == 40
            assert len(sc._cache) == 4
            assert derived.count() == 40
            assert sc.metrics.cache_hits == 4
            del derived
            gc.collect()
            assert len(sc._cache) == 0


def _eventually(probe, timeout: float = 5.0) -> bool:
    """Poll *probe* until it holds: a pool thread lets go of a task it
    ran a moment after reporting the outcome."""
    deadline = time.monotonic() + timeout
    while not probe():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestJobsDieByReferenceCount:
    """A finished job, and everything it held, goes when its last
    reference does: with the cyclic collector off, under the pool."""

    @pytest.fixture
    def sc(self):
        with SparkContext("refcount", parallelism=4, executor="threads") as sc:
            sc.parallelize(range(8), 4).count()  # start the pool
            enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                yield sc
            finally:
                if enabled:
                    gc.enable()

    def test_a_dropped_result_rdd_is_freed(self, sc):
        rdd = sc.parallelize(range(40), 4).map(lambda v: v + 1)
        assert rdd.count() == 40
        ref = weakref.ref(rdd)
        del rdd
        assert _eventually(lambda: ref() is None)

    def test_a_dropped_persisted_rdd_sweeps_its_blocks(self, sc):
        rdd = sc.parallelize(range(40), 4).persist()
        assert rdd.count() == 40
        assert len(sc._cache) == 4
        del rdd
        assert _eventually(lambda: len(sc._cache) == 0)

    def test_clusterings_and_joins_leave_no_cyclic_garbage(self, sc):
        from repro.core.spatial_rdd import spatial
        from repro.core.stobject import STObject
        from repro.geometry.point import Point

        rng = random.Random(11)
        rows = [
            (STObject(Point(rng.uniform(0, 50), rng.uniform(0, 50))), i)
            for i in range(120)
        ]
        rdd = sc.parallelize(rows, 4)
        for _ in range(3):
            assert spatial(rdd).cluster(eps=3.0, min_pts=3).count() == len(rows)
            assert spatial(rdd).join(rdd, "intersects").count() == len(rows)
        assert _eventually(lambda: len(sc._cache) == 0)
        assert gc.collect() == 0
        # A dead shuffle's outputs go at the next registration.
        assert len(sc._shuffle._outputs) <= 1


class TestShuffleLockGranularity:
    def test_locks_are_per_shuffle_id(self):
        with SparkContext("locks", executor="sequential") as sc:
            lock_a = sc._shuffle._lock_for(0)
            lock_b = sc._shuffle._lock_for(1)
            assert lock_a is not lock_b
            assert sc._shuffle._lock_for(0) is lock_a

    def test_holding_one_shuffle_lock_does_not_block_another(self):
        with SparkContext("indep-shuffles", parallelism=4) as sc:
            blocked = sc.parallelize([(i % 3, i) for i in range(12)], 4).group_by_key()
            free = sc.parallelize([(i % 3, i) for i in range(12, 24)], 4).group_by_key()
            # Hold the *blocked* shuffle's map-side lock; the other
            # shuffle must still complete on a different thread.
            lock = sc._shuffle._lock_for(blocked._shuffle_id)
            result: list = []
            lock.acquire()
            try:
                worker = threading.Thread(
                    target=lambda: result.append(dict(free.collect()))
                )
                worker.start()
                worker.join(timeout=10.0)
                assert not worker.is_alive(), "independent shuffle deadlocked"
            finally:
                lock.release()
            assert result and {k: sorted(v) for k, v in result[0].items()} == {
                0: [12, 15, 18, 21],
                1: [13, 16, 19, 22],
                2: [14, 17, 20, 23],
            }
            # And the held-then-released shuffle still works afterwards.
            assert len(dict(blocked.collect())) == 3

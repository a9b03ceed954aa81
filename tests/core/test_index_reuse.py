"""Differential test of index reuse: a persisted RDD is indexed once.

:func:`repro.index.partition_index` keeps a persisted RDD's partition
indexes under ``(mode, order)`` until ``unpersist``.  One persisted RDD
of mixed timed and untimed rows takes a drawn sequence of live filters
(every mode, two orders), joins and kNN joins reading it as the right
side, interleaved with ``unpersist``, re-``persist`` and a chaos plan on
``cache.get``, on both executors.
Every answer is checked against a nested loop, every served index
against the key it was asked for, and every build is counted: one per
partition the first time a key is used on the persisted RDD, none after
it.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index
from repro.chaos import FaultInjector
from repro.core.filter import filter_live_index
from repro.core.join import spatial_join
from repro.core.knn_join import knn_join
from repro.core.predicates import CONTAINED_BY, INTERSECTS
from repro.core.spatial_rdd import IndexedSpatialRDD
from repro.core.stobject import STObject
from repro.index import INDEX_MODES, build_partition_index, partition_index
from repro.partitioners.grid import GridPartitioner
from repro.spark.context import SparkContext
from repro.temporal import Interval

ORDERS = (3, 5)
PREDICATES = {"intersects": INTERSECTS, "contained_by": CONTAINED_BY}


def rectangle(x0, y0, x1, y1):
    return f"POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"


def _rows():
    rng = random.Random(26)
    rows = []
    for i in range(72):
        x, y = rng.randrange(40), rng.randrange(40)
        wkt = f"POINT ({x} {y})" if i % 3 else rectangle(x, y, x + 3, y + 2)
        when = None if i % 4 == 0 else Interval(i, i + rng.randrange(1, 30))
        rows.append((STObject(wkt, when), i))
    return rows


ROWS = _rows()
QUERIES = [
    STObject(rectangle(0, 0, 25, 25)),
    STObject(rectangle(10, 5, 38, 30), Interval(10, 40)),
    STObject(rectangle(0, 0, 40, 40), 33.0),
]
PROBES = [
    (STObject(rectangle(2, 2, 12, 12)), "a"),
    (STObject(rectangle(20, 15, 33, 39), Interval(0, 50)), "b"),
    (STObject("POINT (17 21)"), "c"),
    (STObject(rectangle(30, 0, 39, 9), Interval(40, 80)), "d"),
]

steps = st.one_of(
    st.tuples(
        st.just("filter"),
        st.sampled_from(INDEX_MODES),
        st.sampled_from(ORDERS),
        st.integers(0, len(QUERIES) - 1),
        st.sampled_from(sorted(PREDICATES)),
    ),
    st.tuples(st.just("join"), st.sampled_from(ORDERS)),
    st.tuples(st.just("knn_join"), st.sampled_from(ORDERS), st.integers(1, 4)),
    st.tuples(st.just("chaos")),
    st.tuples(st.just("unpersist")),
    st.tuples(st.just("persist")),
)


def shape(tree):
    """What distinguishes the index of one key from another's."""
    return type(tree).__name__, tree.node_capacity


class BuildCounter:
    """Counts ``build_partition_index`` calls while installed; *delay*
    widens the window in which another task could start the same build."""

    def __init__(self, delay=0.0):
        self.count = 0
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.count += 1
        time.sleep(self.delay)
        return build_partition_index(*args, **kwargs)

    def take(self):
        with self._lock:
            taken, self.count = self.count, 0
        return taken


def run_step(sc, rdd, step):
    """One query against *rdd*, and its nested-loop answer.  Returns
    ``(got, want, key)``, *key* being the index key the query reads."""
    kind = step[0]
    if kind == "filter":
        _, mode, order, q, name = step
        query, predicate = QUERIES[q], PREDICATES[name]
        got = filter_live_index(rdd, query, predicate, order, mode=mode)
        want = sorted(i for key, i in ROWS if predicate.evaluate(key, query))
        return sorted(i for _k, i in got.collect()), want, (mode, order)
    probes = sc.parallelize(PROBES, 2)
    if kind == "join":
        got = spatial_join(probes, rdd, INTERSECTS, index_order=step[1]).collect()
        want = sorted(
            (p, i) for probe, p in PROBES for key, i in ROWS if INTERSECTS.evaluate(probe, key)
        )
        return sorted((left[1], right[1]) for left, right in got), want, ("spatial", step[1])
    _, order, k = step
    got = knn_join(probes, rdd, k, index_order=order).collect()
    want = sorted(
        (p, tuple(sorted(key.geo.distance(probe.geo) for key, _i in ROWS)[:k]))
        for probe, p in PROBES
    )
    got = sorted((left[1], tuple(d for d, _kv in best)) for left, best in got)
    return got, want, ("spatial", order)


def check_sequence(sc, sequence, counter):
    """Run *sequence* on a fresh persisted RDD; *counter* checks every build."""
    grid = GridPartitioner([key for key, _i in ROWS], 2)
    rdd = sc.parallelize(ROWS, 3).partition_by(grid).persist()
    partitions = rdd.glom().collect()
    persisted, built, chaos = True, set(), False
    for step in sequence:
        if step[0] == "chaos":
            chaos = True
            continue
        if step[0] == "unpersist":
            rdd.unpersist()
            persisted, built = False, set()
            gc.collect()
            assert len(sc._cache) == 0, "unpersist left blocks behind"
            continue
        if step[0] == "persist":
            rdd.persist()
            persisted = True
            continue
        counter.take()
        # The first two block reads fail: within any task's retry budget.
        injector = (
            FaultInjector(seed=7).fail("cache.get", times=2, per_key=False) if chaos else None
        )
        with injector.installed(sc) if injector else nullcontext():
            got, want, key = run_step(sc, rdd, step)
        chaos = False
        assert got == want, step
        if persisted:
            builds = counter.take()
            assert builds == (0 if key in built else len(partitions)), (step, builds)
            built.add(key)
        # The index served for the key is the one that key builds.
        mode, order = key
        served = partition_index(rdd, order, mode).collect()
        assert [shape(tree) for tree in served] == [
            shape(build_partition_index(rows, order, mode)) for rows in partitions
        ], step
    rdd.unpersist()


CONFIGS = {
    # executor, examples
    "sequential": ("sequential", 30),
    "threads": ("threads", 25),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_index_reuse_matches_nested_loops(config, monkeypatch):
    executor, examples = CONFIGS[config]
    counter = BuildCounter()
    monkeypatch.setattr(repro.index, "build_partition_index", counter)
    with SparkContext(
        f"index-reuse-{config}",
        parallelism=4,
        executor=executor,
        retry_backoff=0.0,
    ) as sc:

        @given(st.lists(steps, min_size=4, max_size=12))
        @settings(max_examples=examples, deadline=None)
        def run(sequence):
            check_sequence(sc, sequence, counter)

        run()


def test_one_job_builds_each_split_once_under_concurrent_join_tasks(threaded_sc, monkeypatch):
    """A join's pair tasks read one right split from several threads at
    once; the persisted RDD's build job still builds it exactly once."""
    counter = BuildCounter(delay=0.05)
    monkeypatch.setattr(repro.index, "build_partition_index", counter)
    rdd = threaded_sc.parallelize(ROWS, 2).persist()
    # Pair tasks run left-major, so the first four threads take left
    # splits 0 and 1 against right splits 0 and 1: two per right split.
    probes = threaded_sc.parallelize([(STObject(rectangle(0, 0, 42, 42)), "all")] * 8, 8)
    first = spatial_join(probes, rdd, INTERSECTS).count()
    assert counter.take() == rdd.num_partitions
    for _ in range(3):
        assert spatial_join(probes, rdd, INTERSECTS).count() == first
    assert counter.take() == 0


def test_repeated_indexed_knn_builds_each_split_once(sc, monkeypatch):
    """kNN through the partition index of a persisted RDD: the first
    query builds one tree per partition, later queries probe them."""
    counter = BuildCounter()
    monkeypatch.setattr(repro.index, "build_partition_index", counter)
    rdd = sc.parallelize(ROWS, 3).persist()
    probe = STObject("POINT (17 21)")
    want = sorted(key.geo.distance(probe.geo) for key, _i in ROWS)[:5]

    def nearest():
        return list(IndexedSpatialRDD(partition_index(rdd, 10)).knn(probe, 5))

    first = nearest()
    assert [d for d, _kv in first] == want
    assert nearest() == first
    assert counter.take() == rdd.num_partitions

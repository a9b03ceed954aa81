"""Slicing a micro-batch never changes an answer.

A micro-batch (and each window's and CEP match's RDD) is one partition
by default; ``num_slices`` splits it.  The split is a scheduling
choice only: this suite runs one pipeline -- the stream-static join
count and standing ``continuous()`` range / kNN queries of the sliding
drain, a ``window()`` with counts and DBSCAN, and a CEP rule delivering
match RDDs -- with the default and with four slices, under both
executors, and asserts every sink's results are equal, order included
(tied kNN distances rank by record id on either side).
"""

from __future__ import annotations

import random

import pytest

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.spark.context import SparkContext
from repro.streaming import StreamingContext, count, step

BACKENDS = ["sequential", "threads"]

BATCHES = 8
PER_BATCH = 30
DISTRICTS = [
    (STObject(f"POLYGON (({x} {y}, {x + 10} {y}, {x + 10} {y + 10}, {x} {y + 10}, {x} {y}))"), (x, y))
    for x in range(0, 40, 10)
    for y in range(0, 40, 10)
]
RANGE_BOX = "POLYGON ((5 5, 25 5, 25 25, 5 25, 5 5))"
KNN_POINT = "POINT (20 20)"


def make_batches(seed: int = 17):
    """Integer coordinates on a small grid: shared district edges and
    many equal kNN distances, so tie order is exercised."""
    rng = random.Random(seed)
    batches = []
    for b in range(BATCHES):
        rows = []
        for i in range(PER_BATCH):
            rid = b * PER_BATCH + i
            x, y = rng.randrange(0, 41), rng.randrange(0, 41)
            category = ("ping", "move", "alert")[rid % 3]
            rows.append((STObject(f"POINT ({x} {y})", b + i / PER_BATCH), (rid, category)))
        batches.append(rows)
    return batches


def run_pipeline(executor: str, num_slices):
    """Every sink's results for one run of the shared pipeline."""
    with SparkContext(
        f"slicing-{executor}", parallelism=4, executor=executor, retry_backoff=0.0
    ) as sc:
        ssc = StreamingContext(sc, num_slices=num_slices)
        _source, events = ssc.queue_stream(make_batches())
        joined = events.join_static(DISTRICTS)
        sinks = {"join_count": joined.count_batches(), "join_pairs": joined.collect_batches()}
        sliding = events.continuous(length=4.0, slide=1.0, universe=Envelope(0, 0, 40, 40))
        sinks["range"] = sliding.range(RANGE_BOX)
        sinks["knn"] = sliding.knn(KNN_POINT, 7)
        tumbling = events.window(length=2.0)
        sinks["window_count"] = tumbling.count_windows()
        sinks["cluster"] = tumbling.cluster(3.0, 3)
        patterns = events.patterns(
            count("burst", step(category="alert"), within=2.0, threshold=8),
        )
        sinks["matches"] = patterns.matches()
        delivered = []
        patterns.deliver_to(
            lambda window, rdd: delivered.append((window, rdd.num_partitions, rdd.collect()))
        )
        ssc.run_batches(BATCHES, batch_times=[float(b) for b in range(BATCHES)])
        ssc.stop()
        results = {name: sink.results() for name, sink in sinks.items()}
        results["delivered"] = [(window, rows) for window, _parts, rows in delivered]
        results["match_partitions"] = [parts for _window, parts, _rows in delivered]
        return results


@pytest.mark.parametrize("executor", BACKENDS)
def test_slicing_never_changes_an_answer(executor):
    default = run_pipeline(executor, None)
    sliced = run_pipeline(executor, 4)
    # The fixture must reach every path it claims to cover.
    for name in ("join_count", "join_pairs", "range", "knn", "window_count", "cluster", "delivered"):
        assert default[name], f"degenerate fixture: no {name} results"
    assert any(len(rows) >= 4 for _w, rows in default["delivered"])
    assert any(d1 == d2 for (d1, _), (d2, _) in zip(default["knn"][0][1], default["knn"][0][1][1:]))
    assert set(default["match_partitions"]) == {1}
    assert max(sliced["match_partitions"]) == 4
    for name in default:
        if name != "match_partitions":
            assert sliced[name] == default[name], name


class TestBatchPartitions:
    @pytest.mark.parametrize("num_slices, expected", [(None, [1, 1, 1, 1]), (4, [1, 1, 3, 4])])
    def test_micro_batch_partitions(self, num_slices, expected):
        sizes = [0, 1, 3, 10]
        batches = [[(STObject(f"POINT ({i} {i})", 0.0), i) for i in range(n)] for n in sizes]
        with SparkContext("slices", parallelism=4, executor="sequential") as sc:
            ssc = StreamingContext(sc, num_slices=num_slices)
            _source, events = ssc.queue_stream(batches)
            seen = []
            events.for_each_rdd(lambda _batch_id, rdd: seen.append(rdd.num_partitions))
            ssc.run_batches(len(sizes), batch_times=[0.0] * len(sizes))
            ssc.stop()
        assert seen == expected

    def test_a_default_batch_job_is_one_task(self):
        with SparkContext("one-task", parallelism=4, executor="threads") as sc:
            ssc = StreamingContext(sc)
            _source, events = ssc.queue_stream(
                [[(STObject(f"POINT ({i} {i})", 0.0), i) for i in range(40)]]
            )
            events.count_batches()
            jobs, tasks = sc.metrics.jobs_run, sc.metrics.tasks_launched
            ssc.run_batch(batch_time=0.0)
            ssc.stop()
            assert sc.metrics.jobs_run - jobs == 1
            assert sc.metrics.tasks_launched - tasks == 1


class TestInputWindowReadsNoJob:
    """A window consumer on an input stream absorbs the batch's own
    rows; no job reads them back, and range / kNN answer from the store."""

    @pytest.mark.parametrize("num_slices", [None, 4])
    @pytest.mark.parametrize("handle", ["window", "continuous"])
    def test_range_and_knn_run_no_job(self, handle, num_slices):
        with SparkContext("input-window", parallelism=4, executor="threads") as sc:
            ssc = StreamingContext(sc, num_slices=num_slices)
            _source, events = ssc.queue_stream(make_batches())
            sliding = getattr(events, handle)(length=4.0, slide=1.0)
            sinks = [sliding.range(RANGE_BOX), sliding.knn(KNN_POINT, 7)]
            jobs = sc.metrics.jobs_run
            ssc.run_batches(BATCHES, batch_times=[float(b) for b in range(BATCHES)])
            ssc.stop()
            assert ssc.metrics.batches_run == BATCHES
            assert sc.metrics.jobs_run == jobs
        assert all(len(sink) > 0 for sink in sinks)

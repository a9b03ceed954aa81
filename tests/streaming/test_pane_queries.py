"""Standing queries evaluate each pane once and combine per window.

A window's range hits, k nearest and stream-static pairs are combined
from the partials of the panes covering it, each pane evaluated once.
The differential below holds every sink to a per-window recomputation:
an output registered on the same stream receives each emitted window's
records (the window state the window differential pins to its model),
and the range, kNN and join answers are recomputed from those records
by brute force, in arrival order, equal distances by arrival.  The
streams have equal distances across panes, interval records spanning
several panes, out-of-order arrivals under lateness, a restore
mid-stream (pane partials are not checkpointed) and a fault injected
mid-fire, both retried and left to fail so that later records still
join the pane of the window that failed to close.  The count test pins
the saving itself: each record is refined, ranked and probed once.
"""

from __future__ import annotations

import random

import pytest

from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.geometry.distance import euclidean
from repro.spark.context import SparkContext
from repro.streaming import StreamingContext
from repro.streaming import dstream as dstream_module
from repro.streaming.operators import relax_static
from repro.temporal import Interval

LENGTH, SLIDE = 6.0, 2.0
BATCHES = 10
RANGE_QUERY = STObject("POLYGON ((2 2, 7 3, 6 8, 1 6, 2 2))")
KNN_QUERY = STObject("POINT (4 4)")
K = 4
REFERENCE = [
    (STObject("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"), "sw"),
    (STObject("POLYGON ((3 3, 9 3, 9 9, 3 9, 3 3))"), "ne"),
]
RELAXED = relax_static(INTERSECTS)


def make_batches(seed: int) -> list[list]:
    """Integer points (many equal distances to the kNN query, in every
    pane) at out-of-order times; one record in five is an interval
    spanning up to three slides."""
    rng = random.Random(seed)
    batches = []
    for b in range(BATCHES):
        rows = []
        for i in range(12):
            t = b + rng.uniform(-3.0, 1.0)
            time = Interval(t, t + rng.uniform(0.5, 3 * SLIDE)) if i % 5 == 0 else t
            wkt = f"POINT ({rng.randrange(9)} {rng.randrange(9)})"
            rows.append((STObject(wkt, time), (b, i)))
        batches.append(rows)
    return batches


def recompute(records: list) -> dict:
    """A window's answers from its records, by brute force."""
    ranked = sorted(
        range(len(records)), key=lambda i: (euclidean(records[i][0].geo, KNN_QUERY.geo), i)
    )
    return {
        "range": [v for st, v in records if RELAXED.evaluate(st, RANGE_QUERY)],
        "knn": [(euclidean(records[i][0].geo, KNN_QUERY.geo), records[i][1]) for i in ranked[:K]],
        "join": [
            (v, sorted(rv for ref, rv in REFERENCE if RELAXED.evaluate(st, ref)))
            for st, v in records
            if any(RELAXED.evaluate(st, ref) for ref, _rv in REFERENCE)
        ],
    }


def canon(name: str, result: list) -> list:
    """A sink value in :func:`recompute`'s shape."""
    if name == "range":
        return [v for _st, v in result]
    if name == "knn":
        return [(d, v) for d, (_st, v) in result]
    joined: dict = {}
    for (_st, v), (_ref, rv) in result:
        joined.setdefault(v, []).append(rv)
    return [(v, sorted(rvs)) for v, rvs in joined.items()]


def declare(sc, batches, ck=None, failing=(), max_batch_failures=3):
    """One ``continuous()`` stream with the three standing queries, a
    recomputing output and (on *failing* windows' first delivery) a
    raising one; returns ``(ssc, sinks, recomputed)``."""
    ssc = StreamingContext(
        sc, checkpoint_dir=ck, checkpoint_interval=2, max_batch_failures=max_batch_failures
    )
    _source, events = ssc.queue_stream(batches)
    windows = events.continuous(length=LENGTH, slide=SLIDE, lateness=SLIDE)
    sinks = {
        "range": windows.range(RANGE_QUERY),
        "knn": windows.knn(KNN_QUERY, K),
        "join": windows.intersects_static(REFERENCE),
    }
    recomputed: list = []
    windows.for_each_window(lambda w, rdd: recomputed.append((w, recompute(rdd.collect()))))
    pending = set(failing)

    def fail_once(window, _rdd):
        if window.start in pending:
            pending.discard(window.start)
            raise RuntimeError(f"delivery of {window} fails")

    windows.for_each_window(fail_once)
    return ssc, sinks, recomputed


def check(sinks, recomputed) -> dict:
    """Every sink equals the recomputation, emission for emission;
    returns the last answer per (query, window)."""
    assert recomputed
    last = {}
    for name, sink in sinks.items():
        results = sink.results()
        assert [w for w, _r in results] == [w for w, _a in recomputed], name
        for (window, result), (_w, answers) in zip(results, recomputed):
            assert canon(name, result) == answers[name], (name, window)
            last[name, window] = answers[name]
    return last


def run(batches, **kwargs) -> dict:
    with SparkContext("panes", parallelism=2, executor="sequential", retry_backoff=0.0) as sc:
        ssc, sinks, recomputed = declare(sc, batches, **kwargs)
        ssc.run_batches(BATCHES, batch_times=[float(b) for b in range(BATCHES)])
        ssc.stop()
    return check(sinks, recomputed)


@pytest.mark.parametrize("seed", [3, 17])
def test_every_sink_equals_per_window_recomputation(seed):
    batches = make_batches(seed)
    answers = run(batches)
    assert any(answers[key] for key in answers if key[0] == "join")
    # Some window's k nearest tie at the cut: arrival order decides.
    assert any(
        len(a) == K and any(a[i][0] == a[i + 1][0] for i in range(K - 1))
        for (name, _w), a in answers.items()
        if name == "knn"
    )


@pytest.mark.parametrize("max_batch_failures", [3, 1])
def test_a_fault_mid_fire_changes_no_answer(max_batch_failures):
    """The first delivery of some windows fails after their panes'
    partials were computed.  Retried, the window reuses them; left
    failed, the window stays open, the next batch lists more records
    in its pane, and the stale partial must not be reused."""
    batches = make_batches(5)
    clean = run(batches)
    faulty = run(batches, failing={0.0, 2.0}, max_batch_failures=max_batch_failures)
    if max_batch_failures > 1:
        assert faulty == clean


def test_a_restore_mid_stream_recomputes_the_panes(tmp_path):
    batches = make_batches(11)
    times = [float(b) for b in range(BATCHES)]
    want = run(batches)
    ck = str(tmp_path / "ck")
    with SparkContext("panes", parallelism=2, executor="sequential") as sc:
        ssc, sinks, recomputed = declare(sc, batches, ck)
        ssc.run_batches(5, batch_times=times[:5])
        ssc.checkpoint_manager.close()
        crashed = check(sinks, recomputed)
    with SparkContext("panes", parallelism=2, executor="sequential") as sc:
        ssc, sinks, recomputed = declare(sc, batches, ck)
        report = ssc.restore()
        assert report.epoch is not None and report.resumed_batch_id == 5
        ssc.run_batches(BATCHES - 5, batch_times=times[5:])
        ssc.stop()
        resumed = check(sinks, recomputed)
    assert not set(crashed) & set(resumed)
    assert {**crashed, **resumed} == want


def test_each_record_is_refined_ranked_and_probed_once(monkeypatch):
    """Three windows overlap every instant, yet the range query refines,
    the kNN ranks and the stream-static join probes each record once."""
    calls = {"refine": 0, "rank": 0, "probe": 0}
    probe_static = dstream_module.probe_static

    def counting_probe(tree, predicate, st):
        calls["probe"] += 1
        return probe_static(tree, predicate, st)

    def counting_distance(a, b):
        calls["rank"] += 1
        return euclidean(a, b)

    monkeypatch.setattr(dstream_module, "probe_static", counting_probe)
    cover = STObject("POLYGON ((-1 -1, 10 -1, 10 10, -1 10, -1 -1))")
    batches = [
        [(STObject(f"POINT ({(b + i) % 9} {i % 7})", b + i / 10), i) for i in range(10)]
        for b in range(BATCHES)
    ]
    with SparkContext("panes", parallelism=2, executor="sequential") as sc:
        ssc = StreamingContext(sc)
        _source, events = ssc.queue_stream(batches)
        windows = events.continuous(length=LENGTH, slide=SLIDE)
        windows.range(cover)
        windows.knn(KNN_QUERY, K, counting_distance)
        windows.intersects_static(REFERENCE)
        evaluate = type(RELAXED).evaluate

        def counting_evaluate(self, st, other):
            if other is cover:
                calls["refine"] += 1
            return evaluate(self, st, other)

        monkeypatch.setattr(type(RELAXED), "evaluate", counting_evaluate)
        ssc.run_batches(BATCHES, batch_times=[float(b) for b in range(BATCHES)])
        ssc.stop()
        records = windows.consumer.store.inserts
    assert records == 10 * BATCHES
    assert calls == {"refine": records, "rank": records, "probe": records}


def test_a_batch_failed_in_fire_counts_no_record_failed():
    """A batch whose fire fails terminally was absorbed before: later
    windows still emit its records, so none of them counts as failed."""
    batches = make_batches(5)
    delivered: set = set()
    pending = {0.0, 2.0}

    def deliver(window, rdd):
        if window.start in pending:
            pending.discard(window.start)
            raise RuntimeError(f"delivery of {window} fails")
        delivered.update(v for _st, v in rdd.collect())

    with SparkContext("panes", parallelism=2, executor="sequential", retry_backoff=0.0) as sc:
        ssc = StreamingContext(sc, max_batch_failures=1)
        _source, events = ssc.queue_stream(batches)
        events.continuous(length=LENGTH, slide=SLIDE, lateness=SLIDE).for_each_window(deliver)
        ssc.run_batches(BATCHES, batch_times=[float(b) for b in range(BATCHES)])
        ssc.stop()
        metrics = ssc.metrics
    assert not pending
    assert metrics.batches_failed == 2
    assert metrics.records_failed == 0
    assert metrics.records_processed == metrics.records_ingested == 120
    assert delivered == {v for rows in batches for _st, v in rows}

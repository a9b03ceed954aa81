"""The streaming correctness gate.

The streaming layer's contract is that it adds *routing*, not new
operator semantics: every closed window's join/kNN/DBSCAN result must
equal a batch run of the same operator over exactly that window's
records.  This suite generates a seeded event stream, feeds it through
windowed streaming operators batch by batch, independently recomputes
each window with the batch operators from :mod:`repro.core`, and
asserts equality -- under the sequential and threads executors, so
both transports answer every window alike.
"""

from __future__ import annotations

import random

import pytest

from repro.core.clustering import dbscan
from repro.core.knn import knn
from repro.core.predicates import INTERSECTS, within_distance_predicate
from repro.core.stobject import STObject
from repro.spark.context import SparkContext
from repro.streaming import StreamingContext, WindowSpec

BACKENDS = ["sequential", "threads"]

WINDOW = 10.0
BATCHES = 5
PER_BATCH = 24


def make_batches(seed: int = 29):
    """Seeded clustered event batches with advancing, out-of-order times."""
    rng = random.Random(seed)
    centers = [(10.0, 10.0), (40.0, 15.0), (25.0, 40.0)]
    batches = []
    for b in range(BATCHES):
        rows = []
        for i in range(PER_BATCH):
            cx, cy = centers[rng.randrange(len(centers))]
            x = cx + rng.uniform(-3.0, 3.0)
            y = cy + rng.uniform(-3.0, 3.0)
            # Event time wanders around the batch's slice: out of order
            # inside a batch, advancing across batches.
            t = b * WINDOW / 2 + rng.uniform(0.0, WINDOW)
            rows.append((STObject(f"POINT ({x} {y})", t), (b, i)))
        batches.append(rows)
    return batches


REFERENCE = [
    (STObject("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"), "west"),
    (STObject("POLYGON ((35 10, 45 10, 45 20, 35 20, 35 10))"), "east"),
    (STObject("POLYGON ((20 35, 30 35, 30 45, 20 45, 20 35))"), "north"),
]

QUERY = STObject("POINT (25 25)")
K = 7
EPS, MIN_PTS = 4.0, 4


def expected_windows(batches):
    """Batch-side ground truth: records grouped by window membership."""
    spec = WindowSpec(WINDOW)
    grouped: dict = {}
    for rows in batches:
        for st, value in rows:
            for window in spec.assign(st.time.start, st.time.end):
                grouped.setdefault(window, []).append((st, value))
    return dict(sorted(grouped.items()))


def canon_knn(result):
    return sorted((round(d, 9), v) for d, (_st, v) in result)


def canon_clusters(result):
    """DBSCAN output as frozenset-of-membersets (labels are arbitrary)."""
    clusters: dict = {}
    noise = set()
    for _st, (value, label) in result:
        if label < 0:
            noise.add(value)
        else:
            clusters.setdefault(label, set()).add(value)
    return (frozenset(frozenset(m) for m in clusters.values()), frozenset(noise))


def canon_join(rows):
    return sorted((sv, rv) for (_s, sv), (_r, rv) in rows)


@pytest.fixture(params=BACKENDS)
def exec_sc(request):
    with SparkContext(
        f"stream-gate-{request.param}",
        parallelism=2,
        executor=request.param,
        retry_backoff=0.0,
    ) as context:
        yield context


def test_windowed_operators_equal_batch_recompute(exec_sc):
    batches = make_batches()
    # Four slices per batch and window: the ``threads`` run's jobs go
    # through the pool (a one-slice batch runs inline on either).
    ssc = StreamingContext(exec_sc, num_slices=4)
    source, events = ssc.queue_stream(batches)

    joined = events.join_static(REFERENCE, INTERSECTS).collect_batches()
    win = events.window(length=WINDOW)
    knn_sink = win.knn(QUERY, K)
    cluster_sink = win.cluster(EPS, MIN_PTS)

    ssc.run_batches(BATCHES, batch_times=[0.0] * BATCHES)
    ssc.stop()  # flushes the remaining open windows

    # -- stream-static join: against an exhaustive nested-loop join --
    expected_pairs = sorted(
        (value, ref_value)
        for rows in batches
        for st, value in rows
        for ref_st, ref_value in REFERENCE
        if INTERSECTS.spatial(st.geo, ref_st.geo)
    )
    flat = sorted(p for _b, rows in joined.results() for p in canon_join(rows))
    assert flat == expected_pairs

    # -- windowed kNN and DBSCAN: per window, against batch recompute --
    expected = expected_windows(batches)
    knn_got = dict(knn_sink.results())
    cluster_got = dict(cluster_sink.results())
    assert sorted(knn_got) == sorted(expected)
    assert sorted(cluster_got) == sorted(expected)

    for window, rows in expected.items():
        batch_rdd = exec_sc.parallelize(rows, min(2, len(rows)))
        assert canon_knn(knn_got[window]) == canon_knn(
            knn(batch_rdd, QUERY, K)
        ), f"kNN mismatch in {window}"
        assert canon_clusters(cluster_got[window]) == canon_clusters(
            dbscan(exec_sc.parallelize(rows, min(2, len(rows))), EPS, MIN_PTS).collect()
        ), f"DBSCAN mismatch in {window}"


def test_within_distance_static_equals_exhaustive(exec_sc):
    batches = make_batches(seed=31)
    max_distance = 6.0
    ssc = StreamingContext(exec_sc, num_slices=4)
    source, events = ssc.queue_stream(batches)
    sink = events.within_distance_static(REFERENCE, max_distance).collect_batches()
    ssc.run_batches(BATCHES, batch_times=[0.0] * BATCHES)
    ssc.stop()

    predicate = within_distance_predicate(max_distance)
    expected = sorted(
        (value, ref_value)
        for rows in batches
        for st, value in rows
        for ref_st, ref_value in REFERENCE
        if predicate.spatial(st.geo, ref_st.geo)
    )
    got = sorted(
        pair for _b, rows in sink.results() for pair in canon_join(rows)
    )
    assert got == expected


@pytest.mark.parametrize(
    "distance_fn, max_distance", [("euclidean", 5.0), ("haversine", 500_000.0)]
)
def test_continuous_within_distance_join_equals_per_batch(sc, distance_fn, max_distance):
    """Points meet points only at a distance, so a probe that ignores
    the candidate region finds (next to) none of these pairs."""
    reference = [
        (STObject(f"POINT ({x} {y})"), name)
        for x, y, name in ((10, 10, "w"), (13, 8, "sw"), (40, 15, "e"), (25, 40, "n"))
    ]
    batches = make_batches(seed=41)
    ssc = StreamingContext(sc)
    source, events = ssc.queue_stream(batches)
    per_batch = events.within_distance_static(reference, max_distance, distance_fn).collect_batches()
    predicate = within_distance_predicate(max_distance, distance_fn)
    continuous = events.continuous(length=WINDOW).intersects_static(reference, predicate)
    ssc.run_batches(BATCHES, batch_times=[0.0] * BATCHES)
    ssc.stop()

    matches: dict = {}
    for _batch, rows in per_batch.results():
        for (_st, value), (_ref, ref_value) in rows:
            matches.setdefault(value, []).append(ref_value)
    expected = {
        window: sorted((v, rv) for _st, v in rows for rv in matches.get(v, ()))
        for window, rows in expected_windows(batches).items()
    }
    assert sum(map(len, expected.values())) > 100
    assert {w: canon_join(rows) for w, rows in continuous.results()} == expected


def test_hotspots_summarize_windowed_dbscan(sc):
    batches = make_batches(seed=37)
    ssc = StreamingContext(sc)
    source, events = ssc.queue_stream(batches)
    win = events.window(length=WINDOW)
    hotspot_sink = win.hotspots(EPS, MIN_PTS, min_size=MIN_PTS)
    cluster_sink = win.cluster(EPS, MIN_PTS)
    ssc.run_batches(BATCHES, batch_times=[0.0] * BATCHES)
    ssc.stop()

    clusters = dict(cluster_sink.results())
    for window, spots in hotspot_sink.results():
        labelled = clusters[window]
        sizes: dict[int, int] = {}
        for _st, (_value, label) in labelled:
            if label >= 0:
                sizes[label] = sizes.get(label, 0) + 1
        expected_sizes = sorted(
            (s for s in sizes.values() if s >= MIN_PTS), reverse=True
        )
        assert [size for _label, size, _c in spots] == expected_sizes
        for _label, size, (cx, cy) in spots:
            members = [
                st
                for st, (_v, label) in labelled
                if label == _label
            ]
            assert len(members) == size
            assert cx == pytest.approx(
                sum(m.geo.centroid().x for m in members) / size
            )
            assert cy == pytest.approx(
                sum(m.geo.centroid().y for m in members) / size
            )


@pytest.mark.parametrize("handle", ["window", "continuous"])
@pytest.mark.parametrize(
    "register, message",
    [
        (lambda w: w.knn(QUERY, 0), "k must be >= 1, got 0"),
        (lambda w: w.knn(QUERY, 2, distance_fn="nope"), "unknown distance function 'nope'"),
        (lambda w: w.hotspots(-1.0, 3), "eps must be positive, got -1.0"),
        (lambda w: w.hotspots(1.0, 0), "min_pts must be >= 1, got 0"),
        (lambda w: w.cluster(0.0, 3), "eps must be positive, got 0.0"),
    ],
    ids=["k0", "distance_fn", "eps", "min_pts", "cluster_eps"],
)
def test_windowed_operator_arguments_rejected_at_registration(sc, handle, register, message):
    """A bad argument fails the registering call, not every batch that
    closes a window."""
    ssc = StreamingContext(sc)
    source, events = ssc.queue_stream()
    windowed = getattr(events, handle)(length=2.0)
    with pytest.raises(ValueError, match=message):
        register(windowed)
    for t in range(4):
        source.push([(STObject(f"POINT ({t} {t})", float(t)), t)])
    assert ssc.run_batches(4, batch_times=[0.0] * 4) == 4
    ssc.stop()
    assert (ssc.metrics.batches_failed, ssc.metrics.batch_retries) == (0, 0)

"""The keyed streaming-state correctness gate.

The continuous-query layer's contract mirrors the buffered window
path's: every closed window's answer must equal a batch recomputation
over exactly that window's records -- while the keyed store holds one
copy of each record no matter how many sliding windows it spans.  This
suite pins the equality for range, kNN and stream-static join under
the threads and processes executors, checks the store's incremental
bookkeeping (single-copy inserts, watermark-driven eviction, cell
extents that removals loosen and the next scan makes exact), and
replays the whole pipeline under seeded chaos to show absorption stays
exactly-once across injected faults.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos import FaultInjector
from repro.core.knn import knn
from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.geometry.distance import euclidean, haversine
from repro.geometry.envelope import Envelope
from repro.spark.context import SparkContext
from repro.streaming import (
    KeyedStateStore,
    KeyedWindowState,
    StreamingContext,
    WindowSpec,
)
from repro.streaming.operators import relax_static

BACKENDS = ["threads", "processes"]

LENGTH = 10.0
SLIDE = 5.0
BATCHES = 5
PER_BATCH = 24

REFERENCE = [
    (STObject("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))"), "west"),
    (STObject("POLYGON ((35 10, 45 10, 45 20, 35 20, 35 10))"), "east"),
    (STObject("POLYGON ((20 35, 30 35, 30 45, 20 45, 20 35))"), "north"),
]
RANGE_QUERY = STObject("POLYGON ((8 8, 42 8, 42 18, 8 18, 8 8))")
KNN_QUERY = STObject("POINT (25 25)")
K = 7


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
            t = b * LENGTH / 2 + rng.uniform(0.0, LENGTH)
            rows.append((STObject(f"POINT ({x} {y})", t), (b, i)))
        batches.append(rows)
    return batches


def expected_windows(batches, spec):
    """Batch-side ground truth: records grouped by window membership."""
    grouped: dict = {}
    for rows in batches:
        for st, value in rows:
            for window in spec.assign(st.time.start, st.time.end):
                grouped.setdefault(window, []).append((st, value))
    return dict(sorted(grouped.items()))


def canon_knn(result):
    return sorted((round(d, 9), v) for d, (_st, v) in result)


def canon_join(rows):
    return sorted((sv, rv) for (_s, sv), (_r, rv) in rows)


@pytest.fixture(params=BACKENDS)
def exec_sc(request):
    with SparkContext(
        f"state-gate-{request.param}",
        parallelism=2,
        executor=request.param,
        retry_backoff=0.0,
    ) as context:
        yield context


def run_continuous(sc, batches):
    """Feed *batches* through one continuous stream; returns the sinks
    and the consumer (store access) after a full run + flush."""
    ssc = StreamingContext(sc)
    source, events = ssc.queue_stream(batches)
    cont = events.continuous(length=LENGTH, slide=SLIDE)
    sinks = {
        "range": cont.range(RANGE_QUERY),
        "knn": cont.knn(KNN_QUERY, K),
        "join": cont.intersects_static(REFERENCE),
    }
    ssc.run_batches(len(batches), batch_times=[0.0] * len(batches))
    ssc.stop()
    return sinks, cont.consumer, ssc


class TestContinuousEqualsBatchRecompute:
    def test_range_knn_join_pinned_to_batch(self, exec_sc):
        batches = make_batches()
        sinks, consumer, _ssc = run_continuous(exec_sc, batches)
        expected = expected_windows(batches, consumer.spec)

        range_got = dict(sinks["range"].results())
        knn_got = dict(sinks["knn"].results())
        join_got = dict(sinks["join"].results())
        assert sorted(range_got) == sorted(expected)
        assert sorted(knn_got) == sorted(expected)
        assert sorted(join_got) == sorted(expected)

        predicate = relax_static(INTERSECTS)
        for window, rows in expected.items():
            want_range = sorted(
                v for st, v in rows if predicate.evaluate(st, RANGE_QUERY)
            )
            assert sorted(v for _st, v in range_got[window]) == want_range, window
            assert want_range, f"degenerate fixture: empty range result in {window}"

            batch_rdd = exec_sc.parallelize(rows, min(2, len(rows)))
            assert canon_knn(knn_got[window]) == canon_knn(
                knn(batch_rdd, KNN_QUERY, K)
            ), f"kNN mismatch in {window}"

            want_join = sorted(
                (sv, rv)
                for st, sv in rows
                for ref_st, rv in REFERENCE
                if INTERSECTS.spatial(st.geo, ref_st.geo)
            )
            assert canon_join(join_got[window]) == want_join, window

    def test_store_holds_one_copy_per_record(self, exec_sc):
        batches = make_batches(seed=31)
        total = sum(len(rows) for rows in batches)
        _sinks, consumer, _ssc = run_continuous(exec_sc, batches)
        store = consumer.store
        # Length/slide = 2 windows per record, yet each record was
        # inserted exactly once -- the single-copy cost profile.
        assert store.inserts == total
        # stop() flushed every window, so everything was evicted too.
        assert store.removes == total
        assert store.size == 0


class TestKeyedStoreUnit:
    def make_store(self, grid=4):
        return KeyedStateStore(Envelope(0.0, 0.0, 50.0, 50.0), grid=grid)

    def fill(self, store, n=12):
        rows = []
        for i in range(n):
            st = STObject(f"POINT ({(7 * i) % 50} {(11 * i) % 50})", float(i))
            store.insert(i, st, i, float(i), float(i))
            rows.append((st, i))
        return rows

    def test_grid_without_universe_is_fixed_by_cover_not_by_insert(self):
        point = STObject("POINT (3 4)", 1.0)
        store = KeyedStateStore(None, grid=4)
        with pytest.raises(ValueError, match="unfixed"):
            store.insert(0, point, "v", 1.0, 1.0)
        store.cover([(point, "v"), (STObject("POINT (9 9)", 2.0), "w")])
        store.insert(0, point, "v", 1.0, 1.0)
        assert store.snapshot()["universe"] == (3.0, 4.0, 9.0, 9.0)
        # One cell has nothing to place: no universe is ever needed.
        KeyedStateStore(None, grid=1).insert(0, point, "v", 1.0, 1.0)

    def test_knn_equals_brute_force(self):
        store = self.make_store()
        rows = self.fill(store)
        got = store.query_knn(KNN_QUERY, 5)
        brute = sorted((euclidean(st.geo, KNN_QUERY.geo), v) for st, v in rows)[:5]
        assert [(round(d, 9), v) for d, (_st, v) in got] == [
            (round(d, 9), v) for d, v in brute
        ]

    def test_non_euclidean_knn_scans_without_pruning(self):
        # Envelope bounds are only admissible for euclidean; haversine
        # must still return the true nearest set (full scan path).
        store = self.make_store()
        rows = self.fill(store)
        got = store.query_knn(KNN_QUERY, 3, distance_fn=haversine)
        brute = sorted(
            (haversine(st.geo, KNN_QUERY.geo), v) for st, v in rows
        )[:3]
        assert [(round(d, 6), v) for d, (_st, v) in got] == [
            (round(d, 6), v) for d, v in brute
        ]

    def test_temporal_extent_prunes_cells_per_window(self):
        from repro.streaming.window import Window

        store = self.make_store()
        self.fill(store)
        early = store.iter_window(Window(0.0, 3.0))
        assert sorted(v for _rid, _st, v in early) == [0, 1, 2]
        assert list(store.iter_window(Window(100.0, 200.0))) == []

    def test_remove_retires_cells(self):
        store = self.make_store(grid=2)
        self.fill(store, n=6)
        store.query_range(STObject("POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))"))
        for i in range(6):
            store.remove(i)
        assert store.size == 0
        assert store.cells_used == 0

    def test_extent_exact_after_scan(self):
        def members(cell):
            rows = cell.registry.values()
            env = Envelope.empty()
            for st, _value, _t_start, _t_end in rows:
                env = env.merge(st.geo.envelope)
            return env, min(row[2] for row in rows), max(row[3] for row in rows)

        store = KeyedStateStore(Envelope(0.0, 0.0, 50.0, 50.0), grid=1)
        self.fill(store, n=12)
        # A polygon reaching out of the cell's members, then gone again.
        store.insert(50, STObject("POLYGON ((40 40, 60 40, 60 60, 40 60, 40 40))"), 50, 30.0, 40.0)
        for rid in (50, 0, 11):
            store.remove(rid)
        (cell,) = store._cells.values()
        live, t_min, t_max = members(cell)
        # Stale: never smaller than the live members' extent.
        assert cell.extent.contains(live) and cell.extent != live
        assert cell.t_min <= t_min and cell.t_max >= t_max
        assert (cell.t_min, cell.t_max) != (t_min, t_max)
        # A range query scans the cell and makes its extents exact again.
        store.query_range(STObject("POINT (7 11)"))
        assert cell.extent == live
        assert (cell.t_min, cell.t_max) == (t_min, t_max)

    def test_window_state_eviction_follows_watermark(self):
        store = self.make_store()
        state = KeyedWindowState(WindowSpec(10.0, 5.0), store)
        state.add_batch([(STObject("POINT (1 1)", 2.0), "a")], 0.0)
        state.add_batch([(STObject("POINT (2 2)", 14.0), "b")], 0.0)
        # Watermark 14: windows [-5,5) and [0,10) are ready; "a"'s last
        # window [0,10) has not fired yet, so it is still live.
        ready = state.ready_windows()
        assert [w.start for w in ready] == [-5.0, 0.0]
        assert state.close_window(ready[0]) == []
        assert store.size == 2
        evicted = state.close_window(ready[1])
        assert len(evicted) == 1
        assert store.size == 1  # only "b" remains


class TestContinuousChaos:
    def chaos_run(self, seed):
        injector = (
            FaultInjector(seed=seed)
            .fail("source.poll", times=1, per_key=False)
            .fail("batch.run", times=1, per_key=True)
            .fail("state.update", times=1, per_key=True)
        )
        with SparkContext(
            "state-chaos",
            parallelism=2,
            executor="sequential",
            retry_backoff=0.0,
            fault_injector=injector,
        ) as sc:
            # Attempts per batch: one each for the batch.run and
            # state.update faults, one per window closing in it (below).
            ssc = StreamingContext(sc, max_batch_failures=8)
            batches = make_batches(seed=43)
            source, events = ssc.queue_stream(batches)
            # Registered first, so the state.update fault (the first
            # check of each batch id) lands in the window() consumer.
            windowed = events.window(length=LENGTH, slide=SLIDE)
            # The first delivery of every window fails *after* both
            # consumers absorbed the batch: the retry must re-fire the
            # still-open window without absorbing the batch twice.
            delivered, armed = set(), [True]

            def fail_first_delivery(window, _rdd):
                if armed[0] and window not in delivered:
                    delivered.add(window)
                    raise RuntimeError(f"first delivery of {window} fails")

            windowed.for_each_window(fail_first_delivery)
            cont = events.continuous(length=LENGTH, slide=SLIDE)
            sinks = {
                "window": windowed.collect_windows(),
                "range": cont.range(RANGE_QUERY),
                "knn": cont.knn(KNN_QUERY, K),
                "join": cont.intersects_static(REFERENCE),
            }
            # One extra tick: the poll fault delays one batch's records.
            ssc.run_batches(BATCHES + 1, batch_times=[0.0] * (BATCHES + 1))
            armed[0] = False  # the shutdown flush has no retry envelope
            ssc.stop()
        return {name: sink.results() for name, sink in sinks.items()}, ssc.metrics

    def test_chaos_results_equal_clean_run_and_replay(self):
        clean, _ = TestContinuousChaos.clean_run()
        chaotic, metrics = self.chaos_run(seed=7)
        replay, _ = self.chaos_run(seed=7)
        # Injected faults happened and were absorbed...
        assert metrics.batch_retries >= 1
        assert metrics.batches_failed == 0
        assert clean["window"], "the window() sink saw no window"
        # ...without duplicating or dropping a single window result.
        assert chaotic == clean
        # And the seeded scenario replays identically.
        assert replay == chaotic

    def test_state_update_site_fires_for_window_consumers(self):
        """``window()`` sits on the store too, so its absorb is behind
        the ``state.update`` site: every batch id's first check fails,
        is retried, and no window result changes."""
        injector = FaultInjector(seed=7).fail("state.update", times=1, per_key=True)
        with SparkContext(
            "window-chaos",
            parallelism=2,
            executor="sequential",
            retry_backoff=0.0,
            fault_injector=injector,
        ) as sc:
            ssc = StreamingContext(sc)
            source, events = ssc.queue_stream(make_batches(seed=43))
            sink = events.window(length=LENGTH, slide=SLIDE).collect_windows()
            ssc.run_batches(BATCHES, batch_times=[0.0] * BATCHES)
            ssc.stop()
        assert ssc.metrics.batch_retries == BATCHES
        assert ssc.metrics.batches_failed == 0
        clean, _ = self.clean_run()
        assert sink.results() == clean["window"]

    @staticmethod
    def clean_run():
        with SparkContext(
            "state-clean",
            parallelism=2,
            executor="sequential",
            retry_backoff=0.0,
        ) as sc:
            ssc = StreamingContext(sc)
            batches = make_batches(seed=43)
            source, events = ssc.queue_stream(batches)
            windowed = events.window(length=LENGTH, slide=SLIDE)
            cont = events.continuous(length=LENGTH, slide=SLIDE)
            sinks = {
                "window": windowed.collect_windows(),
                "range": cont.range(RANGE_QUERY),
                "knn": cont.knn(KNN_QUERY, K),
                "join": cont.intersects_static(REFERENCE),
            }
            ssc.run_batches(BATCHES, batch_times=[0.0] * BATCHES)
            ssc.stop()
        return {name: sink.results() for name, sink in sinks.items()}, ssc.metrics

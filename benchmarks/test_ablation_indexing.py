"""Ablation: the three indexing modes (paper section 2.2).

Live indexing rebuilds per-partition R-trees on every query; the
persistent mode builds once and reuses -- including across programs via
save/load.  This benchmark shows the crossover: for a single query live
indexing pays the build without amortizing it, while a query *sequence*
amortizes the persistent build.

A persisted RDD keeps its live indexes after the first query, so the
live rows run over an unpersisted view of the events (every query pays
the build, as in the paper's live mode); one more row times live
indexing over the persisted RDD itself (built once, reused).
"""

from __future__ import annotations

import pytest

from repro.core import filter as filter_ops
from repro.core.predicates import INTERSECTS
from repro.core.spatial_rdd import spatial
from repro.core.stobject import STObject

ROUNDS = 3

QUERIES = [
    STObject(
        f"POLYGON (({x} {y}, {x + 150} {y}, {x + 150} {y + 150}, {x} {y + 150}, {x} {y}))",
        0,
        1_000_000,
    )
    for x, y in [(100, 100), (400, 400), (700, 200), (200, 700), (500, 100)]
]


@pytest.fixture(scope="module")
def unpersisted_events(filter_events_rdd):
    """The same rows, not persisted: live queries over it always build."""
    return filter_events_rdd.map(lambda kv: kv)


@pytest.fixture(scope="module")
def indexed_handle(filter_events_rdd):
    handle = spatial(filter_events_rdd).index(order=10)
    handle.intersects(QUERIES[0]).count()  # materialize the trees
    return handle


@pytest.fixture(scope="module")
def expected_counts(filter_events_rdd):
    return [
        filter_ops.filter_no_index(filter_events_rdd, q, INTERSECTS).count()
        for q in QUERIES
    ]


class TestIndexingModes:
    def test_query_sequence_no_index(self, benchmark, filter_events_rdd, expected_counts):
        counts = benchmark.pedantic(
            lambda: [
                filter_ops.filter_no_index(filter_events_rdd, q, INTERSECTS).count()
                for q in QUERIES
            ],
            rounds=ROUNDS,
        )
        assert counts == expected_counts

    def test_query_sequence_live_index(self, benchmark, unpersisted_events, expected_counts):
        counts = benchmark.pedantic(
            lambda: [
                filter_ops.filter_live_index(
                    unpersisted_events, q, INTERSECTS, order=10
                ).count()
                for q in QUERIES
            ],
            rounds=ROUNDS,
        )
        assert counts == expected_counts

    def test_query_sequence_live_index_persisted_reused(
        self, benchmark, filter_events_rdd, expected_counts
    ):
        counts = benchmark.pedantic(
            lambda: [
                filter_ops.filter_live_index(
                    filter_events_rdd, q, INTERSECTS, order=10
                ).count()
                for q in QUERIES
            ],
            rounds=ROUNDS,
        )
        assert counts == expected_counts

    def test_query_sequence_persistent_index(
        self, benchmark, indexed_handle, expected_counts
    ):
        counts = benchmark.pedantic(
            lambda: [indexed_handle.intersects(q).count() for q in QUERIES],
            rounds=ROUNDS,
        )
        assert counts == expected_counts

    def test_index_build_cost(self, benchmark, unpersisted_events):
        def build():
            handle = spatial(unpersisted_events).index(order=10)
            handle.tree_rdd.count()  # force materialization
            handle.tree_rdd.unpersist()
            return handle

        assert benchmark.pedantic(build, rounds=ROUNDS) is not None

    @pytest.mark.parametrize("order", [4, 10, 32, 64])
    def test_tree_order_sweep(self, benchmark, unpersisted_events, order):
        """The R-tree order parameter exposed by liveIndex(order=...)."""
        count = benchmark.pedantic(
            lambda: filter_ops.filter_live_index(
                unpersisted_events, QUERIES[0], INTERSECTS, order=order
            ).count(),
            rounds=ROUNDS,
        )
        assert count > 0


class TestIndexingShape:
    def test_persistent_beats_live_for_query_sequences(
        self, best_pair, unpersisted_events, indexed_handle
    ):
        persistent, live = best_pair(
            lambda: [indexed_handle.intersects(q).count() for q in QUERIES],
            lambda: [
                filter_ops.filter_live_index(
                    unpersisted_events, q, INTERSECTS, order=10
                ).count()
                for q in QUERIES
            ],
        )
        print(f"\n5-query sequence: live={live:.3f}s persistent={persistent:.3f}s")
        assert persistent < live

    def test_reloaded_index_as_fast_as_fresh(
        self, best_pair, sc, indexed_handle, expected_counts, tmp_path_factory
    ):
        from repro.core.spatial_rdd import IndexedSpatialRDD

        path = str(tmp_path_factory.mktemp("bench") / "idx")
        indexed_handle.save(path)
        reloaded = IndexedSpatialRDD.load(sc, path)
        counts = [reloaded.intersects(q).count() for q in QUERIES]  # warm cache
        assert counts == expected_counts
        warm, fresh = best_pair(
            lambda: [reloaded.intersects(q).count() for q in QUERIES],
            lambda: [indexed_handle.intersects(q).count() for q in QUERIES],
        )
        assert warm < fresh * 3  # same order of magnitude

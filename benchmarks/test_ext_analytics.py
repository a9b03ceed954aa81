"""Extension benchmark: co-location analytics."""

from __future__ import annotations

import pytest

from repro.core.colocation import colocation_patterns
from repro.core.stobject import STObject
from repro.io.datagen import clustered_points

ROUNDS = 3


class TestColocationBench:
    def test_colocation_mining(self, benchmark, sc, sizes):
        # smaller input: the neighbour join is quadratic in density
        n = max(500, sizes["cluster_points"])
        pts = clustered_points(n, num_clusters=8, seed=1715)
        categories = ("a", "b", "c")
        rdd = sc.parallelize(
            [(STObject(p), categories[i % 3]) for i, p in enumerate(pts)], 6
        ).persist()
        rdd.count()
        patterns = benchmark.pedantic(
            lambda: colocation_patterns(rdd, distance=10.0), rounds=ROUNDS
        )
        indices = [p.participation_index for p in patterns]
        assert indices == sorted(indices, reverse=True)

"""Seeded input generation, owned by the benchmark.

Nothing here calls ``repro.io.datagen`` or ``GeneratorSource``: a change
to either must not change the load.  Generators return plain Python
values -- event rows ``(id, category, time, wkt)``, WKT strings and
numbers -- and the workloads hand them to the program through its
public constructors and readers.  ``digest`` fingerprints whatever was
generated, so two runs can prove they measured the same inputs.
"""

from __future__ import annotations

import hashlib
import math
import random

#: The data space every workload draws from.
EXTENT = 1000.0
CATEGORIES = ("accident", "concert", "protest", "sports")

Row = tuple[int, str, float, str]


def digest(*parts) -> str:
    """A short fingerprint of generated inputs (order-sensitive)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def point_wkt(x: float, y: float) -> str:
    return f"POINT ({x!r} {y!r})"


def box_wkt(x0: float, y0: float, x1: float, y1: float) -> str:
    return (
        f"POLYGON (({x0!r} {y0!r}, {x1!r} {y0!r}, {x1!r} {y1!r}, "
        f"{x0!r} {y1!r}, {x0!r} {y0!r}))"
    )


def cluster_centres(rng: random.Random, n: int = 20) -> list[tuple[float, float]]:
    """Where the clusters sit: the same skewed layout for every seed.

    The layout decides partition sizes, pruning and how many queries
    cross a partition border, i.e. the cost of an operation.  The driver
    compares runs made with *different* seeds, so the seed moves each
    centre by a few units only; points, times and queries are what it
    draws afresh.
    """
    layout = random.Random(20170321)  # EDBT 2017; a constant, not the run's seed
    return [
        (
            layout.uniform(0.1, 0.9) * EXTENT + rng.uniform(-5.0, 5.0),
            layout.uniform(0.1, 0.9) * EXTENT + rng.uniform(-5.0, 5.0),
        )
        for _ in range(n)
    ]


def clustered_point(
    rng: random.Random, centres: list[tuple[float, float]], sigma: float
) -> tuple[float, float]:
    cx, cy = centres[rng.randrange(len(centres))]
    x = min(EXTENT, max(0.0, rng.gauss(cx, sigma)))
    y = min(EXTENT, max(0.0, rng.gauss(cy, sigma)))
    return x, y


def clustered_rows(
    rng: random.Random,
    n: int,
    centres: list[tuple[float, float]],
    sigma: float,
    time_span: float,
) -> tuple[list[Row], list[tuple[float, float, float]]]:
    """Event rows of clustered, timed points plus their ``(x, y, t)``."""
    rows: list[Row] = []
    coords: list[tuple[float, float, float]] = []
    for i in range(n):
        x, y = clustered_point(rng, centres, sigma)
        t = rng.uniform(0.0, time_span)
        rows.append((i, CATEGORIES[i % len(CATEGORIES)], t, point_wkt(x, y)))
        coords.append((x, y, t))
    return rows, coords


def uniform_rows(
    rng: random.Random, n: int, time_span: float
) -> tuple[list[Row], list[tuple[float, float, float]]]:
    """Event rows of uniformly placed, timed points plus their ``(x, y, t)``."""
    rows: list[Row] = []
    coords: list[tuple[float, float, float]] = []
    for i in range(n):
        x = rng.uniform(0.0, EXTENT)
        y = rng.uniform(0.0, EXTENT)
        t = rng.uniform(0.0, time_span)
        rows.append((i, CATEGORIES[i % len(CATEGORIES)], t, point_wkt(x, y)))
        coords.append((x, y, t))
    return rows, coords


def polygon_ring(
    rng: random.Random, cx: float, cy: float, r_min: float, r_max: float
) -> list[tuple[float, float]]:
    """A closed, convex-ish ring of 5-8 vertices around ``(cx, cy)``."""
    k = rng.randrange(5, 9)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ring = []
    for a in range(k):
        r = rng.uniform(r_min, r_max)
        angle = phase + 2.0 * math.pi * a / k
        ring.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    ring.append(ring[0])
    return ring


def ring_wkt(ring: list[tuple[float, float]]) -> str:
    return "POLYGON ((" + ", ".join(f"{x!r} {y!r}" for x, y in ring) + "))"


def grid_districts(n: int) -> list[tuple[int, tuple[float, float, float, float]]]:
    """An ``n x n`` grid of district boxes covering the extent."""
    side = EXTENT / n
    return [
        (iy * n + ix, (ix * side, iy * side, (ix + 1) * side, (iy + 1) * side))
        for iy in range(n)
        for ix in range(n)
    ]

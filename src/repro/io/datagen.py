"""Seeded synthetic spatio-temporal workload generators.

These stand in for the paper's real-world datasets (Wikipedia events
and the 1M-point micro-benchmark input).  Each generator is
deterministic given its seed, so benchmark runs are reproducible.

The generators produce the two density regimes the evaluation depends
on:

- :func:`uniform_points` -- the even case where a fixed grid
  partitioner is adequate,
- :func:`clustered_points` / :func:`world_events` -- the skewed case
  the paper motivates ("events only occur on land, but not on sea")
  where the cost-based BSP partitioner pays off.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Iterator, Sequence

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

DEFAULT_BOUNDS = Envelope(0.0, 0.0, 1000.0, 1000.0)


def uniform_points(
    n: int, bounds: Envelope = DEFAULT_BOUNDS, seed: int = 17
) -> list[Point]:
    """*n* points uniform over *bounds*."""
    rng = random.Random(seed)
    return [
        Point(rng.uniform(bounds.min_x, bounds.max_x), rng.uniform(bounds.min_y, bounds.max_y))
        for _ in range(n)
    ]


def clustered_points(
    n: int,
    num_clusters: int = 8,
    sigma_fraction: float = 0.02,
    bounds: Envelope = DEFAULT_BOUNDS,
    seed: int = 17,
    noise_fraction: float = 0.05,
) -> list[Point]:
    """*n* points in Gaussian blobs with a uniform noise floor.

    ``sigma_fraction`` scales the blob spread relative to the universe
    diagonal; ``noise_fraction`` of points are uniform background.
    Points are clamped into *bounds* so partitioner universes stay tight.
    """
    rng = random.Random(seed)
    sigma = sigma_fraction * math.hypot(bounds.width, bounds.height)
    centers = [
        (rng.uniform(bounds.min_x, bounds.max_x), rng.uniform(bounds.min_y, bounds.max_y))
        for _ in range(num_clusters)
    ]
    points: list[Point] = []
    for _ in range(n):
        if rng.random() < noise_fraction:
            x = rng.uniform(bounds.min_x, bounds.max_x)
            y = rng.uniform(bounds.min_y, bounds.max_y)
        else:
            cx, cy = rng.choice(centers)
            x = min(max(rng.gauss(cx, sigma), bounds.min_x), bounds.max_x)
            y = min(max(rng.gauss(cy, sigma), bounds.min_y), bounds.max_y)
        points.append(Point(x, y))
    return points


def self_join_pairs(points: Sequence[Point]) -> int:
    """The pairs an intersects self-join of *points* returns.

    A point meets exactly the points at its coordinates, itself
    included, so *m* coincident points add ``m * m`` pairs.
    """
    return sum(m * m for m in Counter((p.x, p.y) for p in points).values())


#: Hand-placed "continents" (fractions of the universe) used by
#: :func:`world_events`: events land inside these, the rest is "sea".
_LANDMASSES = (
    (0.05, 0.45, 0.30, 0.95),  # north-west block
    (0.15, 0.05, 0.35, 0.40),  # south-west block
    (0.45, 0.35, 0.60, 0.90),  # central block
    (0.55, 0.05, 0.75, 0.30),  # southern block
    (0.65, 0.45, 0.95, 0.85),  # eastern block
)


def world_events(
    n: int, bounds: Envelope = DEFAULT_BOUNDS, seed: int = 17
) -> list[Point]:
    """Events on "land" only: the world-map skew from the paper's example.

    A fixed grid over this distribution produces empty "sea" cells and
    overfull "city" cells; BSP equalizes the cost.
    """
    rng = random.Random(seed)
    land = [
        Envelope(
            bounds.min_x + fx0 * bounds.width,
            bounds.min_y + fy0 * bounds.height,
            bounds.min_x + fx1 * bounds.width,
            bounds.min_y + fy1 * bounds.height,
        )
        for fx0, fy0, fx1, fy1 in _LANDMASSES
    ]
    # Population is uneven across landmasses: a few dense "urban" spots.
    hotspots = []
    for mass in land:
        for _ in range(3):
            hotspots.append(
                (
                    rng.uniform(mass.min_x, mass.max_x),
                    rng.uniform(mass.min_y, mass.max_y),
                    0.03 * min(mass.width, mass.height) + 1e-9,
                )
            )
    points: list[Point] = []
    while len(points) < n:
        if rng.random() < 0.7:
            cx, cy, spread = rng.choice(hotspots)
            x, y = rng.gauss(cx, spread), rng.gauss(cy, spread)
        else:
            mass = rng.choice(land)
            x = rng.uniform(mass.min_x, mass.max_x)
            y = rng.uniform(mass.min_y, mass.max_y)
        if any(mass.contains_point(x, y) for mass in land):
            points.append(Point(x, y))
    return points


def random_polygons(
    n: int,
    bounds: Envelope = DEFAULT_BOUNDS,
    mean_radius_fraction: float = 0.01,
    vertices: int = 8,
    seed: int = 17,
) -> list[Polygon]:
    """*n* random convex-ish polygons (regular n-gons with jittered radii)."""
    rng = random.Random(seed)
    mean_radius = mean_radius_fraction * math.hypot(bounds.width, bounds.height)
    polygons: list[Polygon] = []
    for _ in range(n):
        cx = rng.uniform(bounds.min_x, bounds.max_x)
        cy = rng.uniform(bounds.min_y, bounds.max_y)
        ring = []
        for v in range(vertices):
            angle = 2 * math.pi * v / vertices
            radius = mean_radius * rng.uniform(0.5, 1.5)
            ring.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
        polygons.append(Polygon(ring))
    return polygons


def event_rows(
    points: Sequence[Point],
    time_range: tuple[float, float] = (0.0, 1_000_000.0),
    categories: Sequence[str] = ("accident", "concert", "protest", "sports"),
    seed: int = 17,
) -> list[tuple[int, str, float, str]]:
    """Wrap points into the paper's input schema ``(id, category, time, wkt)``,
    each row timed by an instant."""
    rng = random.Random(seed)
    lo, hi = time_range
    rows = []
    for i, point in enumerate(points):
        t = rng.uniform(lo, hi)
        rows.append((i, rng.choice(categories), t, point.wkt()))
    return rows


def timed_stobjects(
    points: Sequence[Point],
    time_range: tuple[float, float] = (0.0, 1_000_000.0),
    seed: int = 17,
    interval_fraction: float = 0.0,
    max_duration: float = 10_000.0,
) -> Iterator[STObject]:
    """Points wrapped as STObjects with instants or intervals."""
    rng = random.Random(seed)
    lo, hi = time_range
    for point in points:
        start = rng.uniform(lo, hi)
        if rng.random() < interval_fraction:
            yield STObject(point, start, start + rng.uniform(0, max_duration))
        else:
            yield STObject(point, start)

"""Shared kNN fixtures: grid-aligned rows and queries, where ties abound."""

import random

from repro.core.knn import exact_distance_to, query_radius
from repro.core.stobject import STObject
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.temporal import Interval


def square(x, y, w, h):
    return [(x, y), (x + w, y), (x + w, y + h), (x, y + h), (x, y)]


def mixed_rows(n, seed, timed_share=0.0):
    """``(STObject, id)`` rows on a 24 x 24 integer grid: points (duplicates
    common), short lines and small boxes, a share of them timed."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        x, y = float(rng.randrange(24)), float(rng.randrange(24))
        w, h = rng.choice((0.0, 0.0, 1.0, 2.0)), rng.choice((0.0, 0.0, 1.0, 2.0))
        when = (float(rng.randrange(50)), 1.0) if rng.random() < timed_share else None
        if w and h:
            geo = Polygon(square(x, y, w, h))
        else:
            geo = LineString([(x, y), (x + w, y + h)]) if w or h else Point(x, y)
        rows.append((STObject(geo, None if when is None else Interval(when[0], when[0] + when[1])), i))
    return rows


def nearest_queries(count, seed):
    """``(query geometry, k)`` pairs: points on the grid and half-way
    between, and squares, whose radius makes every bound carry slack."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        x = rng.randrange(24) + rng.choice((0.0, 0.5))
        y = rng.randrange(24) + rng.choice((0.0, 0.5))
        side = rng.choice((0.0, 0.0, 1.0, 3.0))
        geo = Polygon(square(x, y, side, side)) if side else Point(x, y)
        queries.append((geo, rng.randint(1, 12)))
    return queries


def probe(tree, geo, k, exact_distance=None):
    """*tree*'s k nearest rows to *geo*, probed the way kNN probes a tree."""
    centroid = geo.centroid()
    return tree.nearest(
        centroid.x,
        centroid.y,
        k,
        exact_distance=exact_distance or exact_distance_to(geo),
        bound_slack=query_radius(geo),
    )


def assert_matches_oracle(tree, rows, geo, k):
    """The distances are the k smallest of a scan, to the bit, and each
    belongs to the row it comes with; ties may pick any of the rows."""
    got = probe(tree, geo, k)
    distance_of = {i: st.geo.distance(geo) for st, i in rows}
    assert [d for d, _kv in got] == sorted(distance_of.values())[:k]
    assert all(d == distance_of[kv[1]] for d, kv in got)
    assert len({kv[1] for _d, kv in got}) == len(got)

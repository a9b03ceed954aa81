#!/usr/bin/env python3
"""Sweep the partition index modes against each other.

Compares the best of *R* runs per query (probe plus exact refinement,
one partition-sized index, single thread):

- ``spatial`` -- the 2D :class:`~repro.index.rtree.STRTree` that
  ``build_partition_index(mode="spatial")`` builds: time is left to
  refinement;
- ``3d-unsplit`` -- the (x, y, t) tree as it was before untimed entries
  got a 2D tree of their own: every untimed entry boxed with the time
  range (-inf, inf) in the one 3D tree (rebuilt here from the kernel's
  ``_bulk_load`` / ``_search``);
- ``3d`` -- :class:`~repro.index.rtree3d.STRTree3D`.

over the grid

- *n*: 4k and 16k rows;
- interval length: instants, 20 units, 20% of the span;
- timed fraction: 0, 50% and 100%;
- window share: 0.1%, 1% and 20% of the span;
- box: 1%, 72% and 100% of the area.

A cell's probes are timed queries unless no row is timed (then they are
untimed, the only probes that can match, and the window axis collapses).
Every structure's rows are checked against a scan on every query.

Usage::

    PYTHONPATH=src python benchmarks/sweep_index_modes.py [--queries Q]
        [--repeats R] [--seed S] [--full]

Prints a summary per timed fraction (spatial time / 3D time, min and
max over the cells; above 1 the 3D tree is faster, the choice the
planner's rule makes whenever a row is timed) and, with ``--full``,
every cell.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import statistics
import time

from repro.core.predicates import INTERSECTS
from repro.core.stobject import STObject
from repro.geometry.point import Point
from repro.index import STRTree3D, build_partition_index
from repro.index.rtree import _bulk_load, _search
from repro.temporal import Interval

EXTENT = 1000.0
SPAN = 100_000.0
NODE_CAPACITY = 10

SIZES = (4_000, 16_000)
INTERVALS = (("instant", 0.0), ("20", 20.0), ("20%", 0.2 * SPAN))
TIMED = (0.0, 0.5, 1.0)
WINDOWS = (0.001, 0.01, 0.2)
BOXES = (0.01, 0.72, 1.0)


class Unsplit3D:
    """The one-tree 3D index: untimed entries span all time."""

    def __init__(self, rows) -> None:
        inf = math.inf
        boxed = []
        for kv in rows:
            env, t = kv[0].geo.envelope, kv[0].time
            t_range = (-inf, inf) if t is None else (t.start, t.end)
            boxed.append(((env.min_x, env.min_y, env.max_x, env.max_y, *t_range), kv))
        self._root = _bulk_load(boxed, NODE_CAPACITY, 3)[0]

    def query_st(self, region, when):
        t_range = (-math.inf, math.inf) if when is None else (when.start, when.end)
        probe = (region.min_x, region.min_y, region.max_x, region.max_y, *t_range)
        return _search(self._root, probe)


STRUCTURES = (
    ("spatial", lambda rows: build_partition_index(rows, NODE_CAPACITY, "spatial")),
    ("3d-unsplit", Unsplit3D),
    ("3d", lambda rows: STRTree3D.for_stobjects(rows, node_capacity=NODE_CAPACITY)),
)


def make_rows(rng, n, length, timed_share):
    rows = []
    for i in range(n):
        geo = Point(rng.uniform(0, EXTENT), rng.uniform(0, EXTENT))
        if rng.random() < timed_share:
            start = rng.uniform(0, SPAN)
            rows.append((STObject(geo, Interval(start, start + length)), i))
        else:
            rows.append((STObject(geo), i))
    return rows


def make_queries(rng, count, box_share, window_share, timed):
    side = EXTENT * math.sqrt(box_share)
    width = SPAN * window_share
    queries = []
    for _ in range(count):
        x0, y0 = rng.uniform(0, EXTENT - side), rng.uniform(0, EXTENT - side)
        ring = [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side), (x0, y0)]
        wkt = "POLYGON((" + ", ".join(f"{x} {y}" for x, y in ring) + "))"
        if timed:
            t0 = rng.uniform(0, SPAN - width)
            queries.append(STObject(wkt, Interval(t0, t0 + width)))
        else:
            queries.append(STObject(wkt))
    return queries


def scan(rows, q):
    """The query's row ids by a plain scan (points in a box, combined
    semantics in time)."""
    env, when = q.geo.envelope, q.time
    hits = []
    for key, i in rows:
        x, y, t = key.geo.x, key.geo.y, key.time
        if not (env.min_x <= x <= env.max_x and env.min_y <= y <= env.max_y):
            continue
        if when is None or t is None:
            if when is t:
                hits.append(i)
        elif t.start <= when.end and when.start <= t.end:
            hits.append(i)
    return hits


def run_queries(index, queries):
    """Per-query seconds (probe + refinement) and each query's row ids."""
    answers = []
    began = time.perf_counter()
    for q in queries:
        candidates = index.query_st(q.geo.envelope, q.time)
        answers.append(sorted(kv[1] for kv in candidates if INTERSECTS.evaluate(kv[0], q)))
    return (time.perf_counter() - began) / len(queries), answers


def sweep(queries_per_cell, repeats, seed):
    cells = []
    for n, (length_name, length), timed_share in itertools.product(SIZES, INTERVALS, TIMED):
        rng = random.Random(f"{seed}-{n}-{length_name}-{timed_share}")
        rows = make_rows(rng, n, length, timed_share)
        built = {name: build(rows) for name, build in STRUCTURES}
        windows = WINDOWS if timed_share else WINDOWS[:1]
        for window, box in itertools.product(windows, BOXES):
            queries = make_queries(rng, queries_per_cell, box, window, timed_share > 0)
            expected = [scan(rows, q) for q in queries]
            # Round-robin over the structures, best of the repeats: host
            # drift hits all three alike.
            seconds = {name: math.inf for name in built}
            for _ in range(repeats):
                for name, index in built.items():
                    took, answers = run_queries(index, queries)
                    assert answers == expected, (name, n, length_name, timed_share, window, box)
                    seconds[name] = min(seconds[name], took)
            cells.append(
                dict(n=n, interval=length_name, timed=timed_share,
                     window=window if timed_share else None, box=box, **seconds)
            )
    return cells


def _cell_name(cell):
    window = "-" if cell["window"] is None else f"{cell['window']:.1%}"
    return (f"n={cell['n']:>5} interval={cell['interval']:<7} timed={cell['timed']:.0%}"
            f" window={window:<5} box={cell['box']:.0%}")


def report(cells, full):
    lines = ["| timed | cells | spatial / 3d-unsplit (min, median, max)"
             " | spatial / 3d (min, median, max) | slowest 3d cell |",
             "|---|---|---|---|---|"]
    for timed_share in TIMED:
        group = [c for c in cells if c["timed"] == timed_share]
        old = sorted(c["spatial"] / c["3d-unsplit"] for c in group)
        new = sorted(c["spatial"] / c["3d"] for c in group)
        worst = min(group, key=lambda c: c["spatial"] / c["3d"])
        lines.append(
            f"| {timed_share:.0%} | {len(group)} "
            f"| {old[0]:.2f}, {statistics.median(old):.2f}, {old[-1]:.2f} "
            f"| {new[0]:.2f}, {statistics.median(new):.2f}, {new[-1]:.2f} "
            f"| {_cell_name(worst)}: {worst['spatial'] * 1e3:.3f} vs {worst['3d'] * 1e3:.3f} ms |"
        )
    if full:
        lines += ["", "| cell | spatial ms | 3d-unsplit ms | 3d ms |", "|---|---|---|---|"]
        lines += [
            f"| {_cell_name(c)} | {c['spatial'] * 1e3:.3f} | {c['3d-unsplit'] * 1e3:.3f}"
            f" | {c['3d'] * 1e3:.3f} |"
            for c in cells
        ]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=10, help="queries per cell")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per cell (best)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--full", action="store_true", help="print every cell")
    args = parser.parse_args()
    print(report(sweep(args.queries, args.repeats, args.seed), args.full))


if __name__ == "__main__":
    main()

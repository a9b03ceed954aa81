"""Sequential DBSCAN over 2D points.

The per-partition algorithm of the MR-DBSCAN scheme, and the reference
the property tests compare the distributed version against.  Neighbour
queries look up a dict of eps-sized grid cells (the cells a point's
eps-box reaches, refined by exact distance), so a local run costs
``O(n)`` times the points per cell.

DBSCAN definitions used (classic, Ester et al.):

- *core point*: has at least ``min_pts`` points within ``eps``
  (the point itself counts),
- clusters grow from core points through density-reachability,
- non-core points within ``eps`` of a core point join its cluster as
  *border points* (assignment to one of several reachable clusters is
  first-come),
- everything else is *noise* (label :data:`NOISE`).
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Sequence

from repro.spark.cancellation import Heartbeat

#: Cluster label for noise points.
NOISE = -1

_UNVISITED = -2

Coord = tuple[float, float]


def local_dbscan(
    points: Sequence[Coord], eps: float, min_pts: int
) -> tuple[list[int], list[bool]]:
    """Cluster *points*; returns (labels, core flags), index-aligned.

    Labels are dense non-negative integers in first-discovery order,
    or :data:`NOISE`.

    Only each point's neighbour *set* matters (a cluster's expansion
    reaches the same points in any order), so the cells must cover every
    ``j`` passing the ``hypot`` test.  That test needs ``|fl(xj - x)| <=
    eps``, so ``|xj - x| < r``, the float after ``eps``; rounding is
    monotone, so ``fl(x - r) <= xj <= fl(x + r)`` and ``xj``'s cell lies
    between the floors of ``(x - r) / eps`` and ``(x + r) / eps``,
    however near an integer a quotient is.  A point whose quotients
    overflow (subnormal ``eps``, huge or infinite coordinates) is
    ``wide``: it scans, and is a candidate of, every point.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")

    n = len(points)
    labels = [_UNVISITED] * n
    core = [False] * n

    floor, hypot, r = math.floor, math.hypot, math.nextafter(eps, math.inf)
    cells, spans, wide = defaultdict(list), [], []  # (i, x, y) rows, eps-box spans
    for i, (x, y) in enumerate(points):
        if x != x or y != y:
            raise ValueError("DBSCAN coordinates must not be NaN")
        try:
            span = (floor((x - r) / eps), floor((x + r) / eps),
                    floor((y - r) / eps), floor((y + r) / eps))
            cells[floor(x / eps), floor(y / eps)].append((i, x, y))
        except (OverflowError, ValueError):
            span = None
            wide.append((i, x, y))
        spans.append(span)
    # Candidate rows per eps-box span, shared by the points of a cell.
    candidates = {None: [(i, x, y) for i, (x, y) in enumerate(points)]} if wide else {}

    def neighbours(i: int) -> list[int]:
        x, y = points[i]
        rows = candidates.get(spans[i])
        if rows is None:
            lo_x, hi_x, lo_y, hi_y = spans[i]
            rows = candidates[spans[i]] = list(wide)
            for cx in range(lo_x, hi_x + 1):
                for cy in range(lo_y, hi_y + 1):
                    rows += cells.get((cx, cy), ())
        return [j for j, xj, yj in rows if hypot(xj - x, yj - y) <= eps]

    # Expansion runs a neighbour search per queued point, each as long as
    # the cluster is dense; poll for cancellation once per pop so a
    # deadline can stop a runaway partition.
    heartbeat = Heartbeat(every=256)
    next_label = 0
    for seed in range(n):
        heartbeat.beat()
        if labels[seed] != _UNVISITED:
            continue
        seed_neighbours = neighbours(seed)
        if len(seed_neighbours) < min_pts:
            labels[seed] = NOISE  # may later become a border point
            continue
        # Start a new cluster and expand it breadth-first.  A point is
        # labelled when it is queued, so each is queued at most once.
        label = next_label
        next_label += 1
        labels[seed] = label
        queue = deque([seed])
        while queue:
            heartbeat.beat()
            j = queue.popleft()
            j_neighbours = seed_neighbours if j == seed else neighbours(j)
            if len(j_neighbours) < min_pts:
                continue  # a border point: labelled, not expanded
            core[j] = True
            for k in j_neighbours:
                if labels[k] == _UNVISITED:
                    labels[k] = label
                    queue.append(k)
                elif labels[k] == NOISE:
                    labels[k] = label  # border point adoption
    return labels, core

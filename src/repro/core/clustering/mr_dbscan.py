"""Distributed DBSCAN: replicate -> local cluster -> merge.

The operator follows the MR-DBSCAN scheme the paper describes: "points
that are within eps-distance from the partition border are replicated
into the respective neighbouring partitions.  In a next step a local
clustering is performed locally and in parallel on each partition.  In
a subsequent merge step, these local clusterings are merged using the
replicated points, which may connect two clusters to a single one."

Correctness sketch (why the result matches a sequential DBSCAN up to
the usual border-point tie-breaking):

- every pair of points within ``eps`` of each other co-occurs in at
  least one partition: if ``p`` lives in partition ``A``, any ``q``
  within ``eps`` of ``p`` is within ``eps`` of ``A``'s bounds and is
  therefore replicated into ``A``;
- consequently a point's neighbourhood is *complete* in its home
  partition, so home-partition core flags are exact (replica core flags
  can only be understated, which is conservative);
- two local clusters merge iff they share a point that is core in at
  least one of them -- precisely DBSCAN's density-connectivity through
  that point; border points shared by two clusters do *not* merge them.

Output labels: dense non-negative integers per final cluster;
:data:`~repro.core.clustering.dbscan.NOISE` (-1) for noise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Collection, Iterator, Sequence, TypeVar

from repro.core.clustering.dbscan import NOISE, local_dbscan
from repro.core.clustering.union_find import UnionFind
from repro.core.stobject import STObject
from repro.partitioners.base import SpatialPartitioner
from repro.partitioners.bsp import BSPartitioner
from repro.spark.rdd import RDD, _IdentityPartitioner

V = TypeVar("V")


def _default_partitioner(keys: list[STObject], eps: float) -> SpatialPartitioner:
    """A BSP partitioner sized for clustering.

    The cost threshold targets a handful of partitions per available
    core; the granularity floor keeps cells from becoming thinner than
    the replication band (which would only inflate replication volume,
    not break correctness).
    """
    max_cost = max(64, len(keys) // 8)
    return BSPartitioner(keys, max_cost_per_partition=max_cost, side_length=2 * eps)


def home_neighbours(part: SpatialPartitioner, eps: float) -> list[tuple[int, ...]]:
    """Per home cell, the cells (home included) whose bounds come within
    *eps* of its bounds along both axes.

    They are all the cells a point inside its home's bounds can reach:
    for ``x <= home.max_x``, ``fl(c.min_x - home.max_x) <= fl(c.min_x -
    x)`` because rounding is monotone, so every axis test that
    :meth:`~SpatialPartitioner.partitions_within_distance` passes for
    the point passes here for its home, and likewise on the other three
    sides.
    """
    cells = [part.partition_bounds(pid) for pid in range(part.num_partitions)]
    return [
        tuple(
            pid
            for pid, c in enumerate(cells)
            if c.min_x - h.max_x <= eps and h.min_x - c.max_x <= eps
            and c.min_y - h.max_y <= eps and h.min_y - c.max_y <= eps
        )
        for h in cells
    ]


def replication_targets(
    part: SpatialPartitioner, x: float, y: float, eps: float,
    near: Sequence[Sequence[int]],
) -> tuple[int, Collection[int]]:
    """A point's home cell, and all cells within *eps* of it plus home (a
    point outside the universe is clamped into a home it is not in).

    *near* is :func:`home_neighbours` for *part* and *eps*: a point
    inside its home's bounds tests only its home's neighbours, a clamped
    one every cell.
    """
    home = part.partition_of_point(x, y)
    b = part.partition_bounds(home)
    if min(x - b.min_x, b.max_x - x, y - b.min_y, b.max_y - y) > eps:
        return home, (home,)  # cells are separated: no other one is within eps
    if b.min_x <= x <= b.max_x and b.min_y <= y <= b.max_y:
        return home, part.partitions_within_distance(x, y, eps, near[home])
    return home, {home, *part.partitions_within_distance(x, y, eps)}


def dbscan(
    rdd: RDD,
    eps: float,
    min_pts: int,
    partitioner: SpatialPartitioner | None = None,
) -> RDD:
    """Cluster an ``RDD[(STObject, V)]``; geometry centroids are the points.

    Returns an ``RDD[(STObject, (V, label))]`` in which every input row
    appears exactly once.  Rows stay in their home partition, so the
    output remains spatially partitioned.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")

    context = rdd.context
    with context.tracer.span("dbscan", eps=eps, min_pts=min_pts):
        if partitioner is None:
            if isinstance(rdd.partitioner, SpatialPartitioner):
                partitioner = rdd.partitioner
            elif keys := rdd.keys().collect():
                partitioner = _default_partitioner(keys, eps)
            else:  # no data to build cells from, nothing to label
                return rdd.map_values(lambda value: (value, NOISE))
        num_partitions = partitioner.num_partitions

        # -- step 0: stable ids, replication assignments -------------------
        near = home_neighbours(partitioner, eps)
        num_input_partitions = rdd.num_partitions

        def assign(split: int, rows: Iterator[tuple[STObject, V]]) -> Iterator[tuple[int, tuple]]:
            for i, (key, value) in enumerate(rows):
                # Unique and stable: partitions recompute in the same order.
                gid = i * num_input_partitions + split
                c = key.geo.centroid()
                home, targets = replication_targets(partitioner, c.x, c.y, eps, near)
                shared = len(targets) > 1
                for pid in targets:
                    native = pid == home
                    payload = (key, value) if native else None
                    yield (pid, (gid, c.x, c.y, native, shared, payload))

        routed = rdd.map_partitions_with_index(assign)
        routed = routed.partition_by(_IdentityPartitioner(num_partitions))

        # -- step 1: local DBSCAN per partition -----------------------------
        def run_local(split: int, it: Iterator[tuple[int, tuple]]) -> Iterator[tuple]:
            rows = [record for _pid, record in it]
            points = [(x, y) for _gid, x, y, _n, _s, _p in rows]
            labels, core = local_dbscan(points, eps, min_pts)
            yield ("C", split, max(labels, default=NOISE) + 1)  # cluster count
            for row, label, is_core in zip(rows, labels, core):
                gid, _x, _y, native, shared, payload = row
                if native:
                    yield ("N", gid, split, label, payload)
                if shared:
                    yield ("S", gid, split, label, is_core)

        local = routed.map_partitions_with_index(run_local).persist().set_name(
            "dbscan.local"
        )
        with context.tracer.span("dbscan.local", partitions=num_partitions):
            # One job clusters every partition into the cache and reads
            # back the cluster counts ("C") and the shared rows ("S");
            # the relabel reads the native rows from the cache.
            merge_rows = local.filter(lambda r: r[0] != "N").collect()

        # -- step 2: merge on the driver ------------------------------------
        with context.tracer.span("dbscan.merge") as merge_span:
            counts: dict[int, int] = {}
            by_gid: dict[int, list[tuple[int, int, bool]]] = defaultdict(list)
            for row in merge_rows:
                if row[0] == "C":
                    counts[row[1]] = row[2]
                else:
                    _tag, gid, pid, label, is_core = row
                    by_gid[gid].append((pid, label, is_core))
            base = [0] * num_partitions
            running = 0
            for pid in range(num_partitions):
                base[pid] = running
                running += counts.get(pid, 0)
            total_clusters = running

            uf = UnionFind(range(total_clusters))
            adoption: dict[int, int] = {}
            for gid, occurrences in by_gid.items():
                clustered = [
                    (base[pid] + label, is_core)
                    for pid, label, is_core in occurrences
                    if label != NOISE
                ]
                # Density connection: occurrences sharing this point merge when
                # the point is core in at least one of the two clusters.
                for i in range(len(clustered)):
                    for j in range(i + 1, len(clustered)):
                        if clustered[i][1] or clustered[j][1]:
                            uf.union(clustered[i][0], clustered[j][0])
                if clustered:
                    # A point that is noise at home but clustered elsewhere is a
                    # border point of that remote cluster: adopt (deterministic
                    # pick: smallest preliminary id).
                    adoption[gid] = min(g for g, _c in clustered)

            # Dense final labels, stable across runs: roots in ascending order.
            resolution = [uf.find(g) for g in range(total_clusters)]
            dense = {root: k for k, root in enumerate(dict.fromkeys(resolution))}
            final_of = [dense[root] for root in resolution]
            merge_span.attrs["local_clusters"] = total_clusters
            merge_span.attrs["final_clusters"] = len(dense)
            merge_span.attrs["shared_points"] = len(by_gid)

        final_broadcast = context.broadcast((final_of, adoption, base))

        # -- step 3: relabel native rows --------------------------------------
        def relabel(row: tuple) -> tuple[STObject, tuple[V, int]]:
            _tag, gid, pid, label, payload = row
            final_of_, adoption_, base_ = final_broadcast.value
            if label != NOISE:
                final = final_of_[base_[pid] + label]
            elif gid in adoption_:
                final = final_of_[adoption_[gid]]
            else:
                final = NOISE
            key, value = payload
            return (key, (value, final))

        result = local.filter(lambda r: r[0] == "N").map(relabel).set_name(
            "dbscan.relabel"
        )
        # Native rows never left their home partition, so the spatial
        # partitioner still describes the layout.
        result.partitioner = partitioner
        return result

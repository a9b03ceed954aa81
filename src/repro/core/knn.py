"""k-nearest-neighbour search (paper section 2.3).

``knn(rdd, query, k)`` returns the *k* items nearest to the query's
geometry as an ascending ``[(distance, (STObject, V)), ...]`` list.

With a spatial partitioner and the Euclidean metric the search is
two-phase, exploiting the partitions' measured extents
(:mod:`repro.core.summaries`):

1. scan only the query centroid's *home partition* and take its best k;
2. the k-th local distance bounds the true answer, so only partitions
   whose members' envelope comes within that bound need to be searched;
   the home scan is reused and the rest are pruned.

Distances are exact geometry-to-geometry distances, but the pruning
bound is anchored at the query's *centroid*.  For extended query
geometries (linestrings, polygons) an item can be much closer to the
geometry than to its centroid, so every centroid-based bound is
slackened by the query's **radius** -- the maximum centroid-to-vertex
distance.  For any item ``o``: ``dist(o, centroid) <= dist(o, query) +
radius`` (triangle inequality through the closest query vertex region),
hence a partition holding an item within ``bound`` of the query lies
within ``bound + radius`` of the centroid.  With a point query the
radius is 0 and the classic bound is recovered.

When the home partition holds fewer than k items, the bound cannot be
established; the remaining partitions are scanned (reusing the home
result -- no partition is computed twice).  A custom distance function
makes envelope bounds inadmissible and falls back to a full scan --
correctness over speed.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterator, TypeVar

from repro.core.stobject import STObject
from repro.core.summaries import partition_summaries, partitions_within
from repro.geometry.base import Geometry
from repro.geometry.distance import DistanceFunction, euclidean, resolve
from repro.geometry.point import Point
from repro.partitioners.base import SpatialPartitioner
from repro.spark.rdd import RDD, PartitionPruningRDD

V = TypeVar("V")

KnnResult = list[tuple[float, tuple[STObject, V]]]


def query_radius(geom: Geometry) -> float:
    """The maximum centroid-to-vertex distance of *geom* (0 for points).

    The slack every centroid-anchored kNN bound needs to stay
    admissible for extended query geometries.
    """
    if type(geom) is Point:
        return 0.0
    c = geom.centroid()
    return max(
        (((x - c.x) ** 2 + (y - c.y) ** 2) ** 0.5 for x, y in geom.coordinates()),
        default=0.0,
    )


def exact_distance_to(query: Geometry) -> Callable[[tuple], float]:
    """A row's exact distance to *query*, as kNN refines in a tree: point
    to point inline, by the predicate kernel's formula (the same float)."""
    point = type(query) is Point

    def distance(kv: tuple) -> float:
        geo = kv[0].geo
        if point and type(geo) is Point:
            return math.hypot(geo.x - query.x, geo.y - query.y)
        return geo.distance(query)

    return distance


LocalBest = Callable[[Iterator], KnnResult]


def _merged(rdd: RDD, local_best: LocalBest, k: int) -> KnnResult:
    """The best *k* over the per-partition bests of every partition of *rdd*."""
    per_partition = rdd.context.run_job(rdd, local_best)
    merged = [pair for best in per_partition for pair in best]
    return heapq.nsmallest(k, merged, key=lambda p: p[0])


def _search(
    rdd: RDD,
    partitioner: SpatialPartitioner | None,
    centroid,
    radius: float,
    k: int,
    local_best: LocalBest,
    span,
) -> KnnResult:
    """Home partition, bound, the rest: the one driver of both searches.

    *centroid* and *radius* are the query's (see module docstring);
    ``local_best`` is all that differs between scanning rows and
    probing trees.  No partition is computed twice: the home result is
    reused whichever way the second phase goes.  Without a spatial
    *partitioner* there is no home to start from: every partition runs.
    """
    if partitioner is None:
        span.attrs["strategy"] = "scan"
        return _merged(rdd, local_best, k)
    home = partitioner.partition_of_point(centroid.x, centroid.y)
    best = _merged(PartitionPruningRDD(rdd, [home]).set_name("knn.home"), local_best, k)
    if len(best) == k:
        span.attrs["strategy"] = "two_phase"
        # The query radius keeps the centroid-anchored bound admissible
        # for extended query geometries (see module docstring).
        others = partitions_within(
            partition_summaries(rdd), centroid.x, centroid.y, best[-1][0] + radius
        )
    else:
        # Not enough local candidates to establish a bound.
        span.attrs["strategy"] = "two_phase_unbounded"
        others = range(rdd.num_partitions)
    others = [pid for pid in others if pid != home]
    if not others:
        return best
    rest = _merged(PartitionPruningRDD(rdd, others).set_name("knn.rest"), local_best, k)
    return heapq.nsmallest(k, best + rest, key=lambda p: p[0])


def knn(
    rdd: RDD,
    query: STObject,
    k: int,
    distance_fn: str | DistanceFunction = euclidean,
) -> KnnResult:
    """The *k* nearest items to *query*, ascending by distance.

    Ties at the k-th distance are broken arbitrarily (one of the tied
    items is returned), matching the usual kNN contract.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fn = resolve(distance_fn)

    def local_best(it: Iterator[tuple[STObject, V]]) -> KnnResult:
        return heapq.nsmallest(k, ((fn(kv[0].geo, query.geo), kv) for kv in it), key=lambda p: p[0])

    partitioner = rdd.partitioner
    if not isinstance(partitioner, SpatialPartitioner) or fn is not euclidean:
        partitioner = None  # envelope bounds are inadmissible: scan
    centroid, radius = query.geo.centroid(), query_radius(query.geo)
    with rdd.context.tracer.span("knn", k=k) as span:
        return _search(rdd, partitioner, centroid, radius, k, local_best, span)


def knn_indexed(
    index_rdd: RDD,
    query: STObject,
    k: int,
    partitioner: SpatialPartitioner | None = None,
) -> KnnResult:
    """kNN over an RDD of per-partition STR-trees (Euclidean metric).

    Each tree answers its local top-k with exact geometry distances via
    branch-and-bound; the driver merges the per-partition lists.  With
    the producing *partitioner*, a home-partition pass bounds the search
    the same way :func:`knn` does.  All centroid-anchored bounds (the
    in-tree envelope bounds and the partition-summary bound) carry the
    query-radius slack, so extended query geometries stay exact.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    centroid = query.geo.centroid()
    radius = query_radius(query.geo)
    exact = exact_distance_to(query.geo)

    def local_best(trees: Iterator) -> KnnResult:
        best = [
            pair for tree in trees for pair in tree.nearest(centroid.x, centroid.y, k, exact, radius)
        ]
        return heapq.nsmallest(k, best, key=lambda p: p[0])

    with index_rdd.context.tracer.span("knn.indexed", k=k) as span:
        return _search(index_rdd, partitioner, centroid, radius, k, local_best, span)

"""Partition summaries: what each partition of an RDD actually holds.

STARK assigns a geometry to one partition by its centroid, so members
stick out of their cell; the paper keeps an *extent* per partition and
prunes on it.  Here the extent is measured from the **RDD's partitions**
(count, timed count, covering envelope and time range of the members),
not remembered by the partitioner from the data it was built on: sound
for any partitioner, and space *and* time in one place.

:func:`partition_summaries` alone runs the measuring job;
:func:`partitions_matching` and :func:`partitions_within` are the only
two pruning rules.  Filter, kNN, both joins, the planner and the
persistent index all read them.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from repro.geometry.envelope import Envelope
from repro.spark.rdd import RDD
from repro.temporal.interval import Interval, TemporalExpression

_INF = float("inf")


class PartitionSummary(NamedTuple):
    """One partition's members: how many, how many timed, where, when.

    An empty partition has inverted (``inf`` / ``-inf``) bounds, and so
    has the time range of a partition without timed members.
    """

    count: int
    timed: int
    min_x: float
    min_y: float
    max_x: float
    max_y: float
    t_lo: float
    t_hi: float

    @property
    def envelope(self) -> Envelope:
        """The members' covering envelope (empty for an empty partition)."""
        return Envelope(self.min_x, self.min_y, self.max_x, self.max_y)


def driver_memo(rdd: RDD) -> dict:
    """What the driver has measured about *rdd*'s contents so far.

    Never invalidated: an RDD's contents are immutable -- lineage is
    fixed at construction, recomputation is deterministic, and
    ``persist`` / ``unpersist`` only toggle caching of the same contents.
    The memo hangs off the RDD and lives as long as it does.
    """
    memo = rdd.__dict__.get("_driver_memo")
    if memo is None:
        memo = rdd._driver_memo = {}
    return memo


def temporal_extent_of(tree) -> tuple[Interval | None, int]:
    """``(covering interval of timed members, how many are timed)``.

    Works for both partition-index kinds: the 3D tree keeps its untimed
    members apart and answers from its own bookkeeping; a plain spatial
    :class:`~repro.index.rtree.STRTree` (whose items are ``(STObject,
    V)`` pairs) is scanned once.
    """
    if hasattr(tree, "untimed_count"):
        return tree.temporal_extent, len(tree) - tree.untimed_count
    lo, hi = _INF, -_INF
    timed = 0
    for _box, kv in tree._leaf_rows():
        key = getattr(kv[0], "time", None) if isinstance(kv, tuple) else None
        if key is not None:
            timed += 1
            lo = min(lo, key.start)
            hi = max(hi, key.end)
    return (Interval(lo, hi) if timed else None), timed


def _summarize(it: Iterator) -> PartitionSummary:
    """Fold one partition of ``(STObject, V)`` rows, or of index trees
    (a tree answers from its size, root box and temporal extent).

    Mutable min/max accumulators: the pass runs over every member of
    every partition.
    """
    count = timed = 0
    min_x = min_y = t_lo = _INF
    max_x = max_y = t_hi = -_INF
    for item in it:
        if isinstance(item, tuple):
            members, stamped = 1, 1
            env, time = item[0].geo.envelope, item[0].time
        else:
            members, env = len(item), item.envelope
            time, stamped = temporal_extent_of(item)
        count += members
        if env.min_x < min_x:
            min_x = env.min_x
        if env.min_y < min_y:
            min_y = env.min_y
        if env.max_x > max_x:
            max_x = env.max_x
        if env.max_y > max_y:
            max_y = env.max_y
        if time is not None:
            timed += stamped
            if time.start < t_lo:
                t_lo = time.start
            if time.end > t_hi:
                t_hi = time.end
    return PartitionSummary(count, timed, min_x, min_y, max_x, max_y, t_lo, t_hi)


def partition_summaries(rdd: RDD) -> list[PartitionSummary]:
    """One :class:`PartitionSummary` per partition of *rdd* (one job, once)."""
    memo = driver_memo(rdd)
    summaries = memo.get("summaries")
    if summaries is None:
        summaries = memo["summaries"] = rdd.context.run_job(rdd, _summarize)
    return summaries


def known_summaries(rdd: RDD) -> list[PartitionSummary] | None:
    """The summaries of *rdd* if they were measured already, else ``None``."""
    return driver_memo(rdd).get("summaries")


def restore_summaries(rdd: RDD, summaries: list[PartitionSummary]) -> None:
    """Install summaries measured before *rdd*'s contents were persisted."""
    driver_memo(rdd)["summaries"] = summaries


def partitions_matching(
    summaries: list[PartitionSummary],
    region: Envelope,
    time: TemporalExpression | None,
) -> tuple[list[int], int]:
    """``(kept ids, missed in time)``: partitions a filter has to compute.

    Necessary conditions only, so no result is lost: a partition needs
    members whose envelope meets *region* (the predicate's candidate
    region of the query), and eqs. (1)-(3) lift to partitions -- an
    untimed query can only match untimed members, a timed one only timed
    members whose time range overlaps.  The second value counts the
    partitions that pass in space and fail in time.
    """
    keep: list[int] = []
    missed_in_time = 0
    for pid, (count, timed, min_x, min_y, max_x, max_y, t_lo, t_hi) in enumerate(
        summaries
    ):
        if not (
            count
            and min_x <= region.max_x
            and region.min_x <= max_x
            and min_y <= region.max_y
            and region.min_y <= max_y
        ):
            continue
        if time is None:
            in_time = count > timed
        else:
            in_time = t_lo <= time.end and time.start <= t_hi
        if in_time:
            keep.append(pid)
        else:
            missed_in_time += 1
    return keep, missed_in_time


def partitions_within(
    summaries: list[PartitionSummary], x: float, y: float, distance: float
) -> list[int]:
    """Partitions with members' envelope within *distance* of ``(x, y)``:
    kNN's bound phase (kNN has no temporal predicate)."""
    keep = []
    for pid, (count, _, min_x, min_y, max_x, max_y, _, _) in enumerate(summaries):
        dx = min_x - x if min_x > x else x - max_x if x > max_x else 0.0
        dy = min_y - y if min_y > y else y - max_y if y > max_y else 0.0
        if count and math.hypot(dx, dy) <= distance:
            keep.append(pid)
    return keep

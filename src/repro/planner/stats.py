"""Dataset statistics for the query planner.

The exact part -- cardinality, spatial/temporal bounds, timed-member
count -- is read off the RDD's partition summaries
(:mod:`repro.core.summaries`); one more distributed job draws a
fixed-size **reservoir sample** of each partition's keys.  The driver
merges both into a :class:`DatasetStatistics`, memoized with the
summaries (an RDD's contents never change).  Selectivity questions
("what fraction of rows intersects this box, this window, both?") are
then answered in one pass over the sample's flattened boxes without
touching the data again.

Reservoir sampling keeps the per-partition memory bounded no matter how
large a partition grows; the driver never sees more than
``sample_target`` keys in total (modulo small per-partition minimums).
Sampling is seeded per split, so statistics are deterministic for a
given dataset and seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from repro.core.summaries import driver_memo, partition_summaries
from repro.geometry.envelope import Envelope
from repro.temporal.interval import Interval, TemporalExpression

#: Default total sample size the collector aims for.
DEFAULT_SAMPLE_TARGET = 512

#: Every partition keeps at least this many keys in its reservoir.
MIN_PARTITION_RESERVOIR = 16


def _flatten(key) -> tuple:
    """One sample key as ``(min_x, min_y, max_x, max_y, t_lo, t_hi)``;
    an untimed key has ``None`` time bounds."""
    env, time = key.geo.envelope, key.time
    t_range = (None, None) if time is None else (time.start, time.end)
    return (env.min_x, env.min_y, env.max_x, env.max_y, *t_range)


@dataclass(frozen=True)
class DatasetStatistics:
    """Merged dataset statistics behind the planner's rule and estimates.

    ``sample`` holds STObject keys drawn (approximately) uniformly; the
    selectivity estimators evaluate predicates against its flattened
    boxes.  The extents and counts are exact.
    """

    count: int
    num_partitions: int
    spatial_extent: Envelope
    temporal_extent: Interval | None
    timed_count: int
    sample: tuple = ()
    _boxes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_boxes", tuple(map(_flatten, self.sample)))

    @property
    def timed_fraction(self) -> float:
        """The exact fraction of rows carrying a temporal component."""
        return self.timed_count / self.count if self.count else 0.0

    def selectivities(
        self, region: Envelope, time: TemporalExpression | None
    ) -> tuple[float, float, float]:
        """``(spatial, temporal, joint)`` estimated fractions of rows, in one
        pass over the sample.

        *spatial*: the row's envelope intersects *region*.  *temporal*:
        the row's temporal clause can hold under the combined semantics
        -- an untimed query matches only untimed rows, a timed query only
        timed rows whose interval intersects.  *joint*: both at once.
        All three are 1.0 (no pruning assumed) when the sample is empty.
        The space test is :meth:`~repro.geometry.envelope.Envelope.
        intersects` inlined: an empty envelope on either side meets
        nothing.
        """
        boxes = self._boxes
        if not boxes:
            return 1.0, 1.0, 1.0
        r_min_x, r_min_y, r_max_x, r_max_y = (
            region.min_x, region.min_y, region.max_x, region.max_y
        )
        q_lo, q_hi = (None, None) if time is None else (time.start, time.end)
        space = when = both = 0
        for min_x, min_y, max_x, max_y, t_lo, t_hi in boxes:
            in_space = (
                min_x <= r_max_x
                and r_min_x <= max_x
                and min_y <= r_max_y
                and r_min_y <= max_y
                and min_x <= max_x
            )
            if q_lo is None:
                in_time = t_lo is None
            else:
                in_time = t_lo is not None and t_lo <= q_hi and q_lo <= t_hi
            space += in_space
            when += in_time
            both += in_space and in_time
        if region.is_empty:
            space = both = 0
        n = len(boxes)
        return space / n, when / n, both / n

    def spatial_selectivity(self, region: Envelope) -> float:
        """Estimated fraction of rows whose envelope intersects *region*."""
        return self.selectivities(region, None)[0]

    def temporal_selectivity(self, time: TemporalExpression | None) -> float:
        """Estimated fraction of rows whose temporal clause can hold."""
        return self.selectivities(self.spatial_extent, time)[1]


def _sample_partition(
    split: int, it: Iterator, reservoir_size: int, seed: int
) -> Iterator[list]:
    """Reduce one partition to a reservoir sample of its keys."""
    rng = random.Random(seed * 1_000_003 + split)
    reservoir: list = []
    count = 0
    for kv in it:
        count += 1
        if len(reservoir) < reservoir_size:
            reservoir.append(kv[0])
        else:
            j = rng.randrange(count)
            if j < reservoir_size:
                reservoir[j] = kv[0]
    yield reservoir


def collect_statistics(
    rdd,
    sample_target: int = DEFAULT_SAMPLE_TARGET,
    seed: int = 17,
) -> DatasetStatistics:
    """Collect :class:`DatasetStatistics` for an ``RDD[(STObject, V)]``.

    Runs at most two jobs, the first time: the measuring pass (unless a
    filter or join already paid for it) and the sampling pass.  Each
    task returns a constant-size result, so the driver-side cost is
    proportional to the partition count and the sample size, never the
    data size.  The statistics are memoized on the driver (an RDD's
    contents never change): asking again returns the same object.
    """
    per_partition = max(
        MIN_PARTITION_RESERVOIR,
        -(-sample_target // max(1, rdd.num_partitions)),
    )
    memo = driver_memo(rdd)
    stats = memo.get(("statistics", per_partition, seed))
    if stats is not None:
        return stats
    draw = partial(_sample_partition, reservoir_size=per_partition, seed=seed)
    reservoirs = rdd.map_partitions_with_index(draw).collect()
    summaries = partition_summaries(rdd)
    envelope = Envelope.empty()
    for s in summaries:
        envelope = envelope.merge(s.envelope)
    t_lo = min(s.t_lo for s in summaries)
    t_hi = max(s.t_hi for s in summaries)
    stats = memo[("statistics", per_partition, seed)] = DatasetStatistics(
        count=sum(s.count for s in summaries),
        num_partitions=len(summaries),
        spatial_extent=envelope,
        temporal_extent=Interval(t_lo, t_hi) if t_lo <= t_hi else None,
        timed_count=sum(s.timed for s in summaries),
        sample=tuple(key for reservoir in reservoirs for key in reservoir),
    )
    return stats

"""Dataset statistics for the cost-based planner.

The exact part -- cardinality, spatial/temporal bounds, timed-member
count -- is read off the RDD's partition summaries
(:mod:`repro.core.summaries`); one more distributed job draws a
fixed-size **reservoir sample** of each partition's keys.  The driver
merges both into a :class:`DatasetStatistics`, memoized with the
summaries (an RDD's contents never change).  Selectivity questions
("what fraction of rows intersects this window?") are then answered
from the sample without touching the data again.

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


@dataclass
class DatasetStatistics:
    """Merged dataset statistics backing the planner's cost estimates.

    ``sample`` holds STObject keys drawn (approximately) uniformly; the
    ``*_selectivity`` estimators evaluate predicates against it.  The
    extents and counts are exact.
    """

    count: int
    num_partitions: int
    spatial_extent: Envelope
    temporal_extent: Interval | None
    timed_count: int
    sample: list = field(default_factory=list)

    @property
    def timed_fraction(self) -> float:
        """The exact fraction of rows carrying a temporal component."""
        return self.timed_count / self.count if self.count else 0.0

    def spatial_selectivity(self, region: Envelope) -> float:
        """Estimated fraction of rows whose envelope intersects *region*.

        Falls back to 1.0 (no pruning assumed) when the sample is empty.
        """
        if not self.sample:
            return 1.0
        hits = sum(1 for key in self.sample if key.geo.envelope.intersects(region))
        return hits / len(self.sample)

    def temporal_selectivity(self, time: TemporalExpression | None) -> float:
        """Estimated fraction of rows whose temporal clause can hold.

        Under the combined semantics an untimed query matches only
        untimed rows and a timed query only timed rows whose interval
        intersects -- the estimator mirrors exactly that.
        """
        if not self.sample:
            return 1.0
        if time is None:
            untimed = sum(1 for key in self.sample if key.time is None)
            return untimed / len(self.sample)
        hits = sum(
            1
            for key in self.sample
            if key.time is not None
            and key.time.start <= time.end
            and time.start <= key.time.end
        )
        return hits / len(self.sample)


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
    data size.  Asking again for the same sample runs no job.
    """
    per_partition = max(
        MIN_PARTITION_RESERVOIR,
        -(-sample_target // max(1, rdd.num_partitions)),
    )
    memo = driver_memo(rdd)
    sample = memo.get(("sample", per_partition, seed))
    if sample is None:
        draw = partial(_sample_partition, reservoir_size=per_partition, seed=seed)
        reservoirs = rdd.map_partitions_with_index(draw).collect()
        sample = [key for reservoir in reservoirs for key in reservoir]
        memo[("sample", per_partition, seed)] = sample
    summaries = partition_summaries(rdd)
    envelope = Envelope.empty()
    for s in summaries:
        envelope = envelope.merge(s.envelope)
    t_lo = min(s.t_lo for s in summaries)
    t_hi = max(s.t_hi for s in summaries)
    return DatasetStatistics(
        count=sum(s.count for s in summaries),
        num_partitions=len(summaries),
        spatial_extent=envelope,
        temporal_extent=Interval(t_lo, t_hi) if t_lo <= t_hi else None,
        timed_count=sum(s.timed for s in summaries),
        sample=list(sample),
    )

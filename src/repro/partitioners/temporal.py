"""Temporal partitioning (the paper's stated future work).

Paper section 2.1: "In its current version, STARK only considers the
spatial component for partitioning."  This module supplies the missing
half as an extension:

- :class:`TemporalRangePartitioner` -- equi-depth time slices (split
  points at sample quantiles, so skewed event streams stay balanced),
  and
- :class:`SpatioTemporalPartitioner` -- the product of a spatial
  partitioner and a temporal one: partition id = (spatial cell,
  time slice).

Both implement the engine's ``Partitioner`` contract and plug into
``partition_by``.  An interval can stick out of its slice exactly like
a polygon sticks out of its grid cell, so the filter operators prune on
the partitions' *measured* time ranges, as they do in space (see
:mod:`repro.core.summaries`).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable

from repro.partitioners.base import SpatialPartitioner
from repro.spark.partitioner import Partitioner
from repro.temporal.interval import TemporalExpression


def _temporal_of(key: Any) -> TemporalExpression:
    time = getattr(key, "time", None)
    if time is None:
        raise ValueError(
            "temporal partitioning requires keys with a temporal component; "
            f"got {key!r}"
        )
    return time


class TemporalRangePartitioner(Partitioner):
    """Equi-depth temporal range partitioning over interval start times.

    ``num_partitions`` slices are bounded by the (1/n, 2/n, ...)
    quantiles of the sample's start times.  An item belongs to the
    slice containing its start.
    """

    def __init__(self, sample: Iterable[Any], num_partitions: int = 4) -> None:
        if num_partitions < 1:
            raise ValueError("need at least 1 partition")
        starts = sorted(_temporal_of(key).start for key in sample)
        if not starts:
            raise ValueError("cannot build a temporal partitioner from empty data")
        self._bounds_cuts = [
            starts[min(len(starts) - 1, (len(starts) * i) // num_partitions)]
            for i in range(1, num_partitions)
        ]
        self._n = num_partitions

    #: Sample size ``from_rdd`` aims for when choosing the slice cuts.
    DEFAULT_SAMPLE_TARGET = 2000

    @staticmethod
    def from_rdd(
        rdd, num_partitions: int = 4, sample_target: int | None = None
    ) -> "TemporalRangePartitioner":
        """Build from an ``RDD[(STObject, V)]`` without collecting every key.

        The slice cut points only need *approximate* quantiles, so they
        come from a driver-side sample of roughly *sample_target* keys
        (the whole dataset never funnels through the driver).
        """
        target = sample_target or TemporalRangePartitioner.DEFAULT_SAMPLE_TARGET
        return TemporalRangePartitioner(
            rdd.keys().collect_sample(target), num_partitions
        )

    @property
    def num_partitions(self) -> int:
        return self._n

    def get_partition(self, key: Any) -> int:
        return bisect.bisect_right(self._bounds_cuts, _temporal_of(key).start)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is TemporalRangePartitioner
            and other._bounds_cuts == self._bounds_cuts
        )

    def __hash__(self) -> int:
        return hash((TemporalRangePartitioner, tuple(self._bounds_cuts)))

    def __repr__(self) -> str:
        return f"TemporalRangePartitioner({self._n} slices)"


class SpatioTemporalPartitioner(Partitioner):
    """The product of a spatial partitioner and a temporal one.

    ``pid = spatial_pid * time_slices + time_slice``, so a small window
    in space *and* time touches only the matching (cell, slice)
    combinations.
    """

    def __init__(
        self,
        spatial: SpatialPartitioner,
        temporal: TemporalRangePartitioner,
    ) -> None:
        self._spatial = spatial
        self._temporal = temporal

    @staticmethod
    def from_rdd(
        rdd,
        spatial_factory,
        time_slices: int = 4,
        sample_target: int | None = None,
    ) -> "SpatioTemporalPartitioner":
        """Build both halves from one key *sample*.

        ``spatial_factory`` maps the key sample to a SpatialPartitioner,
        e.g. ``lambda keys: BSPartitioner(keys, max_cost_per_partition=500)``.
        Cost thresholds inside the factory are therefore in sample units
        (at most ``sample_target`` keys), not full-data counts.
        """
        target = sample_target or TemporalRangePartitioner.DEFAULT_SAMPLE_TARGET
        keys = rdd.keys().collect_sample(target)
        return SpatioTemporalPartitioner(
            spatial_factory(keys), TemporalRangePartitioner(keys, time_slices)
        )

    @property
    def spatial(self) -> SpatialPartitioner:
        return self._spatial

    @property
    def temporal(self) -> TemporalRangePartitioner:
        return self._temporal

    @property
    def num_partitions(self) -> int:
        return self._spatial.num_partitions * self._temporal.num_partitions

    def get_partition(self, key: Any) -> int:
        spatial_pid = self._spatial.get_partition(key)
        time_pid = self._temporal.get_partition(key)
        return spatial_pid * self._temporal.num_partitions + time_pid

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is SpatioTemporalPartitioner
            and other._spatial == self._spatial
            and other._temporal == self._temporal
        )

    def __hash__(self) -> int:
        return hash((SpatioTemporalPartitioner, self._spatial, self._temporal))

    def __repr__(self) -> str:
        return (
            f"SpatioTemporalPartitioner({self._spatial!r} x {self._temporal!r})"
        )

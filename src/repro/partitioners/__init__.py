"""Spatial partitioners (paper section 2.1).

Both partitioners implement the engine's
:class:`~repro.spark.partitioner.Partitioner` contract, so they are
applied with the RDD's ``partition_by`` method exactly as STARK's are
on Spark.  Keys are expected to be
:class:`~repro.core.stobject.STObject` (or bare geometries); extended
geometries are assigned to exactly **one** partition by centroid.  The
**extent** of a partition -- the true min/max of its members, used for
partition pruning at query time -- is measured from the partitioned RDD
(:mod:`repro.core.summaries`), not kept here.
"""

from repro.partitioners.base import SpatialPartitioner
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner
from repro.partitioners.temporal import (
    SpatioTemporalPartitioner,
    TemporalRangePartitioner,
)

__all__ = [
    "BSPartitioner",
    "GridPartitioner",
    "SpatialPartitioner",
    "SpatioTemporalPartitioner",
    "TemporalRangePartitioner",
]

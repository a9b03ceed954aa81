"""Partitioner tests.

Partitioners only map keys to cells; what a partition *covers* is
measured from the partitioned RDD (``repro.core.summaries``), so the
extent and pruning checks go through these two helpers.
"""

from repro.core.summaries import partition_summaries, partitions_matching


def partition_keys(sc, keys, partitioner):
    """*keys* as an ``RDD[(key, index)]`` partitioned by *partitioner*."""
    rows = [(key, i) for i, key in enumerate(keys)]
    return sc.parallelize(rows, 4).partition_by(partitioner)


def matching_partitions(sc, keys, partitioner, region, time=None) -> set[int]:
    """The partitions a query on (*region*, *time*) has to compute."""
    summaries = partition_summaries(partition_keys(sc, keys, partitioner))
    return set(partitions_matching(summaries, region, time)[0])

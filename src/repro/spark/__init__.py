"""A from-scratch, single-process reproduction of the Spark RDD engine.

This package is the execution substrate the STARK reproduction runs on,
standing in for Apache Spark.  It implements the parts of the RDD model
STARK's algorithms are built against:

- lazy, immutable :class:`~repro.spark.rdd.RDD` lineage graphs with
  narrow (map/filter/mapPartitions/...) and wide
  (groupByKey/reduceByKey/join/partitionBy) transformations,
- the :class:`~repro.spark.partitioner.Partitioner` contract --
  STARK's spatial partitioners plug in exactly like on the JVM,
- a hash shuffle with materialized map outputs,
- partition-level caching (``persist``/``cache``),
- object files (the stand-in for HDFS binary storage used by persistent
  indexing),
- broadcast variables,
- a task scheduler executing one task per partition, with metrics
  (tasks launched, records read, shuffle volume) that the test-suite and
  benchmarks use to verify pruning behaviour,
- lineage-based fault tolerance: failed tasks are retried with
  exponential backoff (``max_task_failures`` attempts, recomputing from
  lineage), and exhausted retries abort the job with a typed
  :class:`~repro.spark.errors.JobAbortedError`; see :mod:`repro.chaos`
  for the matching fault-injection harness,
- gray-failure resilience: cooperative cancellation
  (:mod:`repro.spark.cancellation`), per-task/per-job deadlines with
  typed :class:`~repro.spark.errors.TaskTimeoutError`, which reap and
  retry stragglers (first result wins, the other attempt is cancelled).

The engine runs every task in the driver process: ``executor="threads"``
(the default) on a thread pool, ``executor="sequential"`` inline on the
calling thread.  The *algorithmic* costs -- how many partitions a
query touches, how many candidate pairs a join evaluates -- are
identical to a distributed deployment, which is what the paper's
evaluation shapes depend on.
"""

from repro.spark.broadcast import Broadcast
from repro.spark.cancellation import CancelToken, Heartbeat, TaskCancelledError
from repro.spark.context import SparkContext
from repro.spark.errors import JobAbortedError, TaskError, TaskTimeoutError
from repro.spark.partitioner import HashPartitioner, Partitioner
from repro.spark.rdd import RDD

__all__ = [
    "Broadcast",
    "CancelToken",
    "HashPartitioner",
    "Heartbeat",
    "JobAbortedError",
    "Partitioner",
    "RDD",
    "SparkContext",
    "TaskCancelledError",
    "TaskError",
    "TaskTimeoutError",
]

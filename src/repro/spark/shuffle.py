"""The hash shuffle: map side, block format and reduce-side fetch.

A map output is a sparse dict ``reduce partition -> block``.  Only this
module knows what a block is: the map task writes them and
:meth:`_ShuffleManager.fetch` reads them for reduce tasks.

A raw (``partition_by``) block is the list of rows itself, and reduce
tasks get the map side's row objects by reference -- rows are
immutable, the contract the block cache already serves persisted
partitions under.  A combining block is one pickled list: its combiners
are read again by reduce retries and later actions, and
``merge_combiners`` may modify and return its first argument, so every
read decodes its own.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from collections import deque
from typing import TYPE_CHECKING, Iterator

from repro.spark.cancellation import Heartbeat
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import RDD, _Aggregator

if TYPE_CHECKING:
    from repro.spark.context import SparkContext


Block = list[tuple] | bytes  # raw rows, or one pickled combining list


class _ShuffleManager:
    """Materializes and serves map outputs for shuffles.

    Each registered shuffle runs its map side exactly once (on first
    fetch), bucketing every parent partition's records by the target
    partitioner.  With an aggregator, map-side combining happens here --
    the reproduction of Spark's ``mapSideCombine``.
    """

    def __init__(self, context: SparkContext) -> None:
        self._context = context
        self._ids = itertools.count()
        self._registered: dict[int, tuple[RDD, Partitioner, _Aggregator | None]] = {}
        self._outputs: dict[int, list[dict[int, Block]]] = {}
        # One lock *per shuffle id* so independent shuffles run their map
        # sides concurrently instead of serializing on a single manager
        # lock.  Each is reentrant: a reduce task of one shuffle may
        # trigger the map side of an upstream shuffle on the same thread
        # (nested jobs run inline).  Lock ordering follows the lineage
        # DAG (downstream shuffle -> upstream shuffle), so cross-shuffle
        # acquisition cannot cycle.
        self._manager_lock = threading.Lock()
        self._locks: dict[int, threading.RLock] = {}
        #: Shuffle ids whose ShuffledRDD was garbage-collected; their map
        #: outputs are dropped by the next ``register`` (see :meth:`discard`).
        self._dead: deque[int] = deque()

    def register(
        self, parent: RDD, partitioner: Partitioner, aggregator: _Aggregator | None
    ) -> int:
        shuffle_id = next(self._ids)
        with self._manager_lock:
            for _ in range(len(self._dead)):
                dead = self._dead.popleft()
                self._registered.pop(dead, None)
                self._outputs.pop(dead, None)
                self._locks.pop(dead, None)
            self._registered[shuffle_id] = (parent, partitioner, aggregator)
        return shuffle_id

    def discard(self, shuffle_id: int) -> None:
        """Mark a collected ShuffledRDD's outputs for removal (finalizer-safe).

        Only that RDD could fetch them.  Like the cache manager's
        ``discard`` this runs from a finalizer, so it only queues the id.
        """
        self._dead.append(shuffle_id)

    def _lock_for(self, shuffle_id: int) -> threading.RLock:
        with self._manager_lock:
            lock = self._locks.get(shuffle_id)
            if lock is None:
                lock = self._locks[shuffle_id] = threading.RLock()
            return lock

    def fetch(self, shuffle_id: int, reduce_split: int) -> Iterator[tuple]:
        """One reduce partition's rows, running the map side if need be.

        The only fetch path.  A failed fetch (the ``shuffle.fetch``
        chaos site) surfaces in the reduce task, which the scheduler
        retries; completed map outputs are reused.
        """
        injector = self._context.fault_injector
        if injector is not None:
            injector.check("shuffle.fetch", key=(shuffle_id, reduce_split))
        # One block per map output that wrote to *reduce_split*.
        blocks = [out[reduce_split] for out in self.ensure(shuffle_id) if reduce_split in out]
        rows = (pickle.loads(b) if isinstance(b, bytes) else b for b in blocks)
        return itertools.chain.from_iterable(rows)

    def ensure(self, shuffle_id: int) -> list[dict[int, Block]]:
        """Materialize a shuffle's map outputs (once); return them."""
        # Double-checked locking: reduce tasks may arrive concurrently
        # from the thread pool; only one runs the map side.  A map side
        # that *fails* leaves no entry behind -- ``_outputs`` is only
        # written on success -- so a retried reduce task re-runs it from
        # scratch instead of fetching poisoned buckets.
        ready = self._outputs.get(shuffle_id)
        if ready is not None:
            return ready
        with self._lock_for(shuffle_id):
            ready = self._outputs.get(shuffle_id)
            if ready is not None:
                return ready
            parent, partitioner, aggregator = self._registered[shuffle_id]
            context = self._context
            tracer = context.tracer
            with tracer.span(
                "shuffle",
                kind="shuffle",
                shuffle_id=shuffle_id,
                map_partitions=parent.num_partitions,
                reduce_partitions=partitioner.num_partitions,
                combine=aggregator is not None,
            ) as shuffle_span:
                # The map side is itself a job over the parent RDD.  From
                # inside a reduce task, run_job must not recurse into the
                # pool (deadlock risk), so the context runs nested jobs
                # inline; accounting happens here afterwards.
                results = context.run_job(parent, _make_map_task(partitioner, aggregator))
                written = sum(w for _buckets, w in results)
                tracer.add_to(shuffle_span, "records_written", written)
            outputs = [buckets for buckets, _written in results]
            context.metrics.shuffle_records_written += written
            self._outputs[shuffle_id] = outputs
            context.metrics.shuffles_executed += 1
            return outputs

    def clear(self) -> None:
        with self._manager_lock:
            self._outputs.clear()
            self._registered.clear()
            self._locks.clear()


def _make_map_task(partitioner: Partitioner, aggregator: _Aggregator | None):
    """Build the map-side task closure for one shuffle.

    The closure returns ``(buckets, records_written)``; the shuffle
    manager does the metrics/tracing accounting on the driver.
    """

    def map_task(it: Iterator[tuple]) -> tuple[dict[int, Block], int]:
        # Buckets are sparse (dict keyed by reduce partition): a map
        # task touching few of the reduce partitions must not pay
        # for the rest, or high-partition-count shuffles (e.g. fine
        # tile grids) would go quadratic.
        heartbeat = Heartbeat(every=1024)
        if aggregator is None:
            buckets: dict[int, list] = {}
            for kv in it:
                heartbeat.beat()
                buckets.setdefault(partitioner.get_partition(kv[0]), []).append(kv)
            return buckets, sum(len(rows) for rows in buckets.values())
        combined: dict[int, dict] = {}
        for k, v in it:
            heartbeat.beat()
            bucket = combined.setdefault(partitioner.get_partition(k), {})
            if k in bucket:
                bucket[k] = aggregator.merge_value(bucket[k], v)
            else:
                bucket[k] = aggregator.create_combiner(v)
        # Encoded, so each read merges private combiners (module docstring).
        return (
            {
                pid: pickle.dumps(list(d.items()), protocol=pickle.HIGHEST_PROTOCOL)
                for pid, d in combined.items()
            },
            sum(len(d) for d in combined.values()),
        )

    return map_task

"""The block cache of persisted partitions, one per context."""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.spark.context import Metrics


class _CacheManager:
    """Per-(rdd, partition) in-memory block store with an optional LRU cap.

    ``max_entries`` bounds the number of cached partition blocks; when
    exceeded, the least-recently-used block is dropped (and recomputed
    from lineage on next access), with ``metrics.cache_evictions``
    counting the drops.  Unbounded by default, matching Spark's
    behaviour of evicting only under memory pressure.
    """

    def __init__(self, max_entries: int | None = None, metrics: Metrics | None = None) -> None:
        self._blocks: OrderedDict[tuple[int, int], list] = OrderedDict()
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._metrics = metrics
        #: Ids of garbage-collected RDDs whose blocks nobody can read any
        #: more; dropped by the next ``put`` / ``len`` (see :meth:`discard`).
        self._dead: deque[int] = deque()

    def get(self, rdd_id: int, split: int) -> list | None:
        with self._lock:
            block = self._blocks.get((rdd_id, split))
            if block is not None and self._max_entries is not None:
                self._blocks.move_to_end((rdd_id, split))
            return block

    def put(self, rdd_id: int, split: int, data: list) -> None:
        with self._lock:
            self._sweep()
            self._blocks[(rdd_id, split)] = data
            if self._max_entries is not None:
                self._blocks.move_to_end((rdd_id, split))
                while len(self._blocks) > self._max_entries:
                    self._blocks.popitem(last=False)
                    if self._metrics is not None:
                        self._metrics.cache_evictions += 1

    def evict_rdd(self, rdd_id: int) -> None:
        with self._lock:
            for key in [k for k in self._blocks if k[0] == rdd_id]:
                del self._blocks[key]

    def discard(self, rdd_id: int) -> None:
        """Mark a collected RDD's blocks for removal (finalizer-safe).

        Runs from ``weakref.finalize`` -- on whatever thread dropped the
        last reference, possibly inside one of this manager's own locked
        sections -- so it takes no lock and touches no dict: it only
        queues the id.
        """
        self._dead.append(rdd_id)

    def _sweep(self) -> None:
        # Caller holds the lock.
        if self._dead:
            dead = {self._dead.popleft() for _ in range(len(self._dead))}
            for key in [k for k in self._blocks if k[0] in dead]:
                del self._blocks[key]

    def __len__(self) -> int:
        with self._lock:
            self._sweep()
            return len(self._blocks)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()

"""The block cache of persisted partitions, one per context."""

from __future__ import annotations

import gc
import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator

_pause_lock = threading.Lock()
#: How many :func:`collector_paused` blocks are open, in any thread.
_pauses = 0
#: Whether the collector was enabled when the first open block began.
_enabled_before = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector off.

    Materializing a persisted partition allocates objects that all stay
    alive, so every collection the allocations trigger walks a growing
    heap and frees nothing.  The collector is one switch per process
    and tasks run on pool threads, so the pauses are counted under a
    lock: blocks may nest or overlap, the first one in switches the
    collector off, and the last one out restores the state the first
    one found -- a caller that had disabled it keeps it disabled.
    """
    global _pauses, _enabled_before
    with _pause_lock:
        if _pauses == 0:
            _enabled_before = gc.isenabled()
            gc.disable()
        _pauses += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pauses -= 1
            if _pauses == 0 and _enabled_before:
                gc.enable()


class _CacheManager:
    """Per-(rdd, partition) in-memory block store.

    A block stays until its RDD is unpersisted (:meth:`evict_rdd`) or
    garbage-collected (:meth:`discard`), or the context stops.

    A missing block is computed once: :meth:`claim` hands the first
    reader the compute and every concurrent reader the in-flight
    ``Event`` to wait on, set by the owner's :meth:`put` or
    :meth:`abandon`.
    """

    def __init__(self) -> None:
        self._blocks: dict[tuple[int, int], list] = {}
        self._lock = threading.Lock()
        #: Ids of garbage-collected RDDs whose blocks nobody can read any
        #: more; dropped by the next ``put`` / ``len`` (see :meth:`discard`).
        self._dead: deque[int] = deque()
        #: Blocks a reader is computing -> the Event its waiters block on.
        self._computing: dict[tuple[int, int], threading.Event] = {}

    def get(self, rdd_id: int, split: int) -> list | None:
        """The cached block, or None (a plain lookup: claims nothing)."""
        with self._lock:
            return self._blocks.get((rdd_id, split))

    def claim(self, rdd_id: int, split: int) -> tuple[list | None, threading.Event | None]:
        """Look up a block, or claim its compute on a miss.

        ``(block, None)``: cached.  ``(None, event)``: another reader is
        computing it; wait on *event*, then claim again.  ``(None,
        None)``: the caller now computes it and must end with
        :meth:`put` or :meth:`abandon`.
        """
        key = (rdd_id, split)
        with self._lock:
            block = self._blocks.get(key)
            if block is not None:
                return block, None
            event = self._computing.get(key)
            if event is None:
                self._computing[key] = threading.Event()
            return None, event

    def put(self, rdd_id: int, split: int, data: list) -> None:
        with self._lock:
            self._sweep()
            self._blocks[(rdd_id, split)] = data
            self._release(rdd_id, split)

    def abandon(self, rdd_id: int, split: int) -> None:
        """End a claimed compute that failed: nothing is cached, and each
        waiter claims again (one of them computes the block itself)."""
        with self._lock:
            self._release(rdd_id, split)

    def _release(self, rdd_id: int, split: int) -> None:
        # Caller holds the lock.
        event = self._computing.pop((rdd_id, split), None)
        if event is not None:
            event.set()

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

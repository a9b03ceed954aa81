"""Ingest: the poll, admission control and the pending-batch queue.

:meth:`Ingest.ingest` is the one ingest sequence both drives of a
:class:`~repro.streaming.context.StreamingContext` use -- allocate a
batch id, poll every source once, journal the batch to the write-ahead
log, admit it to the bounded pending queue -- and :meth:`Ingest.replay`
re-runs it from a journal record during recovery, so the poll
counters, the cursor deltas and the WAL-record <-> batch mapping each
live in one place.  The ``source.poll`` chaos site fires *before* each
source's poll: an injected fault delays delivery (records stay queued
at the source) rather than losing data, and the tick reads empty.

A full queue blocks the poller (counted once per batch in
``backpressure_waits``); nothing is ever dropped at admission, so
``records_ingested == records_processed + records_quarantined +
records_failed`` holds at every quiescent point.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.streaming.context import StreamingContext


class _Batch:
    """One polled micro-batch waiting to be processed."""

    __slots__ = ("batch_id", "time", "records", "created", "queue_depth")

    def __init__(self, batch_id: int, batch_time: float, records: dict) -> None:
        self.batch_id = batch_id
        #: Event-time fallback for untimed records (ingestion time).
        self.time = batch_time
        #: ``id(input_node) -> list[Record]`` for every input stream.
        self.records = records
        self.created = time.perf_counter()
        self.queue_depth = 0

    @property
    def total_records(self) -> int:
        return sum(len(rows) for rows in self.records.values())


class Ingest:
    """A context's ingest edge: batch ids, the poll, admission.

    Owns the pending queue and the batch-id counter -- a plain int, not
    ``itertools.count``: batch ids are checkpointed state that recovery
    resumes.  The WAL journals a batch's records by input registration
    order (process-local ``id(node)`` keys are useless after a restart);
    :meth:`ingest` writes that mapping and :meth:`replay` inverts it.

    :attr:`lock` makes a poll one step for a checkpoint: :meth:`ingest`
    holds it from the id allocation through the polls, the poll
    counters and the journal append, and
    :func:`~repro.streaming.recovery.build_snapshot` reads the counter,
    the metrics and the source cursors under it.  Without it, a
    threaded drive's poller could move a cursor between the snapshot's
    counter and cursor reads, and replay would apply that batch's
    cursor delta a second time.
    """

    def __init__(self, ssc: StreamingContext, max_pending_batches: int) -> None:
        self._ssc = ssc
        self.queue: queue_mod.Queue = queue_mod.Queue(maxsize=max_pending_batches)
        #: The id the next polled batch gets.
        self.next_batch_id = 0
        self.lock = threading.Lock()

    def ingest(self, batch_time: float | None, sync: bool) -> None:
        """Poll every source once, journal the batch, admit it.

        *batch_time* defaults to the wall clock; *sync* marks the
        caller-thread drive (see :meth:`_admit`).  A journaling failure
        (including a simulated crash at the append's fsync) propagates:
        a batch that could not be made durable is never applied to
        state, which is the whole point of a write-ahead log.
        """
        ssc = self._ssc
        injector = ssc.spark_context.fault_injector
        with self.lock:
            batch_id = self.next_batch_id
            self.next_batch_id += 1
            records: dict[int, list] = {}
            cursors: list = []
            for node in ssc._inputs:
                rows: list = []
                delta = None
                try:
                    if injector is not None:
                        injector.check("source.poll", key=(node.source.name, batch_id))
                    rows = node.source.poll()
                    # Duck-typed sources need not speak the cursor protocol;
                    # they journal no delta (their cursor never moves).
                    poll_delta = getattr(node.source, "last_poll_delta", None)
                    if poll_delta is not None:
                        delta = poll_delta()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    ssc.metrics.poll_failures += 1
                    rows = []
                records[id(node)] = rows
                cursors.append(delta)
            batch = _Batch(batch_id, time.time() if batch_time is None else batch_time, records)
            self._count_poll(batch)
            batch.queue_depth = self.queue.qsize()
            manager = ssc.checkpoint_manager
            if manager is not None:
                inputs = [records[id(node)] for node in ssc._inputs]
                manager.log_batch(batch_id, batch.time, inputs, cursors)
        self._admit(batch, sync)

    def replay(self, record: dict, fresh: bool) -> _Batch:
        """Rebuild one journaled batch for recovery's replay.

        A *fresh* batch -- polled after the restored snapshot was taken
        -- re-runs its poll's effects: the journaled cursor deltas move
        the sources and the poll counters advance, the way the crashed
        process's did.  An older one sat in the pending queue when the
        snapshot was taken, which already holds its cursors and counts.
        """
        inputs = self._ssc._inputs
        records = {id(node): list(rows) for node, rows in zip(inputs, record["inputs"])}
        batch = _Batch(record["batch_id"], record["time"], records)
        if fresh:
            for node, delta in zip(inputs, record["cursors"]):
                if delta is not None:
                    node.source.apply_delta(delta)
            self._count_poll(batch)
        return batch

    def _count_poll(self, batch: _Batch) -> None:
        metrics = self._ssc.metrics
        metrics.polls += len(batch.records)  # one poll per input
        metrics.records_ingested += batch.total_records

    def _admit(self, batch: _Batch, sync: bool) -> None:
        """Admit one polled batch to the pending queue.

        The fast path is a non-blocking put.  A full queue stalls the
        poller, counted once; in the synchronous drive the poller *is*
        the processor, so blocking would deadlock -- the oldest pending
        batch is processed inline to make room.
        """
        try:
            self.queue.put_nowait(batch)
            return
        except queue_mod.Full:
            pass
        self._ssc.metrics.backpressure_waits += 1
        if sync:
            while True:
                try:
                    self.queue.put_nowait(batch)
                    return
                except queue_mod.Full:
                    self._ssc.process_pending(max_batches=1)
        stop_event = self._ssc._stop_event
        while not stop_event.is_set():
            try:
                self.queue.put(batch, timeout=0.05)
                return
            except queue_mod.Full:
                continue

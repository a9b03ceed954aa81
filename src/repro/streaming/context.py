"""The micro-batch streaming driver: ``StreamingContext``.

The event-processing half of the paper: STARK layers its operators over
Spark *Streaming*, whose execution model is discretization -- chop the
unbounded input into micro-batches and run each through the batch
engine.  A context is that loop, split along the decisions it makes:
:mod:`repro.streaming.ingest` polls, journals and admits (blocking
when the bounded pending queue is full),
:mod:`repro.streaming.batch` runs each batch on the wrapped
:class:`~repro.spark.context.SparkContext` under its retry envelope
and poison quarantine, and :mod:`repro.streaming.recovery`
makes the stream crash-recoverable with a ``checkpoint_dir``.  Windows
a sink cannot deliver and records that crash the pipeline on their own
go to the dead-letter queue under ``dlq_dir``.

This module keeps the context itself: validation, stream creation and
registration, the two drives and ``stop``.  :meth:`~StreamingContext.
run_batch` runs synchronously on the caller's thread (the
deterministic mode the tests use) and splits into
:meth:`~StreamingContext.poll_once` / :meth:`~StreamingContext.
process_pending`, so tests and benchmarks can hold ingest at a fixed
multiple of processing; :meth:`~StreamingContext.start` runs the same
ingest and processing core on background threads at
``batch_interval`` pace.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from typing import ClassVar

from repro.spark.context import SparkContext
from repro.spark.rdd import RDD
from repro.streaming.batch import BatchCore
from repro.streaming.dlq import DeadLetterQueue
from repro.streaming.dstream import SpatialDStream
from repro.streaming.ingest import Ingest
from repro.streaming.recovery import Recovery
from repro.streaming.sources import (
    DirectorySource,
    GeneratorSource,
    QueueSource,
    StreamSource,
)
from repro.streaming.state import StoreBackedConsumer

class StreamingError(RuntimeError):
    """A stream-level failure (the threaded drive could not journal or
    process a batch, a checkpoint could not be restored, or the stream
    was driven after stopping)."""


@dataclass
class StreamMetrics:
    """Counters describing a stream's execution, for tests and reports."""

    #: Fields mirroring counters owned by stores, consumers and sinks:
    #: every refresh (after each batch, at the end of a restore)
    #: rewrites them from their owners; a checkpoint never restores them.
    MIRRORED: ClassVar[frozenset[str]] = frozenset({
        "late_records_dropped", "late_window_drops", "windows_dead_lettered",
        "sink_retries", "sink_failures", "sink_breaker_opens",
    })

    #: Batches fully processed (outputs ran, window state committed).
    batches_run: int = 0
    #: Batches abandoned after exhausting ``max_batch_failures`` or
    #: aborted by a scheduler deadline.
    batches_failed: int = 0
    #: Re-runs of failed batches (attempt 2 and later).
    batch_retries: int = 0
    #: Source polls attempted (one per source per tick).
    polls: int = 0
    #: Polls that raised (chaos or source errors); the tick reads empty.
    poll_failures: int = 0
    #: Records successfully polled across all sources.
    records_ingested: int = 0
    #: Event-time windows closed and fired.
    windows_emitted: int = 0
    #: CEP rule matches emitted (a subset of the ``windows_emitted``
    #: accounting: each match emits under its own synthetic ledger
    #: window, so suppression after recovery counts uniformly).
    matches_emitted: int = 0
    #: Batches that found the pending queue full (backpressure stalls).
    backpressure_waits: int = 0
    #: Records whose *every* window had already fired on arrival
    #: (summed over all window/state consumers).
    late_records_dropped: int = 0
    #: Per-window contributions lost to already-fired windows -- a
    #: partially-late record still lands in its open windows, but each
    #: closed window it missed counts here.
    late_window_drops: int = 0
    #: Checkpoint epochs committed successfully.
    checkpoints_written: int = 0
    #: Checkpoint writes and emitted-window ledger appends that failed
    #: (counted and swallowed: the stream keeps running).
    checkpoint_failures: int = 0
    #: Windows whose re-emission was suppressed after a restore because
    #: the emitted-window ledger showed the crashed process already
    #: delivered them.  Invariant: a recovered run's ``windows_emitted
    #: + windows_suppressed`` equals the uninterrupted run's
    #: ``windows_emitted``.
    windows_suppressed: int = 0
    #: WAL-journaled batches re-processed by :meth:`StreamingContext.restore`.
    batches_replayed: int = 0
    #: Records carried by batches that completed processing, or that
    #: terminally failed only after every window consumer absorbed them.
    records_processed: int = 0
    #: Records carried by batches that terminally failed before every
    #: window consumer absorbed them.
    records_failed: int = 0
    #: Records the poison probe quarantined to the dead-letter queue.
    records_quarantined: int = 0
    #: Windows sinks routed to the dead-letter queue.  The sink counters
    #: are per-process (sinks keep none durably, a restore starts them
    #: over); ``len(ssc.dead_letter_queue)`` is the durable total.
    windows_dead_lettered: int = 0
    #: Sink write attempts beyond each window's first (per-process).
    sink_retries: int = 0
    #: Terminal sink delivery failures, retries exhausted (per-process).
    sink_failures: int = 0
    #: Circuit-breaker trips summed across all sinks (per-process).
    sink_breaker_opens: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy of every counter."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class _InputDStream(SpatialDStream):
    """The root node of a stream: wraps one :class:`StreamSource`."""

    def __init__(self, ssc: "StreamingContext", source: StreamSource) -> None:
        super().__init__(ssc, parent=None, transform_fn=None, name=f"input:{source.name}")
        self.source = source


class StreamingContext:
    """Micro-batch streaming over a :class:`SparkContext` (see module doc).

    Parameters
    ----------
    sc:
        The batch context every micro-batch runs its jobs on.  Not
        owned: stopping the stream leaves *sc* usable.
    batch_interval:
        Poll/process cadence in seconds for the threaded drive mode.
    max_pending_batches:
        Bound of the pending-batch queue between poller and processor;
        a full queue blocks the poller (the backpressure knob).
    max_batch_failures:
        Attempts a batch gets before it counts as failed and the stream
        moves on.  A scheduler deadline (*sc*'s ``task_timeout`` /
        ``job_timeout``) that aborts one of the batch's jobs fails it
        at once; the stream has no deadline of its own.
    num_slices:
        Partitions per batch, window and CEP match RDD, capped by the
        record count.  The default (None) is one partition: a
        micro-batch is one poll, as a Spark Streaming batch with one
        receiver block is one partition, so each of its jobs is one
        task and runs inline on the driver rather than paying a
        thread-pool round trip per slice.  An explicit count splits
        every RDD into that many slices (and, under ``threads``, sends
        its jobs through the pool).
    checkpoint_dir:
        Directory for the write-ahead log and checkpoint epochs; None
        (the default) disables durability entirely -- zero overhead.
    checkpoint_interval:
        Completed batches between checkpoint epochs (only meaningful
        with ``checkpoint_dir``).
    dlq_dir:
        Directory for the context's :class:`~repro.streaming.dlq.
        DeadLetterQueue`.  None disables dead-lettering: sink failures
        raise as before and the poison probe never runs.  Sinks
        without their own DLQ inherit this one.
    """

    def __init__(
        self,
        sc: SparkContext,
        batch_interval: float = 0.1,
        max_pending_batches: int = 4,
        max_batch_failures: int = 2,
        num_slices: int | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 10,
        dlq_dir: str | None = None,
    ) -> None:
        if batch_interval <= 0:
            raise ValueError(f"batch_interval must be positive, got {batch_interval}")
        if max_pending_batches < 1:
            raise ValueError(f"max_pending_batches must be >= 1, got {max_pending_batches}")
        if max_batch_failures < 1:
            raise ValueError(f"max_batch_failures must be >= 1, got {max_batch_failures}")
        if num_slices is not None and num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {num_slices}")
        if checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1, got {checkpoint_interval}")
        self._sc = sc
        self.batch_interval = batch_interval
        self.num_slices = num_slices
        self.metrics = StreamMetrics()
        self._inputs: list[_InputDStream] = []
        self._outputs: list[tuple[SpatialDStream, object]] = []
        self._windows: list[StoreBackedConsumer] = []
        self._dlq = DeadLetterQueue(dlq_dir) if dlq_dir is not None else None
        self._ingest = Ingest(self, max_pending_batches)
        self._core = BatchCore(self, max_batch_failures)
        self._recovery = Recovery(self, checkpoint_dir, checkpoint_interval)
        self._stopped = False
        self._started = False
        self._stop_event = threading.Event()
        self._poller: threading.Thread | None = None
        self._processor: threading.Thread | None = None
        self._error: BaseException | None = None

    @property
    def spark_context(self) -> SparkContext:
        """The wrapped batch context."""
        return self._sc

    @property
    def dead_letter_queue(self) -> DeadLetterQueue | None:
        """The context's DLQ (None when built without ``dlq_dir``)."""
        return self._dlq

    @property
    def checkpoint_manager(self):
        """The :class:`~repro.streaming.checkpoint.CheckpointManager`
        (None when the context runs without ``checkpoint_dir``)."""
        return self._recovery.manager

    @property
    def batch_latencies(self) -> list[tuple[int, int, float, int]]:
        """``(batch_id, records, latency_s, queue_depth)`` per processed
        batch, latency measured from poll to completion."""
        return self._core.latencies

    @property
    def pending_batches(self) -> int:
        """Polled batches currently waiting in the admission queue."""
        return self._ingest.queue.qsize()

    # -- stream creation ---------------------------------------------------

    def stream(self, source: StreamSource) -> SpatialDStream:
        """Create an input stream from any :class:`StreamSource`."""
        if self._stopped:
            raise StreamingError("cannot add streams to a stopped StreamingContext")
        node = _InputDStream(self, source)
        self._inputs.append(node)
        return node

    def queue_stream(self, batches=()) -> tuple[QueueSource, SpatialDStream]:
        """An in-memory stream; returns ``(source, stream)`` so the
        caller can keep pushing batches into the source."""
        source = QueueSource(batches)
        return source, self.stream(source)

    def directory_stream(
        self,
        path: str,
        format: str = "events",
        on_error: str = "raise",
    ) -> SpatialDStream:
        """Watch *path* for new event/GeoJSON files (see
        :class:`~repro.streaming.sources.DirectorySource`)."""
        return self.stream(DirectorySource(path, format=format, on_error=on_error))

    def generator_stream(self, **kwargs) -> SpatialDStream:
        """A seeded synthetic event stream (see
        :class:`~repro.streaming.sources.GeneratorSource`)."""
        return self.stream(GeneratorSource(**kwargs))

    # -- registration hooks (called by SpatialDStream) ---------------------

    def _register_output(self, node: SpatialDStream, fn) -> None:
        self._outputs.append((node, fn))

    def _register_window(self, consumer: StoreBackedConsumer) -> None:
        # Registration order is the consumer's durable identity (see
        # ``StoreBackedConsumer.checkpoint_index``).
        consumer.checkpoint_index = len(self._windows)
        self._windows.append(consumer)

    def _batch_rdd(self, records: list) -> RDD:
        """Build one batch's (or window's) RDD from collected records:
        one partition unless ``num_slices`` asks for more."""
        slices = 1 if self.num_slices is None else min(self.num_slices, len(records))
        return self._sc.parallelize(records, max(1, slices))

    def _fail(self, message: str, cause: BaseException) -> None:
        """Record the stream's terminal error; every later drive raises it."""
        self._error = StreamingError(message)
        self._error.__cause__ = cause

    def restore(self, checkpoint_dir: str | None = None):
        """Resume from the newest valid checkpoint plus the WAL tail.

        Call on a *freshly declared* context -- same sources, streams,
        windows and queries registered in the same order as the crashed
        run, no batches driven yet (see :mod:`repro.streaming.recovery`).
        Returns a :class:`~repro.streaming.recovery.RecoveryReport`.

        *checkpoint_dir* may name the directory explicitly when the
        context was built without one (restore-into-fresh-context); it
        must agree with the constructor's directory otherwise.
        """
        return self._recovery.restore(checkpoint_dir)

    # -- synchronous drive (deterministic; what the tests use) -------------

    def poll_once(self, batch_time: float | None = None) -> None:
        """Poll every source once and admit the batch (no processing).

        The ingest half of :meth:`run_batch`: the batch is journaled
        and put on the pending queue; on a full queue the oldest
        pending batch is processed inline to make room.  Calling this
        faster than :meth:`process_pending` drains sustains a fixed
        overload.
        """
        self._check_drivable()
        self._ingest.ingest(batch_time, sync=True)

    def process_pending(self, max_batches: int | None = None) -> int:
        """Process up to *max_batches* pending batches on this thread.

        The processing half of :meth:`run_batch`; drains the whole
        queue when *max_batches* is None.  Returns how many batches
        completed.
        """
        self._check_drivable()
        completed = taken = 0
        while max_batches is None or taken < max_batches:
            try:
                batch = self._ingest.queue.get_nowait()
            except queue_mod.Empty:
                break
            taken += 1
            completed += bool(self._core.process(batch))
        return completed

    def run_batch(self, batch_time: float | None = None) -> bool:
        """Poll every source once and process the batch on this thread.

        *batch_time* is the event-time fallback for untimed records
        (default: wall clock).  Returns True when the batch completed,
        False when it failed (see ``metrics.batches_failed``).
        """
        self.poll_once(batch_time)
        return self.process_pending() > 0

    def run_batches(self, n: int, batch_times: list[float] | None = None) -> int:
        """Run *n* synchronous batches; returns how many completed."""
        if batch_times is not None and len(batch_times) != n:
            raise ValueError("batch_times must have exactly n entries")
        times = [None] * n if batch_times is None else batch_times
        return sum(bool(self.run_batch(batch_time)) for batch_time in times)

    def _check_drivable(self) -> None:
        if self._stopped:
            raise StreamingError("StreamingContext has been stopped")
        if self._error is not None:
            raise self._error
        if self._started:
            raise StreamingError(
                "cannot drive batches synchronously while the loop threads run"
            )

    # -- threaded drive ----------------------------------------------------

    def start(self) -> None:
        """Start the poll/process loop on background threads.

        The poller ticks every ``batch_interval`` seconds and offers
        polled batches to the bounded pending queue (blocking, with
        ``backpressure_waits`` accounting, when the processor lags);
        the processor drains the queue through the same core
        :meth:`run_batch` uses.
        """
        self._check_drivable()
        self._started = True
        self._stop_event.clear()
        self._poller = threading.Thread(target=self._poll_loop, name="stream-poller", daemon=True)
        self._processor = threading.Thread(
            target=self._process_loop, name="stream-processor", daemon=True
        )
        self._processor.start()
        self._poller.start()

    def _poll_loop(self) -> None:
        next_tick = time.monotonic()
        while not self._stop_event.is_set():
            try:
                self._ingest.ingest(None, sync=False)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                # A batch that cannot be journaled must not be applied;
                # stopping beats running without durability.
                self._fail(f"write-ahead log append failed: {exc}", exc)
                self._stop_event.set()
                return
            next_tick += self.batch_interval
            wait = next_tick - time.monotonic()
            if wait > 0:
                self._stop_event.wait(wait)
            else:
                # Fell behind; re-anchor so ticks don't bunch up.
                next_tick = time.monotonic()

    def _process_loop(self) -> None:
        while True:
            try:
                batch = self._ingest.queue.get(timeout=0.05)
            except queue_mod.Empty:
                if self._stop_event.is_set():
                    return
                continue
            try:
                self._core.process(batch)
            except (KeyboardInterrupt, SystemExit):
                return
            except BaseException as exc:  # defensive: core shouldn't raise
                self._fail(f"batch processing crashed: {exc}", exc)
            if self._error is not None:
                self._stop_event.set()
                return

    def await_termination(self, timeout: float | None = None) -> bool:
        """Block until the stream stops (or *timeout*); raise its error.

        Returns True when the stream terminated within the timeout.
        """
        if self._poller is None:
            if self._error is not None:
                raise self._error
            return self._stopped
        terminated = self._stop_event.wait(timeout)
        if terminated and self._error is not None:
            raise self._error
        return terminated

    def _stop_threads_only(self) -> None:
        self._stop_event.set()
        for thread in (self._poller, self._processor):
            if thread is not None and thread.is_alive():
                thread.join(timeout=5.0)
        self._poller = self._processor = None
        self._started = False

    def stop(self, flush: bool = True, drain: bool = True) -> None:
        """Stop the stream; idempotent, safe from any thread.

        With *drain* the batches already queued are processed before
        the stream stops; with *flush* every still-open event-time
        window is closed and fired, so no buffered record is silently
        lost.  The wrapped :class:`SparkContext` is left running -- the
        caller owns its lifecycle.
        """
        if self._stopped:
            return
        self._stop_threads_only()
        if drain and self._error is None:
            self.process_pending()
        if flush and self._error is None:
            self._core.flush()
        for node in self._inputs:
            node.source.close()
        self._recovery.close()
        if self._dlq is not None:
            self._dlq.close()
        self._stopped = True

    def __enter__(self) -> "StreamingContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else ("running" if self._started else "idle")
        return (
            f"StreamingContext(interval={self.batch_interval:g}s, "
            f"inputs={len(self._inputs)}, {state})"
        )

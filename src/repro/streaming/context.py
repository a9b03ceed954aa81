"""The micro-batch streaming driver: ``StreamingContext``.

The event-processing half of the paper: STARK layers its operators over
Spark *Streaming*, whose execution model is discretization -- chop the
unbounded input into micro-batches and run each through the batch
engine.  This module is that loop, built on the substrate the previous
layers provide:

- each batch's transformations run as ordinary jobs on the wrapped
  :class:`~repro.spark.context.SparkContext` (any executor backend:
  ``sequential``, ``threads`` or ``processes``);
- per-batch **deadlines** reuse :mod:`repro.spark.cancellation`: the
  batch runs under a :class:`CancelToken` a watchdog timer cancels, so
  every job the batch launches -- levels deep -- aborts cooperatively
  when the batch overruns, and the *straggler policy* then decides:
  ``"skip"`` drops the overdue batch (counted) and moves on, ``"fail"``
  stops the stream;
- **backpressure** is a bounded pending-batch queue between the poller
  and the processor: when processing falls behind, the poller blocks
  instead of buffering unboundedly (``backpressure_waits`` counts the
  stalls);
- the chaos sites ``source.poll`` and ``batch.run`` let the
  :mod:`repro.chaos` injector exercise the loop: a poll fault skips
  that source's tick (records stay queued at the source), a batch fault
  is retried up to ``max_batch_failures`` like a failed task;
- with tracing enabled every batch opens a ``batch`` span recording
  records, queue depth, attempts and outcome, and
  :attr:`StreamingContext.batch_latencies` keeps the latency series the
  benchmark reports percentiles from.

Two drive modes share the same processing core: :meth:`run_batch` /
:meth:`run_batches` execute synchronously on the caller's thread (the
deterministic mode the tests use), while :meth:`start` runs the
poll/process loop on background threads at ``batch_interval`` pace.

With ``checkpoint_dir`` set the context becomes crash-recoverable:
every polled batch is journaled to a write-ahead log *before* it is
processed, every ``checkpoint_interval`` completed batches the full
streaming state is checkpointed atomically, and a fresh context with
the same pipeline declaration calls :meth:`restore` to resume --
loading the newest valid checkpoint, replaying the WAL tail through
the normal processing core, and suppressing re-emission of windows the
crashed process already delivered (see
:mod:`repro.streaming.checkpoint` and :mod:`repro.streaming.recovery`).

**Graceful degradation.**  Under sustained overload the context
degrades deliberately instead of stalling or dying, climbing the
ladder of :data:`~repro.streaming.overload.DEGRADATION_LEVELS`:

- *admission control*: when the pending queue is full the
  ``shed_policy`` decides -- ``"block"`` (the historical
  backpressure), ``"shed_oldest"``, ``"shed_newest"`` or the seeded
  deterministic ``"sample"``.  Shed batches are journaled to the WAL
  (``kind="shed"``) *after* their batch record, so recovery replays
  the same sheds, and counted in ``batches_shed`` / ``records_shed``
  -- the accounting invariant ``records_ingested == records_processed
  + records_shed + records_quarantined + records_failed`` holds at
  every quiescent point, no silent loss;
- *memory-budgeted state*: keyed consumers built with a byte budget
  spill cold grid cells to disk (see :mod:`repro.streaming.state`),
  surfaced through the ``state_*`` metrics;
- *sink protection*: window sinks retry, trip circuit breakers and
  dead-letter undeliverable windows to the context's
  :class:`~repro.streaming.dlq.DeadLetterQueue` (``dlq_dir``) instead
  of aborting the stream;
- *poison quarantine*: when a batch exhausts its attempts and a DLQ is
  attached, each record is probed alone through every transformation
  chain; records that crash solo are quarantined to the DLQ with
  provenance and the cleaned batch gets a fresh round of attempts --
  one bad record no longer poisons its whole batch.

The current rung is recomputed after every batch
(:meth:`StreamingContext._refresh_overload`), exported as
``metrics.degradation`` and stamped on ``batch`` spans while degraded.

The synchronous drive splits into :meth:`poll_once` /
:meth:`process_pending` so tests and benchmarks can hold ingest at a
fixed multiple of processing -- the sustained-overload harness --
while :meth:`run_batch` keeps its poll-then-process contract.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass

from repro.spark.cancellation import (
    KIND_TIMEOUT,
    CancelToken,
    TaskCancelledError,
    task_scope,
)
from repro.spark.context import SparkContext
from repro.spark.errors import JobAbortedError, TaskTimeoutError
from repro.spark.rdd import RDD
from repro.streaming.dlq import DeadLetterQueue
from repro.streaming.dstream import DStream, SpatialDStream
from repro.streaming.overload import (
    SHED_POLICIES,
    degradation_level,
    sample_decision,
)
from repro.streaming.sinks import WindowSink
from repro.streaming.sources import (
    DirectorySource,
    GeneratorSource,
    QueueSource,
    StreamSource,
)
from repro.streaming.state import StoreBackedConsumer

#: The straggler policies: drop an overdue batch, or stop the stream.
STRAGGLER_POLICIES = ("skip", "fail")


class StreamingError(RuntimeError):
    """A stream-level failure (a batch exhausted its attempts under the
    ``"fail"`` policy, or the stream was driven after stopping)."""


@dataclass
class StreamMetrics:
    """Counters describing a stream's execution, for tests and reports."""

    #: Batches fully processed (outputs ran, window state committed).
    batches_run: int = 0
    #: Batches abandoned after exhausting ``max_batch_failures``.
    batches_failed: int = 0
    #: Batches dropped by the straggler policy (deadline overrun).
    batches_skipped: int = 0
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
    #: Checkpoint attempts that failed (the stream keeps running -- a
    #: failed checkpoint only widens the WAL tail a recovery replays).
    checkpoint_failures: int = 0
    #: Windows whose re-emission was suppressed after a restore because
    #: the emitted-window ledger showed the crashed process already
    #: delivered them.  Invariant: a recovered run's ``windows_emitted
    #: + windows_suppressed`` equals the uninterrupted run's
    #: ``windows_emitted``.
    windows_suppressed: int = 0
    #: WAL-journaled batches re-processed by :meth:`StreamingContext.restore`.
    batches_replayed: int = 0
    #: Whole batches dropped at admission by the shed policy.
    batches_shed: int = 0
    #: Records inside shed batches (journaled and counted, never applied).
    records_shed: int = 0
    #: Records carried by batches that completed processing.
    records_processed: int = 0
    #: Records carried by batches that terminally failed or were
    #: dropped by the straggler policy.
    records_failed: int = 0
    #: Records the poison probe quarantined to the dead-letter queue.
    records_quarantined: int = 0
    #: Windows sinks routed to the dead-letter queue.
    windows_dead_lettered: int = 0
    #: Sink write attempts beyond each window's first.
    sink_retries: int = 0
    #: Terminal sink delivery failures (retries exhausted).
    sink_failures: int = 0
    #: Circuit-breaker trips summed across all sinks.
    sink_breaker_opens: int = 0
    #: Keyed-state cells spilled to disk (cumulative, all consumers).
    state_cells_spilled: int = 0
    #: Spilled cells transparently loaded back (cumulative).
    state_cells_loaded: int = 0
    #: Spill attempts that failed (the cell stayed in memory).
    state_spill_failures: int = 0
    #: Estimated bytes currently parked on disk by state spill.
    state_spilled_bytes: int = 0
    #: The degradation-ladder rung as of the last refresh (the one
    #: non-integer counter; see :func:`repro.streaming.overload.
    #: degradation_level`).
    degradation: str = "healthy"

    def snapshot(self) -> dict:
        """A plain-dict copy of every counter."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


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


class _InputDStream(SpatialDStream):
    """The root node of a stream: wraps one :class:`StreamSource`."""

    def __init__(self, ssc: "StreamingContext", source: StreamSource) -> None:
        super().__init__(ssc, parent=None, transform_fn=None, name=f"input:{source.name}")
        self.source = source

    def _derived_type(self) -> type:
        return SpatialDStream


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
        the backpressure knob.
    batch_timeout:
        Per-batch deadline in seconds (None disables).  Overruns are
        handled by *straggler_policy*.
    straggler_policy:
        ``"skip"`` drops an overdue batch and keeps going (counted in
        ``metrics.batches_skipped``); ``"fail"`` stops the stream with
        a :class:`StreamingError`.
    max_batch_failures:
        Attempts a batch gets before it counts as failed (timeouts are
        not retried -- the straggler policy owns those).
    num_slices:
        Partitions per batch RDD (default: the context's parallelism,
        capped by the batch's record count).
    checkpoint_dir:
        Directory for the write-ahead log and checkpoint epochs; None
        (the default) disables durability entirely -- zero overhead.
    checkpoint_interval:
        Completed batches between checkpoint epochs (only meaningful
        with ``checkpoint_dir``).
    wal_segment_bytes:
        WAL segment rotation threshold in bytes.
    shed_policy:
        Admission policy for a full pending queue: ``"block"`` (the
        default backpressure stall), ``"shed_oldest"``,
        ``"shed_newest"`` or ``"sample"`` (see
        :mod:`repro.streaming.overload`).
    shed_seed:
        Seed of the ``"sample"`` policy's per-batch coin -- the same
        seed sheds the same batch ids on a replayed stream.
    sample_keep:
        Probability the ``"sample"`` policy keeps the incoming batch
        (evicting the oldest) instead of shedding it.
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
        batch_timeout: float | None = None,
        straggler_policy: str = "skip",
        max_batch_failures: int = 2,
        num_slices: int | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 10,
        wal_segment_bytes: int = 1 << 20,
        shed_policy: str = "block",
        shed_seed: int = 0,
        sample_keep: float = 0.5,
        dlq_dir: str | None = None,
    ) -> None:
        if batch_interval <= 0:
            raise ValueError(f"batch_interval must be positive, got {batch_interval}")
        if max_pending_batches < 1:
            raise ValueError(
                f"max_pending_batches must be >= 1, got {max_pending_batches}"
            )
        if batch_timeout is not None and batch_timeout <= 0:
            raise ValueError(f"batch_timeout must be positive, got {batch_timeout}")
        if straggler_policy not in STRAGGLER_POLICIES:
            raise ValueError(
                f"straggler_policy must be one of {STRAGGLER_POLICIES}, "
                f"got {straggler_policy!r}"
            )
        if max_batch_failures < 1:
            raise ValueError(f"max_batch_failures must be >= 1, got {max_batch_failures}")
        if num_slices is not None and num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {num_slices}")
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, got {shed_policy!r}"
            )
        if not 0.0 <= sample_keep <= 1.0:
            raise ValueError(f"sample_keep must be in [0, 1], got {sample_keep}")
        self._sc = sc
        self.batch_interval = batch_interval
        self.max_pending_batches = max_pending_batches
        self.batch_timeout = batch_timeout
        self.straggler_policy = straggler_policy
        self.max_batch_failures = max_batch_failures
        self.num_slices = num_slices
        self.metrics = StreamMetrics()
        #: ``(batch_id, records, latency_s, queue_depth)`` per processed
        #: batch -- latency measured from poll to completion, so queued
        #: time under backpressure counts, as it should.
        self.batch_latencies: list[tuple[int, int, float, int]] = []
        self._inputs: list[_InputDStream] = []
        self._outputs: list[tuple[DStream, object]] = []
        self._windows: list[StoreBackedConsumer] = []
        # A plain int counter (not itertools.count): batch ids are part
        # of checkpointed state and recovery must be able to reset them.
        self._next_batch_id = 0
        self.checkpoint_interval = checkpoint_interval
        self._batches_since_checkpoint = 0
        #: ``(consumer_index, start, end)`` windows whose re-emission a
        #: restore suppressed -- consumed (discarded) as they re-close.
        self._suppress: set[tuple[int, float, float]] = set()
        if checkpoint_dir is not None:
            from repro.streaming.checkpoint import CheckpointManager

            self._ckpt: "CheckpointManager | None" = CheckpointManager(
                checkpoint_dir,
                segment_bytes=wal_segment_bytes,
                injector_source=lambda: self._sc.fault_injector,
            )
        else:
            self._ckpt = None
        self.shed_policy = shed_policy
        self.shed_seed = shed_seed
        self.sample_keep = sample_keep
        self._dlq = DeadLetterQueue(dlq_dir) if dlq_dir is not None else None
        #: ``batches_shed`` as of the last ladder refresh -- the
        #: "actively shedding" edge detector.
        self._ladder_shed_seen = 0
        #: The batch currently in the processing core (sink provenance).
        self._current_batch: _Batch | None = None
        self._stopped = False
        self._started = False
        self._stop_event = threading.Event()
        self._queue: queue_mod.Queue = queue_mod.Queue(maxsize=max_pending_batches)
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
    def pending_batches(self) -> int:
        """Polled batches currently waiting in the admission queue."""
        return self._queue.qsize()

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

    # -- registration hooks (called by DStream) ----------------------------

    def _register_output(self, node: DStream, fn) -> None:
        self._outputs.append((node, fn))

    def _register_window(self, consumer: StoreBackedConsumer) -> None:
        # Registration order is the consumer's durable identity (see
        # ``StoreBackedConsumer.checkpoint_index``).
        consumer.checkpoint_index = len(self._windows)
        self._windows.append(consumer)

    def _batch_rdd(self, records: list) -> RDD:
        """Build one batch's (or window's) RDD from collected records."""
        if not records:
            return self._sc.parallelize([], 1)
        slices = self.num_slices or self._sc.default_parallelism
        return self._sc.parallelize(records, min(slices, len(records)))

    # -- polling -----------------------------------------------------------

    def _poll_inputs(self, batch_id: int) -> tuple[dict, list]:
        """Poll every source once; a failed poll reads empty for the tick.

        The ``source.poll`` chaos site fires *before* the actual poll,
        so an injected fault delays delivery (records stay queued at
        the source) rather than losing data -- the realistic failure
        mode of a flaky ingest endpoint.

        Returns ``(records, deltas)``: records keyed by input-node id
        for batch construction, and each source's cursor delta (None
        for a failed poll, whose cursor never moved) in input order for
        the write-ahead log.
        """
        injector = self._sc.fault_injector
        records: dict[int, list] = {}
        deltas: list = []
        for node in self._inputs:
            self.metrics.polls += 1
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
                self.metrics.poll_failures += 1
                rows = []
            records[id(node)] = rows
            deltas.append(delta)
            self.metrics.records_ingested += len(rows)
        return records, deltas

    def _log_batch(self, batch: "_Batch", deltas: list) -> None:
        """Journal one polled batch to the WAL before it is processed.

        A failure here (including a simulated crash at the append's
        fsync) propagates: a batch that could not be made durable is
        never applied to state, which is the whole point of a
        write-ahead log.
        """
        if self._ckpt is None:
            return
        inputs = [batch.records[id(node)] for node in self._inputs]
        self._ckpt.log_batch(batch.batch_id, batch.time, inputs, deltas)

    # -- admission control -------------------------------------------------

    def _shed(self, batch: "_Batch") -> None:
        """Account one shed batch: WAL journal entry plus counters.

        Runs *after* the batch's own WAL record was appended, so a
        recovery sees both and replays the shed instead of the batch --
        a restored run drops exactly the batches the live run dropped.
        A journaling failure propagates like :meth:`_log_batch`'s: a
        shed that cannot be made durable would silently re-apply its
        records on replay.
        """
        if self._ckpt is not None:
            self._ckpt.log_shed(batch.batch_id, batch.total_records)
        self.metrics.batches_shed += 1
        self.metrics.records_shed += batch.total_records

    def _admit(self, batch: "_Batch", sync: bool) -> bool:
        """Admit one polled batch to the pending queue; False = shed.

        The fast path is a non-blocking put.  On a full queue the shed
        policy decides: ``"block"`` stalls (in the synchronous drive
        the poller *is* the processor, so blocking would deadlock --
        the oldest pending batch is processed inline to make room);
        ``"shed_oldest"`` evicts the oldest pending batch in favour of
        the newcomer; ``"shed_newest"`` drops the newcomer;
        ``"sample"`` flips the seeded per-batch coin between those two.
        """
        try:
            self._queue.put_nowait(batch)
            return True
        except queue_mod.Full:
            pass
        policy = self.shed_policy
        if policy == "sample":
            keep = sample_decision(self.shed_seed, batch.batch_id, self.sample_keep)
            policy = "shed_oldest" if keep else "shed_newest"
        if policy == "shed_newest":
            self._shed(batch)
            return False
        if policy == "shed_oldest":
            while True:
                try:
                    self._shed(self._queue.get_nowait())
                except queue_mod.Empty:
                    pass
                try:
                    self._queue.put_nowait(batch)
                    return True
                except queue_mod.Full:
                    continue
        # "block": the historical backpressure stall, counted once.
        self.metrics.backpressure_waits += 1
        if sync:
            while True:
                try:
                    self._queue.put_nowait(batch)
                    return True
                except queue_mod.Full:
                    self._drain_one()
        while not self._stop_event.is_set():
            try:
                self._queue.put(batch, timeout=0.05)
                return True
            except queue_mod.Full:
                continue
        return False

    def _drain_one(self) -> None:
        """Process the oldest pending batch inline (sync block policy)."""
        try:
            pending = self._queue.get_nowait()
        except queue_mod.Empty:
            return
        self._process(pending)
        if self._error is not None:
            raise self._error

    # -- the processing core ----------------------------------------------

    def _process(self, batch: _Batch) -> bool:
        """Run one batch through outputs and windows; True if it completed.

        The retry envelope mirrors the task scheduler's: non-timeout
        failures re-run the whole batch up to ``max_batch_failures``
        attempts (window absorption is idempotent per batch id, so a
        retry cannot double-count), while a deadline overrun goes
        straight to the straggler policy.  Under ``"fail"`` the stream
        records the error and every later drive call raises it.

        With a dead-letter queue attached, a batch that exhausts its
        attempts gets one more chance: the poison probe
        (:meth:`_find_poison_records`) isolates records that crash a
        transformation chain *on their own*, quarantines them to the
        DLQ with provenance, and re-runs the cleaned batch with a
        fresh attempt budget -- at most once per batch.
        """
        tracer = self._sc.tracer
        injector = self._sc.fault_injector
        self._wire_sinks()
        self._current_batch = batch
        quarantined = False
        with tracer.span(
            "batch",
            kind="batch",
            batch_id=batch.batch_id,
            records=batch.total_records,
            queue_depth=batch.queue_depth,
        ) as span:
            attempt = 0
            while True:
                attempt += 1
                token = CancelToken()
                timer: threading.Timer | None = None
                if self.batch_timeout is not None:
                    timer = threading.Timer(
                        self.batch_timeout,
                        token.cancel,
                        args=(
                            f"batch timeout after {self.batch_timeout:g}s",
                            KIND_TIMEOUT,
                        ),
                    )
                    timer.daemon = True
                    timer.start()
                try:
                    with task_scope(token):
                        if injector is not None:
                            injector.check("batch.run", key=batch.batch_id)
                        base = {
                            node_id: self._batch_rdd(rows)
                            for node_id, rows in batch.records.items()
                        }
                        for node, fn in self._outputs:
                            fn(batch.batch_id, node._compute(base))
                        for consumer in self._windows:
                            rows = consumer.node._compute(base).collect()
                            consumer.absorb(batch.batch_id, rows, batch.time)
                        fired = 0
                        for consumer in self._windows:
                            fired += consumer.fire(self)
                        token.check()
                    self.metrics.windows_emitted += fired
                    self._refresh_lateness()
                    self.metrics.batches_run += 1
                    self.metrics.records_processed += batch.total_records
                    self._refresh_overload()
                    if self._ckpt is not None:
                        self._ckpt.commit_emits(batch.batch_id)
                        self._maybe_checkpoint(batch.batch_id)
                    if tracer.enabled:
                        span.attrs["windows"] = fired
                        if attempt > 1:
                            span.attrs["attempts"] = attempt
                        if self.metrics.degradation != "healthy":
                            span.attrs["degradation"] = self.metrics.degradation
                    self._record_latency(batch)
                    return True
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    if self._timed_out(exc, token):
                        self.metrics.batches_skipped += 1
                        self.metrics.records_failed += batch.total_records
                        span.attrs["skipped"] = True
                        span.attrs["timeout"] = True
                        self._record_latency(batch)
                        if self.straggler_policy == "fail":
                            self._error = StreamingError(
                                f"batch {batch.batch_id} exceeded its "
                                f"{self.batch_timeout:g}s deadline"
                            )
                            self._error.__cause__ = exc
                            return False
                        return False
                    if attempt < self.max_batch_failures:
                        self.metrics.batch_retries += 1
                        span.note_failure(f"{type(exc).__name__}: {exc}")
                        continue
                    if (
                        not quarantined
                        and self._dlq is not None
                        and batch.total_records > 0
                        and self._quarantine_poisons(batch, span)
                    ):
                        # The cleaned batch earned a fresh attempt
                        # budget; at most one quarantine per batch.
                        quarantined = True
                        attempt = 0
                        continue
                    self.metrics.batches_failed += 1
                    self.metrics.records_failed += batch.total_records
                    span.attrs["failed"] = True
                    span.note_failure(f"{type(exc).__name__}: {exc}")
                    self._record_latency(batch)
                    if self.straggler_policy == "fail":
                        self._error = StreamingError(
                            f"batch {batch.batch_id} failed after "
                            f"{attempt} attempt(s): {exc}"
                        )
                        self._error.__cause__ = exc
                    return False
                finally:
                    if timer is not None:
                        timer.cancel()

    @staticmethod
    def _timed_out(exc: BaseException, token: CancelToken) -> bool:
        """Did this failure come from a deadline rather than a fault?

        Covers the batch's own deadline (the token the watchdog
        cancelled) and job-level deadline aborts bubbling up from the
        scheduler (``sc.job_timeout`` / exhausted task timeouts).
        """
        if token.cancelled and token.kind == KIND_TIMEOUT:
            return True
        if isinstance(exc, TaskCancelledError) and exc.kind == KIND_TIMEOUT:
            return True
        if isinstance(exc, JobAbortedError):
            cause = exc.cause
            if isinstance(cause, TaskTimeoutError):
                return True
            if isinstance(cause, TaskCancelledError) and cause.kind == KIND_TIMEOUT:
                return True
        return False

    def _refresh_lateness(self) -> None:
        """Mirror the per-consumer lateness counters into the metrics."""
        dropped = drops = 0
        for consumer in self._windows:
            dropped += consumer.late_dropped
            drops += consumer.late_window_drops
        self.metrics.late_records_dropped = dropped
        self.metrics.late_window_drops = drops

    # -- overload: sinks, poison quarantine, the ladder --------------------

    def _iter_sinks(self):
        """Every distinct :class:`WindowSink` registered on a consumer."""
        seen: set[int] = set()
        for consumer in self._windows:
            for fn in consumer.outputs:
                if isinstance(fn, WindowSink) and id(fn) not in seen:
                    seen.add(id(fn))
                    yield fn

    def _sink_provenance(self) -> dict:
        """Provenance for DLQ entries written during the current batch."""
        batch = self._current_batch
        sources = ",".join(node.source.name for node in self._inputs)
        return {
            "batch_id": batch.batch_id if batch is not None else None,
            "source": sources or None,
        }

    def _wire_sinks(self) -> None:
        """Hook every registered sink into the context's overload layer.

        Gives each sink the live fault injector (the ``sink.write``
        chaos site), the per-batch provenance source, and -- when the
        sink has no dead-letter queue of its own -- the context's.
        Idempotent; runs at the top of every batch so sinks registered
        between batches are picked up too.
        """
        for sink in self._iter_sinks():
            sink._injector_source = lambda: self._sc.fault_injector
            sink._provenance_source = self._sink_provenance
            if sink.dlq is None and self._dlq is not None:
                sink.dlq = self._dlq

    def _find_poison_records(self, batch: _Batch) -> list[tuple[int, int, str]]:
        """Probe each record alone; return ``(node_id, index, error)``.

        Each record is run solo (empty RDDs for every other input)
        through every output node's and window consumer's
        transformation chain.  ``_compute`` is pure -- no output
        function runs, no state is absorbed -- so probing mutates
        nothing and a probe crash convicts exactly one record.  A
        record whose failure needs batch-mates (a genuine cross-record
        bug) is *not* convicted, and the batch fails as before.
        """
        poisons: list[tuple[int, int, str]] = []
        for node_id, rows in batch.records.items():
            for index, record in enumerate(rows):
                base = {
                    nid: self._batch_rdd([record] if nid == node_id else [])
                    for nid in batch.records
                }
                try:
                    for node, _fn in self._outputs:
                        node._compute(base).collect()
                    for consumer in self._windows:
                        consumer.node._compute(base).collect()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    poisons.append((node_id, index, f"{type(exc).__name__}: {exc}"))
        return poisons

    def _quarantine_poisons(self, batch: _Batch, span) -> bool:
        """Quarantine the batch's poison records; True if any were found.

        Convicted records go to the DLQ with provenance (source name,
        batch id, exception) and are removed from the batch in place,
        so the caller's retry runs the cleaned batch.
        """
        poisons = self._find_poison_records(batch)
        if not poisons:
            return False
        source_names = {id(node): node.source.name for node in self._inputs}
        by_node: dict[int, list[tuple[int, str]]] = {}
        for node_id, index, error in poisons:
            by_node.setdefault(node_id, []).append((index, error))
        for node_id, hits in by_node.items():
            rows = batch.records[node_id]
            for index, error in sorted(hits, reverse=True):
                self._dlq.add_poison(
                    rows.pop(index),
                    batch.batch_id,
                    source_names.get(node_id),
                    error,
                )
        self.metrics.records_quarantined += len(poisons)
        span.attrs["quarantined"] = len(poisons)
        return True

    def _refresh_overload(self) -> None:
        """Mirror spill/sink/breaker counters and recompute the ladder.

        ``shedding`` is an edge signal -- true when sheds occurred
        since the previous refresh -- while ``spilling`` and
        ``circuit-open`` are level signals read from the live stores
        and breakers; :func:`~repro.streaming.overload.
        degradation_level` picks the worst rung.
        """
        m = self.metrics
        spilled = loaded = failures = spilled_bytes = live_spilled = 0
        for consumer in self._windows:
            store = consumer.store
            spilled += store.cells_spilled
            loaded += store.cells_loaded
            failures += store.spill_failures
            spilled_bytes += store.spilled_bytes
            live_spilled += store.spilled_cells
        m.state_cells_spilled = spilled
        m.state_cells_loaded = loaded
        m.state_spill_failures = failures
        m.state_spilled_bytes = spilled_bytes
        retries = sink_failures = dead = opens = 0
        circuit_open = False
        for sink in self._iter_sinks():
            retries += sink.retries_used
            sink_failures += sink.failures
            dead += sink.dead_lettered
            if sink.breaker is not None:
                opens += sink.breaker.opens
                if sink.breaker.state == "open":
                    circuit_open = True
        m.sink_retries = retries
        m.sink_failures = sink_failures
        m.windows_dead_lettered = dead
        m.sink_breaker_opens = opens
        shedding = m.batches_shed != self._ladder_shed_seen
        self._ladder_shed_seen = m.batches_shed
        m.degradation = degradation_level(shedding, live_spilled > 0, circuit_open)

    def _record_latency(self, batch: _Batch) -> None:
        self.batch_latencies.append(
            (
                batch.batch_id,
                batch.total_records,
                time.perf_counter() - batch.created,
                batch.queue_depth,
            )
        )

    # -- checkpointing & recovery ------------------------------------------

    @property
    def checkpoint_manager(self):
        """The :class:`~repro.streaming.checkpoint.CheckpointManager`
        (None when the context runs without ``checkpoint_dir``)."""
        return self._ckpt

    def _emit_allowed(self, consumer, window) -> bool:
        """The emit gate: False when a restore suppressed this window.

        Consumers consult this before running a closed window's
        outputs; a suppressed window still goes through its state
        transitions (the crashed process completed those too), only the
        externally visible emission is skipped -- exactly-once window
        output across a restart.
        """
        key = (consumer.checkpoint_index, window.start, window.end)
        if key in self._suppress:
            self._suppress.discard(key)
            self.metrics.windows_suppressed += 1
            return False
        return True

    def _note_emitted(self, consumer, window) -> None:
        """Record one delivered window in the emitted-window ledger."""
        if self._ckpt is not None:
            self._ckpt.note_emit(consumer.checkpoint_index, window)

    def _maybe_checkpoint(self, batch_id: int) -> None:
        """Checkpoint every ``checkpoint_interval`` completed batches.

        A failed checkpoint is counted and swallowed -- the stream
        keeps running and the WAL tail a future recovery replays just
        stays longer.  Simulated crashes (``SystemExit``) and
        interrupts propagate, as everywhere.
        """
        self._batches_since_checkpoint += 1
        if self._batches_since_checkpoint < self.checkpoint_interval:
            return
        from repro.streaming.recovery import build_snapshot

        try:
            self._ckpt.write_checkpoint(build_snapshot(self), high_water=batch_id)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            self.metrics.checkpoint_failures += 1
            return
        self._batches_since_checkpoint = 0
        self.metrics.checkpoints_written += 1

    def restore(self, checkpoint_dir: str | None = None):
        """Resume from the newest valid checkpoint plus the WAL tail.

        Call on a *freshly declared* context -- same sources, streams,
        windows and queries registered in the same order as the crashed
        run, no batches driven yet.  Loads the latest checkpoint that
        validates (falling back epoch by epoch on corruption), restores
        window/keyed state, watermarks, metrics and source cursors,
        replays every WAL-journaled batch past the checkpoint through
        the normal processing core, and suppresses re-emission of
        windows the emitted-window ledger shows were already delivered.
        Returns a :class:`~repro.streaming.recovery.RecoveryReport`.

        *checkpoint_dir* may name the directory explicitly when the
        context was built without one (restore-into-fresh-context); it
        must agree with the constructor's directory otherwise.
        """
        from repro.streaming.recovery import restore_context

        return restore_context(self, checkpoint_dir)

    # -- synchronous drive (deterministic; what the tests use) -------------

    def poll_once(self, batch_time: float | None = None) -> bool:
        """Poll every source once and admit the batch (no processing).

        The ingest half of :meth:`run_batch`: the batch is journaled
        and offered to the pending queue under the shed policy.
        Returns True when the batch was admitted, False when it was
        shed.  Calling this faster than :meth:`process_pending` drains
        is exactly how the overload tests sustain a fixed
        ingest-to-processing ratio.
        """
        self._check_drivable()
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        records, deltas = self._poll_inputs(batch_id)
        batch = _Batch(
            batch_id, time.time() if batch_time is None else batch_time, records
        )
        self._log_batch(batch, deltas)
        batch.queue_depth = self._queue.qsize()
        return self._admit(batch, sync=True)

    def process_pending(self, max_batches: int | None = None) -> int:
        """Process up to *max_batches* pending batches on this thread.

        The processing half of :meth:`run_batch`; drains the whole
        queue when *max_batches* is None.  Returns how many batches
        completed.  Under the ``"fail"`` policy a failed batch raises,
        exactly like :meth:`run_batch`.
        """
        self._check_drivable()
        completed = 0
        taken = 0
        while max_batches is None or taken < max_batches:
            try:
                batch = self._queue.get_nowait()
            except queue_mod.Empty:
                break
            taken += 1
            completed += bool(self._process(batch))
            if self._error is not None:
                self._stop_threads_only()
                raise self._error
        return completed

    def run_batch(self, batch_time: float | None = None) -> bool:
        """Poll every source once and process the batch on this thread.

        *batch_time* is the event-time fallback for untimed records
        (default: wall clock).  Returns True when the batch completed,
        False when it was shed, skipped or failed under the ``"skip"``
        policy; under ``"fail"`` a failed batch raises.
        """
        admitted = self.poll_once(batch_time)
        completed = self.process_pending()
        return admitted and completed > 0

    def run_batches(self, n: int, batch_times: list[float] | None = None) -> int:
        """Run *n* synchronous batches; returns how many completed."""
        if batch_times is not None and len(batch_times) != n:
            raise ValueError("batch_times must have exactly n entries")
        completed = 0
        for i in range(n):
            completed += bool(
                self.run_batch(None if batch_times is None else batch_times[i])
            )
        return completed

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

        The poller ticks every ``batch_interval`` seconds and enqueues
        polled batches into the bounded pending queue (blocking, with
        ``backpressure_waits`` accounting, when the processor lags);
        the processor drains the queue through the same core
        :meth:`run_batch` uses.
        """
        self._check_drivable()
        self._started = True
        self._stop_event.clear()
        self._poller = threading.Thread(
            target=self._poll_loop, name="stream-poller", daemon=True
        )
        self._processor = threading.Thread(
            target=self._process_loop, name="stream-processor", daemon=True
        )
        self._processor.start()
        self._poller.start()

    def _poll_loop(self) -> None:
        next_tick = time.monotonic()
        while not self._stop_event.is_set():
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            records, deltas = self._poll_inputs(batch_id)
            batch = _Batch(batch_id, time.time(), records)
            batch.queue_depth = self._queue.qsize()
            try:
                self._log_batch(batch, deltas)
                self._admit(batch, sync=False)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                # A batch (or shed) that cannot be journaled must not
                # be applied; stopping beats silently running without
                # durability.
                self._error = StreamingError(f"write-ahead log append failed: {exc}")
                self._error.__cause__ = exc
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
                batch = self._queue.get(timeout=0.05)
            except queue_mod.Empty:
                if self._stop_event.is_set():
                    return
                continue
            try:
                self._process(batch)
            except (KeyboardInterrupt, SystemExit):
                return
            except BaseException as exc:  # defensive: core shouldn't raise
                self._error = StreamingError(f"batch processing crashed: {exc}")
                self._error.__cause__ = exc
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

        With *drain* the processor finishes the batches already queued
        before exiting; with *flush* every still-open event-time window
        is closed and fired, so no buffered record is silently lost.
        The wrapped :class:`SparkContext` is left running -- the caller
        owns its lifecycle.
        """
        if self._stopped:
            return
        self._stop_threads_only()
        if drain:
            while True:
                try:
                    batch = self._queue.get_nowait()
                except queue_mod.Empty:
                    break
                if self._error is None:
                    self._process(batch)
        if flush and self._error is None:
            # Flush-time sink deliveries belong to no batch; their DLQ
            # provenance reads a None batch id rather than a stale one.
            self._current_batch = None
            self._wire_sinks()
            fired = 0
            for consumer in self._windows:
                fired += consumer.flush(self)
            self.metrics.windows_emitted += fired
            self._refresh_lateness()
            self._refresh_overload()
            if self._ckpt is not None and fired:
                # Shutdown-flush emissions go into the ledger too, so a
                # crash between this stop and a later restart does not
                # re-deliver the flushed windows.  Committed under
                # _next_batch_id -- strictly above any checkpoint's
                # high-water mark (which is always a *processed* batch
                # id) -- so read_tail's high-water filter can never
                # discard the record on restore.
                try:
                    self._ckpt.commit_emits(self._next_batch_id)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    self.metrics.checkpoint_failures += 1
        for node in self._inputs:
            node.source.close()
        if self._ckpt is not None:
            self._ckpt.close()
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

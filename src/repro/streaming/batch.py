"""The batch core: one micro-batch through outputs, windows and sinks.

Every batch, live or replayed by recovery, runs through
:meth:`BatchCore.process` on the wrapped
:class:`~repro.spark.context.SparkContext`, under a ``batch`` span (the
one place the streaming package reaches :mod:`repro.obs`) recording
records, queue depth, attempts and outcome:

- the **retry envelope** mirrors the task scheduler's: failures (the
  ``batch.run`` chaos site among them) re-run the whole batch up to
  ``max_batch_failures`` attempts -- window absorption is idempotent
  per batch id, so a retry cannot double-count;
- with a DLQ, a batch that exhausts its attempts gets a **poison
  probe**: records that crash a transformation chain on their own are
  quarantined with provenance and the cleaned batch is retried;
- a batch that still fails is counted in ``batches_failed`` and the
  stream goes on.  The stream has no deadline of its own: a scheduler
  deadline (``SparkContext(task_timeout=, job_timeout=)``) that aborts
  one of the batch's jobs fails the batch at once -- no retry, no
  poison probe;
- after every batch :meth:`BatchCore.refresh` mirrors the consumers'
  and sinks' counters into the metrics.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.spark.errors import JobAbortedError, TaskTimeoutError
from repro.streaming.sinks import WindowSink

if TYPE_CHECKING:
    from repro.streaming.context import StreamingContext
    from repro.streaming.ingest import _Batch


class BatchCore:
    """A context's processing core (see module doc)."""

    def __init__(self, ssc: StreamingContext, max_batch_failures: int) -> None:
        self._ssc = ssc
        self.max_batch_failures = max_batch_failures
        #: ``(batch_id, records, latency_s, queue_depth)`` per processed
        #: batch -- latency measured from poll to completion, so queued
        #: time under backpressure counts, as it should.
        self.latencies: list[tuple[int, int, float, int]] = []
        #: The batch currently in the core (sink provenance).
        self._current: _Batch | None = None

    def process(self, batch: _Batch) -> bool:
        """Run one batch through outputs and windows; True if it completed.

        A failure retries; once the attempts are spent, a batch with
        records gets one poison probe (with a DLQ) and a fresh attempt
        budget for the cleaned batch -- at most once per batch.  A
        deadline abort from the scheduler is terminal at once.  A batch
        that fails terminally after every consumer absorbed it counts
        in ``batches_failed``, but its records in ``records_processed``:
        later windows still emit them.
        """
        ssc = self._ssc
        tracer = ssc.spark_context.tracer
        injector = ssc.spark_context.fault_injector
        self._wire_sinks()
        self._current = batch
        quarantined = False
        with tracer.span(
            "batch",
            kind="batch",
            batch_id=batch.batch_id,
            records=batch.total_records,
            queue_depth=batch.queue_depth,
        ) as span:
            attempt = 0
            # Every consumer absorbed the batch (in this or an earlier
            # attempt): its records reach later windows even if the
            # batch fails after.
            landed = False
            while True:
                attempt += 1
                try:
                    if injector is not None:
                        injector.check("batch.run", key=batch.batch_id)
                    base = {
                        node_id: ssc._batch_rdd(rows)
                        for node_id, rows in batch.records.items()
                    }
                    for node, fn in ssc._outputs:
                        fn(batch.batch_id, node._compute(base))
                    for consumer in ssc._windows:
                        # An input node's RDD is the batch's own rows:
                        # hand them over without a job to read them back.
                        node = consumer.node
                        rows = (
                            batch.records[id(node)]
                            if node._parent is None
                            else node._compute(base).collect()
                        )
                        consumer.absorb(batch.batch_id, rows, batch.time)
                    landed = True
                    fired = self._fire(batch.batch_id)
                    ssc.metrics.batches_run += 1
                    ssc.metrics.records_processed += batch.total_records
                    ssc._recovery.maybe_checkpoint(batch.batch_id)
                    if tracer.enabled:
                        span.attrs["windows"] = fired
                        if attempt > 1:
                            span.attrs["attempts"] = attempt
                    self._record_latency(batch)
                    return True
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    # A scheduler deadline (``sc.job_timeout`` or
                    # exhausted task timeouts) aborted one of its jobs.
                    timed_out = isinstance(exc, JobAbortedError) and isinstance(
                        exc.cause, TaskTimeoutError
                    )
                    if not timed_out and attempt < self.max_batch_failures:
                        ssc.metrics.batch_retries += 1
                        span.note_failure(f"{type(exc).__name__}: {exc}")
                        continue
                    if (
                        not timed_out
                        and not quarantined
                        and ssc._dlq is not None
                        and batch.total_records > 0
                        and self._quarantine_poisons(batch, span)
                    ):
                        # The cleaned batch earned a fresh attempt
                        # budget; at most one quarantine per batch.
                        quarantined = True
                        attempt = 0
                        continue
                    # Terminal: a deadline abort or exhausted attempts.
                    if landed:
                        ssc.metrics.records_processed += batch.total_records
                    else:
                        ssc.metrics.records_failed += batch.total_records
                    ssc.metrics.batches_failed += 1
                    span.attrs["failed"] = True
                    if timed_out:
                        span.attrs["timeout"] = True
                    span.note_failure(f"{type(exc).__name__}: {exc}")
                    self._record_latency(batch)
                    return False

    def flush(self) -> None:
        """Close and fire every still-open window (stream shutdown)."""
        # Flush-time sink deliveries belong to no batch; their DLQ
        # provenance reads a None batch id rather than a stale one.
        self._current = None
        self._wire_sinks()
        # Ledgered under the next batch id -- above any checkpoint's
        # high-water mark, a *processed* id -- so a restore never filters
        # the record out and never re-delivers the flushed windows.
        self._fire(self._ssc._ingest.next_batch_id, flush=True)

    def _fire(self, commit_id: int, flush: bool = False) -> int:
        """Fire the consumers' ready windows (every open one when
        *flush*), count them, refresh the mirrors, and
        commit the emitted-window ledger under *commit_id*.
        """
        ssc = self._ssc
        fired = 0
        for consumer in ssc._windows:
            fired += consumer.flush(ssc) if flush else consumer.fire(ssc)
        ssc.metrics.windows_emitted += fired
        self.refresh()
        ssc._recovery.commit_emits(commit_id)
        return fired

    def refresh(self) -> None:
        """Mirror the consumers' lateness and the sinks' delivery counters."""
        m = self._ssc.metrics
        consumers = self._ssc._windows
        sinks = list(self._iter_sinks())
        m.late_records_dropped = sum(c.late_dropped for c in consumers)
        m.late_window_drops = sum(c.late_window_drops for c in consumers)
        m.sink_retries = sum(sink.retries_used for sink in sinks)
        m.sink_failures = sum(sink.failures for sink in sinks)
        m.windows_dead_lettered = sum(sink.dead_lettered for sink in sinks)
        m.sink_breaker_opens = sum(sink.breaker.opens for sink in sinks if sink.breaker is not None)

    # -- sinks and poison quarantine ----------------------------------------

    def _iter_sinks(self):
        """Every distinct :class:`WindowSink` registered on a consumer."""
        seen: set[int] = set()
        for consumer in self._ssc._windows:
            for fn in consumer.outputs:
                if isinstance(fn, WindowSink) and id(fn) not in seen:
                    seen.add(id(fn))
                    yield fn

    def _sink_provenance(self) -> dict:
        """Provenance for DLQ entries written during the current batch."""
        batch_id = self._current.batch_id if self._current is not None else None
        sources = ",".join(node.source.name for node in self._ssc._inputs)
        return {"batch_id": batch_id, "source": sources or None}

    def _wire_sinks(self) -> None:
        """Hook every registered sink into the context's failure handling.

        Gives each sink the live fault injector (the ``sink.write``
        chaos site), the per-batch provenance source, and -- when the
        sink has no dead-letter queue of its own -- the context's.
        Idempotent; runs at the top of every batch so sinks registered
        between batches are picked up too.
        """
        ssc = self._ssc
        for sink in self._iter_sinks():
            sink._injector_source = lambda: ssc.spark_context.fault_injector
            sink._provenance_source = self._sink_provenance
            if sink.dlq is None and ssc._dlq is not None:
                sink.dlq = ssc._dlq

    def _quarantine_poisons(self, batch: _Batch, span) -> bool:
        """Quarantine the batch's poison records; True if any were found.

        Each record is probed alone (empty RDDs for every other input)
        through every output node's and window consumer's
        transformation chain (a consumer on an input node has none,
        so it is not probed).  ``_compute`` is pure -- no output
        function runs, no state is absorbed -- so probing mutates
        nothing and a probe crash convicts exactly one record.  A
        record whose failure needs batch-mates (a genuine cross-record
        bug) is *not* convicted, and the batch fails as before.
        Convicted records go to the DLQ with provenance (source name,
        batch id, exception) and are removed from the batch in place,
        so the caller's retry runs the cleaned batch.
        """
        ssc = self._ssc
        source_names = {id(node): node.source.name for node in ssc._inputs}
        convicted = 0
        for node_id, rows in batch.records.items():
            hits: list[tuple[int, str]] = []
            for index, record in enumerate(rows):
                base = {
                    nid: ssc._batch_rdd([record] if nid == node_id else [])
                    for nid in batch.records
                }
                try:
                    for node, _fn in ssc._outputs:
                        node._compute(base).collect()
                    for consumer in ssc._windows:
                        if consumer.node._parent is not None:
                            consumer.node._compute(base).collect()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    hits.append((index, f"{type(exc).__name__}: {exc}"))
            for index, error in reversed(hits):
                record = rows.pop(index)
                ssc._dlq.add_poison(record, batch.batch_id, source_names.get(node_id), error)
            convicted += len(hits)
        if not convicted:
            return False
        ssc.metrics.records_quarantined += convicted
        span.attrs["quarantined"] = convicted
        return True

    def _record_latency(self, batch: _Batch) -> None:
        took = time.perf_counter() - batch.created
        self.latencies.append((batch.batch_id, batch.total_records, took, batch.queue_depth))

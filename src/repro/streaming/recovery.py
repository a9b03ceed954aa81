"""Crash recovery: restore a streaming context to replay-equivalence.

The restart half of :mod:`repro.streaming.checkpoint`.  A crashed
streaming process leaves two durable artifacts -- checkpoint epochs and
the write-ahead log tail past the newest checkpoint's high-water mark
-- and this module turns them back into a running context whose
observable output is *identical* to a process that never crashed:

1. **Load** the newest checkpoint that validates, falling back epoch by
   epoch on corruption (:func:`~repro.streaming.checkpoint.
   load_latest_checkpoint`); with no usable checkpoint, recovery starts
   from empty state and the whole WAL is the tail.
2. **Restore** the snapshot into a freshly declared, identical
   pipeline: batch-id counter, stream metrics, every window/keyed
   consumer's state (per-cell R-trees rebuild lazily on first use --
   they are never serialized) and every source's cursor.
3. **Replay** the WAL tail through the completely ordinary
   batch-processing core -- each journaled batch re-runs outputs,
   window absorption and firing exactly as live batches do, applying
   the journaled cursor deltas as it goes -- while the emitted-window
   ledger suppresses re-emission of windows the crashed process already
   delivered, and the shed ledger turns batches the live run dropped at
   admission back into sheds (counters advance, records stay
   unapplied).  Replayed processing is real processing, so recovered
   state is *replay-equivalent*, not approximately restored.

The contract the caller must hold: the restored context's pipeline
(sources, streams, windows, continuous queries) is declared in the same
order as the crashed run's.  Registration order is the durable identity
of every consumer; recovery validates the counts and fails loudly on a
mismatch rather than mis-wiring state.

The ``recovery.load`` chaos site fires at entry, *before any mutation*:
an injected recovery fault leaves the fresh context untouched, so the
caller can retry restore -- recovery itself is idempotent until it
starts mutating, and replay re-runs are absorbed by the per-batch-id
idempotence of window absorption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.streaming.context import StreamingContext, StreamingError, _Batch


#: The :func:`build_snapshot` layout this build writes and reads.
#: 2: every consumer snapshot (kinds ``"keyed"`` and ``"cep"``) embeds
#: one :meth:`~repro.streaming.state.KeyedStateStore.snapshot`.
SNAPSHOT_FORMAT = 2


@dataclass
class RecoveryReport:
    """What one :meth:`StreamingContext.restore` call actually did."""

    #: Epoch of the checkpoint restored from (None: no usable checkpoint,
    #: recovery replayed the whole WAL from empty state).
    epoch: int | None
    #: Damaged checkpoint epochs skipped before one validated.
    corrupt_checkpoints_skipped: int
    #: WAL-journaled batches re-processed through the batch core.
    batches_replayed: int
    #: Ledger windows whose re-emission was suppressed during replay.
    windows_suppressed: int
    #: The batch id the resumed stream will assign next.
    resumed_batch_id: int
    #: Journaled batches the shed ledger says the crashed run dropped
    #: at admission -- replayed as sheds (counters advance, records
    #: are never applied), mirroring the live run exactly.
    sheds_replayed: int = 0


def build_snapshot(ssc: StreamingContext) -> dict:
    """The full checkpointable state of a streaming context.

    Everything a restart cannot re-derive from the re-declared pipeline:
    the batch-id counter, metrics, each consumer's window/keyed state
    and each source's cursor.  Consumers and sources are stored by
    registration order -- their durable identity.
    """
    return {
        "format": SNAPSHOT_FORMAT,
        "next_batch_id": ssc._next_batch_id,
        "metrics": ssc.metrics.snapshot(),
        "consumers": [consumer.snapshot_state() for consumer in ssc._windows],
        "sources": [node.source.cursor() for node in ssc._inputs],
    }


def _apply_snapshot(ssc: StreamingContext, snapshot: dict) -> None:
    """Restore one :func:`build_snapshot` into a fresh context.

    A snapshot of another format is refused before anything is
    touched -- never treated as "no checkpoint", which would silently
    replay from zero over state the WAL no longer covers.
    """
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise StreamingError(
            f"checkpoint snapshot has format {snapshot.get('format')!r}; "
            f"this build reads format {SNAPSHOT_FORMAT} only"
        )
    consumers = snapshot["consumers"]
    sources = snapshot["sources"]
    if len(consumers) != len(ssc._windows):
        raise StreamingError(
            f"checkpoint has {len(consumers)} window consumer(s) but the "
            f"declared pipeline registers {len(ssc._windows)} -- restore "
            "requires the pipeline to be re-declared identically"
        )
    if len(sources) != len(ssc._inputs):
        raise StreamingError(
            f"checkpoint has {len(sources)} source cursor(s) but the "
            f"declared pipeline registers {len(ssc._inputs)} input(s)"
        )
    ssc._next_batch_id = snapshot["next_batch_id"]
    for name, value in snapshot["metrics"].items():
        if name in ssc.metrics.__dataclass_fields__:
            setattr(ssc.metrics, name, value)
    for consumer, state in zip(ssc._windows, consumers):
        consumer.restore_state(state)
    for node, cursor in zip(ssc._inputs, sources):
        if cursor is not None:
            node.source.restore_cursor(cursor)


def restore_context(
    ssc: StreamingContext, checkpoint_dir: str | None = None
) -> RecoveryReport:
    """Load checkpoint + replay WAL tail; see the module docstring.

    Called through :meth:`StreamingContext.restore`.  The context must
    be fresh -- pipeline declared, nothing driven yet.
    """
    if ssc._started:
        raise StreamingError("cannot restore a started StreamingContext")
    if ssc._stopped:
        raise StreamingError("cannot restore a stopped StreamingContext")
    if ssc._next_batch_id != 0 or ssc.metrics.batches_run != 0:
        raise StreamingError(
            "restore requires a fresh context: declare the pipeline, "
            "call restore(), then drive batches"
        )
    if checkpoint_dir is not None:
        if ssc._ckpt is None:
            from repro.streaming.checkpoint import CheckpointManager

            ssc._ckpt = CheckpointManager(
                checkpoint_dir,
                injector_source=lambda: ssc.spark_context.fault_injector,
            )
        elif ssc._ckpt.directory != checkpoint_dir:
            raise StreamingError(
                f"restore directory {checkpoint_dir!r} disagrees with the "
                f"context's checkpoint_dir {ssc._ckpt.directory!r}"
            )
    if ssc._ckpt is None:
        raise StreamingError(
            "restore needs a checkpoint directory (constructor "
            "checkpoint_dir or the restore(checkpoint_dir=...) argument)"
        )

    # The chaos site fires before any mutation: a failed restore leaves
    # the fresh context untouched and the caller simply retries.
    injector = ssc.spark_context.fault_injector
    if injector is not None:
        injector.check("recovery.load", key=ssc._ckpt.directory)

    manager = ssc._ckpt
    epoch: int | None = None
    skipped = 0
    high_water = -1
    loaded = manager.load_latest()
    if loaded is not None:
        snapshot, manifest, skipped = loaded
        epoch = manifest["epoch"]
        high_water = manifest["wal_high_water"]
        _apply_snapshot(ssc, snapshot)

    batches, emitted, shed = manager.read_tail(high_water)
    ssc._suppress = set(emitted)

    # Ids below the snapshot's batch counter were polled -- and their
    # poll/ingest/shed counters advanced -- before the snapshot was
    # taken (polling assigns ids monotonically), even when the batch
    # itself sat in the pending queue past the high-water mark.  Only
    # strictly newer ids advance counters again during replay.
    polled_high = ssc._next_batch_id
    replayed = sheds_replayed = 0
    manager.replaying = True
    try:
        for record in batches:
            batch_id = record["batch_id"]
            inputs = record["inputs"]
            cursors = record["cursors"]
            # Cursor deltas apply to shed batches too: the live run's
            # poll moved the cursor before admission dropped the batch.
            for node, delta in zip(ssc._inputs, cursors):
                if delta is not None:
                    node.source.apply_delta(delta)
            records = {
                id(node): list(rows) for node, rows in zip(ssc._inputs, inputs)
            }
            batch = _Batch(batch_id, record["time"], records)
            fresh = batch_id >= polled_high
            if fresh:
                # Replay is re-ingestion: the poll counters advance the
                # way the crashed process's did after its last snapshot.
                ssc.metrics.polls += len(inputs)
                ssc.metrics.records_ingested += batch.total_records
            if batch_id in shed:
                # The shed ledger says the live run dropped this batch
                # at admission: never apply its records.
                if fresh:
                    ssc.metrics.batches_shed += 1
                    ssc.metrics.records_shed += batch.total_records
                sheds_replayed += 1
                continue
            ssc._process(batch)
            ssc.metrics.batches_replayed += 1
            replayed += 1
            if ssc._error is not None:
                raise ssc._error
    finally:
        manager.replaying = False

    resumed = max(
        ssc._next_batch_id,
        high_water + 1,
        (batches[-1]["batch_id"] + 1) if batches else 0,
    )
    ssc._next_batch_id = resumed
    ssc._ladder_shed_seen = ssc.metrics.batches_shed
    return RecoveryReport(
        epoch=epoch,
        corrupt_checkpoints_skipped=skipped,
        batches_replayed=replayed,
        windows_suppressed=len(emitted),
        resumed_batch_id=resumed,
        sheds_replayed=sheds_replayed,
    )

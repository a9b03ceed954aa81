"""Crash recovery: checkpoint cadence, the emit ledger, restore and replay.

The durable half of a :class:`~repro.streaming.context.StreamingContext`
(the on-disk formats are :mod:`repro.streaming.checkpoint`'s): with a
``checkpoint_dir``, :class:`Recovery` owns the context's
:class:`~repro.streaming.checkpoint.CheckpointManager`, checkpoints
the full streaming state (:func:`build_snapshot`) every
``checkpoint_interval`` completed batches, and keeps the emitted-window
ledger and its gate.  :meth:`Recovery.restore` turns the checkpoint
epochs and the write-ahead log tail a crashed process left behind into
a running context whose observable output is *identical* to a process
that never crashed:

1. **Load** the newest checkpoint that validates, falling back epoch by
   epoch on corruption; with none, recovery starts from empty state
   and the whole WAL is the tail.
2. **Restore** the snapshot into a freshly declared, identical
   pipeline: batch-id counter, stream metrics (not those mirroring
   counters other objects own -- one refresh at the end reads them),
   every consumer's state (records re-inserted, cell extents regrown) and every
   source's cursor.
3. **Replay** the WAL tail through the ordinary batch core -- batches
   polled after the snapshot re-run their poll's cursor deltas and
   counters through the ingest edge -- while the emitted-window ledger
   suppresses re-emission of windows the crashed process already
   delivered, and the shed ledger turns batches the live run dropped at
   admission back into sheds.  Replayed processing is real processing,
   so recovered state is *replay-equivalent*.

The caller declares the restored pipeline (sources, streams, windows,
continuous queries) in the same order as the crashed run's:
registration order is every consumer's durable identity, and a count
mismatch fails loudly rather than mis-wiring state.  The
``recovery.load`` chaos site fires at entry, *before any mutation*, so
a failed restore leaves the fresh context untouched and retryable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

# The module, not its names: context.py imports this module while loading.
from repro.streaming import context
from repro.streaming.checkpoint import CheckpointManager

if TYPE_CHECKING:
    from repro.streaming.context import StreamingContext


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
        "next_batch_id": ssc._ingest.next_batch_id,
        "metrics": ssc.metrics.snapshot(),
        "consumers": [consumer.snapshot_state() for consumer in ssc._windows],
        "sources": [node.source.cursor() for node in ssc._inputs],
    }


def restore_context(
    ssc: StreamingContext, checkpoint_dir: str | None = None
) -> RecoveryReport:
    """Load checkpoint + replay WAL tail; see :meth:`Recovery.restore`."""
    return ssc._recovery.restore(checkpoint_dir)


class Recovery:
    """A context's durable state: checkpoints, the emit ledger, restore.

    Inert without a checkpoint directory: no manager, no journaling, no
    checkpoints -- zero overhead -- and the emit gate passes everything.
    """

    def __init__(
        self,
        ssc: StreamingContext,
        checkpoint_dir: str | None,
        checkpoint_interval: int,
    ) -> None:
        self._ssc = ssc
        self.checkpoint_interval = checkpoint_interval
        self._since_checkpoint = 0
        #: ``(consumer_index, start, end)`` windows whose re-emission a
        #: restore suppressed -- consumed (discarded) as they re-close.
        self._suppress: set[tuple[int, float, float]] = set()
        #: The :class:`CheckpointManager` (None without a directory).
        self.manager: CheckpointManager | None = None
        if checkpoint_dir is not None:
            self._open(checkpoint_dir)

    def _open(self, directory: str) -> None:
        self.manager = CheckpointManager(
            directory,
            injector_source=lambda: self._ssc.spark_context.fault_injector,
        )

    # -- the emitted-window ledger -------------------------------------------

    def emit_allowed(self, consumer, window) -> bool:
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
            self._ssc.metrics.windows_suppressed += 1
            return False
        return True

    def note_emitted(self, consumer, window) -> None:
        """Record one delivered window in the emitted-window ledger."""
        if self.manager is not None:
            self.manager.note_emit(consumer.checkpoint_index, window)

    def commit_emits(self, batch_id: int) -> None:
        """Durably append the ledger entries noted since the last commit.

        A failed append is counted in ``checkpoint_failures`` and
        swallowed: the windows were already delivered, and a crash
        before the next commit only re-emits them (the durable sinks'
        commit markers absorb that).  Simulated crashes and interrupts
        propagate, as everywhere.
        """
        if self.manager is None:
            return
        try:
            self.manager.commit_emits(batch_id)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            self._ssc.metrics.checkpoint_failures += 1

    # -- checkpoints ---------------------------------------------------------

    def maybe_checkpoint(self, batch_id: int) -> None:
        """Checkpoint every ``checkpoint_interval`` completed batches.

        A failed checkpoint is counted and swallowed -- the stream
        keeps running and the WAL tail a future recovery replays just
        stays longer.  Simulated crashes (``SystemExit``) and
        interrupts propagate, as everywhere.
        """
        if self.manager is None:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint < self.checkpoint_interval:
            return
        metrics = self._ssc.metrics
        try:
            self.manager.write_checkpoint(build_snapshot(self._ssc), high_water=batch_id)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            metrics.checkpoint_failures += 1
            return
        self._since_checkpoint = 0
        metrics.checkpoints_written += 1

    def close(self) -> None:
        """Release the WAL segment handle (idempotent)."""
        if self.manager is not None:
            self.manager.close()

    # -- restore -------------------------------------------------------------

    def restore(self, checkpoint_dir: str | None = None) -> RecoveryReport:
        """Load checkpoint + replay WAL tail; see the module docstring.

        Called through :meth:`StreamingContext.restore`.  The context must
        be fresh -- pipeline declared, nothing driven yet.
        """
        ssc = self._ssc
        if ssc._started:
            raise context.StreamingError("cannot restore a started StreamingContext")
        if ssc._stopped:
            raise context.StreamingError("cannot restore a stopped StreamingContext")
        ingest = ssc._ingest
        if ingest.next_batch_id != 0 or ssc.metrics.batches_run != 0:
            raise context.StreamingError(
                "restore requires a fresh context: declare the pipeline, "
                "call restore(), then drive batches"
            )
        if checkpoint_dir is not None:
            if self.manager is None:
                self._open(checkpoint_dir)
            elif self.manager.directory != checkpoint_dir:
                raise context.StreamingError(
                    f"restore directory {checkpoint_dir!r} disagrees with the "
                    f"context's checkpoint_dir {self.manager.directory!r}"
                )
        manager = self.manager
        if manager is None:
            raise context.StreamingError(
                "restore needs a checkpoint directory (constructor "
                "checkpoint_dir or the restore(checkpoint_dir=...) argument)"
            )

        # The chaos site fires before any mutation: a failed restore leaves
        # the fresh context untouched and the caller simply retries.
        injector = ssc.spark_context.fault_injector
        if injector is not None:
            injector.check("recovery.load", key=manager.directory)

        epoch: int | None = None
        skipped = 0
        high_water = -1
        loaded = manager.load_latest()
        if loaded is not None:
            snapshot, manifest, skipped = loaded
            epoch = manifest["epoch"]
            high_water = manifest["wal_high_water"]
            self._apply_snapshot(snapshot)

        batches, emitted, shed = manager.read_tail(high_water)
        self._suppress = set(emitted)

        # Ids below the snapshot's batch counter were polled -- their
        # cursors moved and their poll/ingest/shed counters advanced --
        # before the snapshot was taken (polling assigns ids
        # monotonically), even when the batch itself sat in the pending
        # queue past the high-water mark.  Only strictly newer ids
        # re-run their poll's effects during replay.
        polled_high = ingest.next_batch_id
        core = ssc._core
        replayed = sheds_replayed = 0
        manager.replaying = True
        try:
            for record in batches:
                fresh = record["batch_id"] >= polled_high
                batch = ingest.replay(record, fresh)
                if batch.batch_id in shed:
                    # The shed ledger says the live run dropped this
                    # batch at admission: never apply its records.
                    if fresh:
                        ingest.shed(batch)
                    sheds_replayed += 1
                    continue
                core.process(batch)
                ssc.metrics.batches_replayed += 1
                replayed += 1
                if ssc._error is not None:
                    raise ssc._error
        finally:
            manager.replaying = False

        resumed = max(
            polled_high,
            high_water + 1,
            (batches[-1]["batch_id"] + 1) if batches else 0,
        )
        ingest.next_batch_id = resumed
        core.refresh(sheds_seen=True)
        return RecoveryReport(
            epoch=epoch,
            corrupt_checkpoints_skipped=skipped,
            batches_replayed=replayed,
            windows_suppressed=len(emitted),
            resumed_batch_id=resumed,
            sheds_replayed=sheds_replayed,
        )

    def _apply_snapshot(self, snapshot: dict) -> None:
        """Restore one :func:`build_snapshot` into the fresh context.

        A snapshot of another format is refused before anything is
        touched -- never treated as "no checkpoint", which would silently
        replay from zero over state the WAL no longer covers.
        """
        ssc = self._ssc
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise context.StreamingError(
                f"checkpoint snapshot has format {snapshot.get('format')!r}; "
                f"this build reads format {SNAPSHOT_FORMAT} only"
            )
        consumers = snapshot["consumers"]
        sources = snapshot["sources"]
        if len(consumers) != len(ssc._windows):
            raise context.StreamingError(
                f"checkpoint has {len(consumers)} window consumer(s) but the "
                f"declared pipeline registers {len(ssc._windows)} -- restore "
                "requires the pipeline to be re-declared identically"
            )
        if len(sources) != len(ssc._inputs):
            raise context.StreamingError(
                f"checkpoint has {len(sources)} source cursor(s) but the "
                f"declared pipeline registers {len(ssc._inputs)} input(s)"
            )
        ssc._ingest.next_batch_id = snapshot["next_batch_id"]
        metrics = ssc.metrics
        for name, value in snapshot["metrics"].items():
            if name in metrics.__dataclass_fields__ and name not in metrics.MIRRORED:
                setattr(metrics, name, value)
        for consumer, state in zip(ssc._windows, consumers):
            consumer.restore_state(state)
        for node, cursor in zip(ssc._inputs, sources):
            if cursor is not None:
                node.source.restore_cursor(cursor)

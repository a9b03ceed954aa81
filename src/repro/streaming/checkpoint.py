"""Durable streaming state: write-ahead log + atomic checkpoints.

The streaming subsystem holds everything that matters in memory --
open windows, the keyed state store, watermarks, source cursors -- and
before this module a killed driver lost all of it.  This module is the
durability substrate production stream engines are built on (GeoFlink
inherits Flink's checkpoint/restore model for exactly this reason):

- a **write-ahead ingest log** journals every polled batch (records
  plus each source's cursor delta) *before* the batch is applied to any
  state, in CRC-framed records appended to size-rotated segment files,
  each append fsynced before the poll is considered durable;
- an **emitted-window ledger** rides in the same log: after a window's
  outputs ran, an ``emit`` record names it, so a restart can suppress
  re-emission of windows the crashed process already delivered
  (exactly-once window output);
- periodic **atomic checkpoints** snapshot the full streaming state
  through the hardened :mod:`repro.spark.storage` commit path (state
  and manifest fsynced in a staging directory, committed with
  ``os.replace``, parent directory fsynced), after which WAL segments
  entirely below the checkpoint's high-water mark are pruned.

Recovery (:mod:`repro.streaming.recovery`) loads the newest checkpoint
that validates -- falling back epoch by epoch on corruption, the same
graceful-degradation shape as the persisted-index loader -- then
replays the WAL tail through the normal batch-processing core.

**WAL record format.**  Each record is ``magic (2B) | length (4B LE) |
crc32 (4B LE) | payload``, where the payload is a pickled dict with a
``kind`` key (``"batch"`` or ``"emit"``).  A reader stops at the first
frame that is short, mis-magicked or fails its CRC: in the *last*
segment that is the torn tail of an append the crash interrupted
(normal, replay simply ends there -- the batch was never applied, and
its source cursor never advanced, so nothing is lost); anywhere else it
is real corruption and raises :class:`WalCorruptionError`.  A restarted
writer truncates that torn tail before appending, so post-restart
records are never stranded behind it.

**Checkpoint layout.**  ``<dir>/checkpoint-<epoch 8 digits>/`` holding
``state.pkl`` (the pickled snapshot) and ``MANIFEST.json`` carrying the
epoch, the WAL high-water mark (largest batch id folded into the
snapshot), the state file's length and CRC, and a format version.  A
checkpoint directory without a readable, CRC-matching pair is skipped
at load time.

The chaos sites ``wal.append`` and ``checkpoint.write`` fire before the
respective writes, and every fsync honours the crash-harness hook
(:func:`repro.spark.storage.set_fsync_hook`), which is how the
kill-between-any-two-fsyncs matrix exercises this module.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import shutil
import struct
import time
import zlib
from typing import Any, Iterator

from repro.spark.storage import (
    StorageError,
    _fsync_handle,
    durable_replace,
    fsync_dir,
)

#: Frame header: magic, payload length, payload crc32 (little-endian).
_FRAME = struct.Struct("<2sII")
_MAGIC = b"WL"

#: Snapshot/manifest format version; bumped on incompatible changes.
CHECKPOINT_FORMAT = 1

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})$")
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")
_MANIFEST = "MANIFEST.json"
_STATE = "state.pkl"
_TMP_SUFFIX = "._tmp"


class WalCorruptionError(StorageError):
    """A WAL segment is damaged somewhere other than its torn tail."""


def _walk_frames(path: str) -> Iterator[bytes]:
    """Every intact frame payload of one segment, in append order.

    Raises :class:`WalCorruptionError` at the first frame that is
    short, mis-magicked or fails its CRC.  The one frame parser: the
    writer truncates a torn tail where :func:`scan_valid_prefix` says
    it starts and replay stops where :func:`read_segment` does, and
    both read this walk, so they agree by construction.
    """

    def damaged(what: str) -> WalCorruptionError:
        return WalCorruptionError(f"corrupt WAL segment {path!r}: {what}")

    with open(path, "rb") as fh:
        while header := fh.read(_FRAME.size):
            if len(header) < _FRAME.size:
                raise damaged("torn frame header")
            magic, length, crc = _FRAME.unpack(header)
            if magic != _MAGIC:
                raise damaged(f"bad magic {magic!r}")
            blob = fh.read(length)
            if len(blob) < length:
                raise damaged("torn payload")
            if zlib.crc32(blob) != crc:
                raise damaged("payload crc mismatch")
            yield blob


def scan_valid_prefix(path: str) -> int:
    """Byte length of the segment's intact frame prefix.

    Everything before that offset is replayable, everything after it
    is the torn tail a crash left.
    """
    good = 0
    try:
        for blob in _walk_frames(path):
            good += _FRAME.size + len(blob)
    except WalCorruptionError:
        pass
    return good


def append_record(fh, payload: dict) -> int:
    """Frame and append one payload to an open segment; returns bytes written.

    The caller owns flushing/fsyncing; this only writes the frame.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _FRAME.pack(_MAGIC, len(blob), zlib.crc32(blob))
    fh.write(header)
    fh.write(blob)
    return _FRAME.size + len(blob)


def read_segment(path: str, last_segment: bool) -> Iterator[dict]:
    """Yield every intact record of one segment, in append order.

    Stops cleanly at a torn/corrupt frame when *last_segment* (the
    crash-interrupted tail); raises :class:`WalCorruptionError` when a
    non-final segment is damaged, because records after the damage
    cannot be trusted to line up with the ones already replayed.
    """
    try:
        for blob in _walk_frames(path):
            yield pickle.loads(blob)
    except WalCorruptionError:
        if not last_segment:
            raise


class WalWriter:
    """Appends CRC-framed records to size-rotated segment files.

    Each :meth:`append` writes one frame, flushes and fsyncs before
    returning -- the record is durable or the call raised.  Segments
    rotate once they exceed *segment_bytes*; opening a segment (at
    construction or rotation) fsyncs the WAL directory so its name is
    durable before any append is acknowledged.  Reopening an existing
    WAL first truncates the last segment back to its intact frame
    prefix: a torn tail left by a crash would otherwise strand every
    post-restart record behind damage the reader stops at.
    """

    def __init__(self, directory: str, segment_bytes: int = 1 << 20) -> None:
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.directory = directory
        self.segment_bytes = segment_bytes
        os.makedirs(directory, exist_ok=True)
        existing = list_segments(directory)
        self._segment_index = (
            int(_SEGMENT_RE.match(os.path.basename(existing[-1])).group(1))
            if existing
            else 0
        )
        path = self._segment_path(self._segment_index)
        if existing:
            # A crash mid-append leaves a torn frame at the segment's
            # tail.  Appending after it would strand every later record
            # behind damage the reader (rightly) stops at, so cut the
            # segment back to its intact prefix before reopening.
            self._truncate_torn_tail(path)
        self._fh = open(path, "ab")
        # Make the segment's directory entry durable before any append
        # is acknowledged -- otherwise a power loss can drop the file
        # (and every fsynced record in it) with the unsynced entry.
        fsync_dir(self.directory)
        #: Appends performed through this writer (benchmark counter).
        self.appends = 0
        #: Payload+frame bytes appended (benchmark counter).
        self.bytes_written = 0
        #: Wall seconds spent appending+fsyncing (benchmark counter).
        self.append_seconds = 0.0

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, f"wal-{index:08d}.log")

    @staticmethod
    def _truncate_torn_tail(path: str) -> None:
        size = os.path.getsize(path)
        good = scan_valid_prefix(path)
        if good < size:
            with open(path, "r+b") as fh:
                fh.truncate(good)
                _fsync_handle(fh, path)

    def append(self, payload: dict) -> None:
        """Durably append one record (fsynced before returning)."""
        start = time.perf_counter()
        path = self._segment_path(self._segment_index)
        written = append_record(self._fh, payload)
        _fsync_handle(self._fh, path)
        self.appends += 1
        self.bytes_written += written
        self.append_seconds += time.perf_counter() - start
        if self._fh.tell() >= self.segment_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._fh.close()
        self._segment_index += 1
        self._fh = open(self._segment_path(self._segment_index), "ab")
        fsync_dir(self.directory)

    def prune_below(self, high_water: int) -> int:
        """Delete closed segments whose every record is ``<= high_water``.

        Called after a checkpoint commit: batches at or below the
        checkpoint's high-water mark will never be replayed, so their
        segments (and the emit records riding with them) are garbage.
        The open segment is never pruned.  Returns segments deleted.
        """
        pruned = 0
        current = self._segment_path(self._segment_index)
        for path in list_segments(self.directory):
            if path == current:
                continue
            records = list(read_segment(path, last_segment=False))
            if all(record.get("batch_id", -1) <= high_water for record in records):
                os.remove(path)
                pruned += 1
        if pruned:
            fsync_dir(self.directory)
        return pruned

    def close(self) -> None:
        """Close the open segment handle (idempotent)."""
        if not self._fh.closed:
            self._fh.close()


def list_segments(directory: str) -> list[str]:
    """Every WAL segment under *directory*, in append (index) order."""
    if not os.path.isdir(directory):
        return []
    names = sorted(n for n in os.listdir(directory) if _SEGMENT_RE.match(n))
    return [os.path.join(directory, n) for n in names]


def read_wal(directory: str) -> Iterator[dict]:
    """Every intact WAL record across all segments, in append order.

    Torn tails are tolerated only in the final segment (see
    :func:`read_segment`).
    """
    segments = list_segments(directory)
    for i, path in enumerate(segments):
        yield from read_segment(path, last_segment=(i == len(segments) - 1))


def list_checkpoints(directory: str) -> list[tuple[int, str]]:
    """Every committed ``(epoch, path)`` under *directory*, ascending."""
    if not os.path.isdir(directory):
        return []
    out = []
    for name in os.listdir(directory):
        match = _CHECKPOINT_RE.match(name)
        if match:
            out.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(out)


def write_checkpoint(directory: str, epoch: int, snapshot: Any, high_water: int) -> str:
    """Atomically commit one checkpoint epoch; returns its final path.

    The snapshot is pickled into ``state.pkl`` and described by
    ``MANIFEST.json`` (epoch, WAL high-water mark, state length + CRC,
    format version) inside a staging directory whose files are fsynced
    before the directory is committed with the storage layer's
    ``durable_replace`` -- fsync staging dir, ``os.replace``, fsync
    parent.  A crash at any point leaves either the previous epochs
    untouched or the new epoch fully committed, never a half-written
    one that validates.
    """
    final = os.path.join(directory, f"checkpoint-{epoch:08d}")
    tmp = final + _TMP_SUFFIX
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        blob = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        state_path = os.path.join(tmp, _STATE)
        with open(state_path, "wb") as fh:
            fh.write(blob)
            _fsync_handle(fh, state_path)
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "epoch": epoch,
            "wal_high_water": high_water,
            "state_bytes": len(blob),
            "state_crc32": zlib.crc32(blob),
            "created_unix": time.time(),
        }
        manifest_path = os.path.join(tmp, _MANIFEST)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            _fsync_handle(fh, manifest_path)
        durable_replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final


def load_checkpoint(path: str) -> tuple[Any, dict]:
    """Load and validate one checkpoint directory: ``(snapshot, manifest)``.

    Raises :class:`StorageError` on any damage -- missing files, a
    manifest that does not parse, a state file whose length or CRC
    disagrees with the manifest, or an unknown format version.
    """
    manifest_path = os.path.join(path, _MANIFEST)
    state_path = os.path.join(path, _STATE)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"unreadable checkpoint manifest {manifest_path!r}: {exc}") from exc
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise StorageError(
            f"checkpoint {path!r} has format {manifest.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT}"
        )
    try:
        with open(state_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise StorageError(f"unreadable checkpoint state {state_path!r}: {exc}") from exc
    if len(blob) != manifest.get("state_bytes") or zlib.crc32(blob) != manifest.get(
        "state_crc32"
    ):
        raise StorageError(f"checkpoint state {state_path!r} fails its manifest CRC")
    try:
        snapshot = pickle.loads(blob)
    except Exception as exc:  # pickle raises a zoo of types on damage
        raise StorageError(f"corrupt checkpoint state {state_path!r}: {exc}") from exc
    return snapshot, manifest


def load_latest_checkpoint(directory: str) -> tuple[Any, dict, int] | None:
    """The newest checkpoint that validates: ``(snapshot, manifest, skipped)``.

    Walks epochs newest-first and falls back on damage, counting the
    epochs it had to skip -- the persisted-index graceful-degradation
    pattern applied to checkpoints.  Returns None when no epoch
    validates (recovery then starts from an empty state and replays the
    whole WAL).
    """
    skipped = 0
    for _epoch, path in reversed(list_checkpoints(directory)):
        try:
            snapshot, manifest = load_checkpoint(path)
        except StorageError:
            skipped += 1
            continue
        return snapshot, manifest, skipped
    return None


class CheckpointManager:
    """The streaming context's handle on all durable state.

    Owns the WAL writer, the emit buffer, checkpoint epochs and
    pruning.  The context's ingest edge (:mod:`repro.streaming.ingest`)
    calls :meth:`log_batch` after every poll (before processing) and
    :meth:`log_shed` for every shed batch; its recovery half
    (:mod:`repro.streaming.recovery`) calls :meth:`note_emit` as
    windows fire, :meth:`commit_emits` when a batch completes, and
    :meth:`write_checkpoint` on the checkpoint cadence.  All chaos goes
    through the context's installed injector: ``wal.append`` before a
    batch journal entry, ``checkpoint.write`` before a snapshot commit.
    """

    def __init__(self, directory: str, injector_source=None) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.wal = WalWriter(os.path.join(directory, "wal"))
        self._injector_source = injector_source
        self._pending_emits: list[tuple[int, float, float]] = []
        existing = list_checkpoints(directory)
        self._next_epoch = existing[-1][0] + 1 if existing else 1
        #: True while recovery replays the WAL (batch journaling off).
        self.replaying = False
        #: Checkpoints committed through this manager.
        self.checkpoints_written = 0
        #: Wall seconds spent committing checkpoints (benchmark counter).
        self.checkpoint_seconds = 0.0
        #: WAL segments pruned after checkpoint commits.
        self.segments_pruned = 0

    def _injector(self):
        source = self._injector_source
        return source() if callable(source) else source

    # -- WAL ---------------------------------------------------------------

    def log_batch(
        self,
        batch_id: int,
        batch_time: float,
        inputs: list[list],
        cursors: list,
    ) -> None:
        """Journal one polled batch before it is applied to any state.

        *inputs* and *cursors* are indexed by the context's input
        stream order (ids are process-local and useless after a
        restart).  No-op while recovery replays the tail -- those
        batches are already in the log.
        """
        if self.replaying:
            return
        injector = self._injector()
        if injector is not None:
            injector.check("wal.append", key=batch_id)
        self.wal.append(
            {
                "kind": "batch",
                "batch_id": batch_id,
                "time": batch_time,
                "inputs": inputs,
                "cursors": cursors,
            }
        )

    def note_emit(self, consumer_index: int, window) -> None:
        """Buffer one fired window for the next :meth:`commit_emits`."""
        self._pending_emits.append((consumer_index, window.start, window.end))

    def log_shed(self, batch_id: int, records: int) -> None:
        """Journal one batch the shed policy dropped at admission.

        Appended *after* the batch's own journal record (polling logs
        first, admission decides second), so the tail always sees the
        pair together: recovery replays the shed -- advancing counters,
        skipping processing -- instead of applying records the live
        run never applied.  No-op while replaying, like
        :meth:`log_batch`.
        """
        if self.replaying:
            return
        self.wal.append(
            {"kind": "shed", "batch_id": batch_id, "records": records}
        )

    def commit_emits(self, batch_id: int) -> None:
        """Durably append the windows the finished batch emitted.

        One ledger record (and one fsync) per batch, not per window.
        A crash between a window's outputs running and this append
        re-emits that window on recovery -- which is why the durable
        sinks carry their own per-window commit markers.
        """
        if not self._pending_emits:
            return
        self.wal.append(
            {
                "kind": "emit",
                "batch_id": batch_id,
                "windows": list(self._pending_emits),
            }
        )
        self._pending_emits.clear()

    def read_tail(
        self, high_water: int
    ) -> tuple[list[dict], set[tuple[int, float, float]], set[int]]:
        """The replayable log tail: ``(batches, emitted, shed)``.

        *batches* are the journal entries with ``batch_id >
        high_water`` in batch-id order; *emitted* is the set of
        ``(consumer_index, start, end)`` windows the crashed process
        already delivered while processing those batches -- the
        suppression set for exactly-once window output.  *shed* is the
        set of batch ids the admission policy dropped: recovery must
        not re-apply their records (it advances the shed counters
        instead).  Shed ids are collected without the high-water
        filter -- sheds happen at poll time, out of order with the
        processing that picks the high-water mark.
        """
        batches: list[dict] = []
        emitted: set[tuple[int, float, float]] = set()
        shed: set[int] = set()
        for record in read_wal(self.wal.directory):
            if record["kind"] == "shed":
                shed.add(record["batch_id"])
                continue
            if record.get("batch_id", -1) <= high_water:
                continue
            if record["kind"] == "batch":
                batches.append(record)
            elif record["kind"] == "emit":
                emitted.update(tuple(entry) for entry in record["windows"])
        batches.sort(key=lambda record: record["batch_id"])
        return batches, emitted, shed

    # -- checkpoints -------------------------------------------------------

    def write_checkpoint(self, snapshot: Any, high_water: int) -> int:
        """Commit one epoch and prune the WAL below it; returns the epoch."""
        injector = self._injector()
        if injector is not None:
            injector.check("checkpoint.write", key=self._next_epoch)
        start = time.perf_counter()
        epoch = self._next_epoch
        write_checkpoint(self.directory, epoch, snapshot, high_water)
        self._next_epoch = epoch + 1
        self.checkpoints_written += 1
        self.checkpoint_seconds += time.perf_counter() - start
        self.segments_pruned += self.wal.prune_below(high_water)
        return epoch

    def load_latest(self) -> tuple[Any, dict, int] | None:
        """Delegates to :func:`load_latest_checkpoint` for this directory."""
        return load_latest_checkpoint(self.directory)

    def stats(self) -> dict:
        """Benchmark counters: WAL append cost, checkpoint cost, pruning."""
        return {
            "wal_appends": self.wal.appends,
            "wal_bytes": self.wal.bytes_written,
            "wal_append_seconds": self.wal.append_seconds,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_seconds": self.checkpoint_seconds,
            "segments_pruned": self.segments_pruned,
        }

    def close(self) -> None:
        """Release the WAL segment handle (idempotent)."""
        self.wal.close()

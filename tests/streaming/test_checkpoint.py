"""The WAL and checkpoint layer's durability-format contract.

The recovery tests (test_recovery.py) prove end-to-end
replay-to-equivalence; this suite pins the substrate those guarantees
stand on: CRC framing that tolerates exactly the damage a crash can
cause (a torn final-segment tail) while refusing the damage it cannot
(mid-stream corruption), segment rotation and high-water pruning,
atomic checkpoint epochs whose manifests catch every byte of state
damage, and the newest-valid-epoch fallback walk.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.spark.storage import StorageError
from repro.streaming.checkpoint import (
    CheckpointManager,
    WalCorruptionError,
    WalWriter,
    list_checkpoints,
    list_segments,
    load_checkpoint,
    load_latest_checkpoint,
    read_wal,
    write_checkpoint,
)
from repro.streaming.window import Window


def batch_record(batch_id: int, rows=None) -> dict:
    return {
        "kind": "batch",
        "batch_id": batch_id,
        "time": float(batch_id),
        "inputs": [rows if rows is not None else [("r", batch_id)]],
        "cursors": [None],
    }


class TestWalFraming:
    def test_roundtrip_in_append_order(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"))
        records = [batch_record(i) for i in range(5)]
        for record in records:
            wal.append(record)
        wal.close()
        assert list(read_wal(str(tmp_path / "wal"))) == records

    def test_rotation_splits_segments_and_keeps_order(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"), segment_bytes=64)
        records = [batch_record(i) for i in range(10)]
        for record in records:
            wal.append(record)
        wal.close()
        assert len(list_segments(str(tmp_path / "wal"))) > 1
        assert list(read_wal(str(tmp_path / "wal"))) == records

    def test_reopen_appends_to_latest_segment(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"), segment_bytes=64)
        for i in range(6):
            wal.append(batch_record(i))
        wal.close()
        wal2 = WalWriter(str(tmp_path / "wal"), segment_bytes=64)
        wal2.append(batch_record(6))
        wal2.close()
        assert [r["batch_id"] for r in read_wal(str(tmp_path / "wal"))] == list(range(7))

    def test_torn_tail_in_final_segment_is_tolerated(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"))
        for i in range(3):
            wal.append(batch_record(i))
        wal.close()
        (path,) = list_segments(str(tmp_path / "wal"))
        # Torn append: chop bytes off the last frame, as a crash mid-write
        # would leave.
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 7)
        assert [r["batch_id"] for r in read_wal(str(tmp_path / "wal"))] == [0, 1]

    def test_crc_damage_in_final_segment_stops_cleanly(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"))
        for i in range(3):
            wal.append(batch_record(i))
        wal.close()
        (path,) = list_segments(str(tmp_path / "wal"))
        # Flip one payload byte of the last record: CRC catches it and the
        # reader treats it as the torn tail.
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) - 3)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert [r["batch_id"] for r in read_wal(str(tmp_path / "wal"))] == [0, 1]

    def test_reopen_truncates_torn_tail_so_later_appends_survive(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"))
        for i in range(3):
            wal.append(batch_record(i))
        wal.close()
        (path,) = list_segments(str(tmp_path / "wal"))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 7)
        # Restart: record 2's torn frame is cut away (its append was
        # never acknowledged), so records journaled after the restart
        # land on an intact prefix instead of behind damage the reader
        # stops at.
        wal2 = WalWriter(str(tmp_path / "wal"))
        wal2.append(batch_record(3))
        wal2.append(batch_record(4))
        wal2.close()
        assert [r["batch_id"] for r in read_wal(str(tmp_path / "wal"))] == [0, 1, 3, 4]

    def test_post_restart_records_survive_segment_rotation(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"))
        for i in range(3):
            wal.append(batch_record(i))
        wal.close()
        (path,) = list_segments(str(tmp_path / "wal"))
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 7)
        # Without init-time truncation the torn segment rotates into a
        # *non-final* position, where the damage is treated as real
        # corruption and every post-restart record becomes unreadable.
        wal2 = WalWriter(str(tmp_path / "wal"), segment_bytes=64)
        for i in range(3, 8):
            wal2.append(batch_record(i))
        wal2.close()
        assert len(list_segments(str(tmp_path / "wal"))) > 1
        got = [r["batch_id"] for r in read_wal(str(tmp_path / "wal"))]
        assert got == [0, 1] + list(range(3, 8))

    def test_damage_in_non_final_segment_raises(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"), segment_bytes=64)
        for i in range(8):
            wal.append(batch_record(i))
        wal.close()
        segments = list_segments(str(tmp_path / "wal"))
        assert len(segments) >= 2
        with open(segments[0], "r+b") as fh:
            fh.truncate(os.path.getsize(segments[0]) - 5)
        with pytest.raises(WalCorruptionError):
            list(read_wal(str(tmp_path / "wal")))

    def test_prune_below_drops_only_fully_covered_closed_segments(self, tmp_path):
        wal = WalWriter(str(tmp_path / "wal"), segment_bytes=64)
        for i in range(9):
            wal.append(batch_record(i))
        before = list_segments(str(tmp_path / "wal"))
        assert len(before) >= 3
        pruned = wal.prune_below(high_water=3)
        survivors = list_segments(str(tmp_path / "wal"))
        assert pruned == len(before) - len(survivors) > 0
        # Every surviving record past the high-water mark is intact, and
        # the open segment always survives.
        remaining = [r["batch_id"] for r in read_wal(str(tmp_path / "wal"))]
        assert [b for b in remaining if b > 3] == list(range(4, 9))
        wal.close()


class TestCheckpointEpochs:
    def test_roundtrip_and_manifest(self, tmp_path):
        snapshot = {"state": [1, 2, 3], "nested": {"a": (4.0, 5.0)}}
        path = write_checkpoint(str(tmp_path), 1, snapshot, high_water=7)
        loaded, manifest = load_checkpoint(path)
        assert loaded == snapshot
        assert manifest["epoch"] == 1
        assert manifest["wal_high_water"] == 7
        assert list_checkpoints(str(tmp_path)) == [(1, path)]

    def test_state_damage_fails_validation(self, tmp_path):
        path = write_checkpoint(str(tmp_path), 1, {"x": 1}, high_water=0)
        state = os.path.join(path, "state.pkl")
        with open(state, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00\x00")
        with pytest.raises(StorageError):
            load_checkpoint(path)

    def test_manifest_damage_fails_validation(self, tmp_path):
        path = write_checkpoint(str(tmp_path), 1, {"x": 1}, high_water=0)
        with open(os.path.join(path, "MANIFEST.json"), "w") as fh:
            fh.write("{ not json")
        with pytest.raises(StorageError):
            load_checkpoint(path)

    def test_load_latest_falls_back_over_corrupt_epochs(self, tmp_path):
        write_checkpoint(str(tmp_path), 1, {"epoch": 1}, high_water=3)
        write_checkpoint(str(tmp_path), 2, {"epoch": 2}, high_water=6)
        newest = write_checkpoint(str(tmp_path), 3, {"epoch": 3}, high_water=9)
        # Damage the newest epoch's state; the loader must fall back to
        # epoch 2 and report the skip.
        with open(os.path.join(newest, "state.pkl"), "wb") as fh:
            fh.write(b"garbage")
        snapshot, manifest, skipped = load_latest_checkpoint(str(tmp_path))
        assert snapshot == {"epoch": 2}
        assert manifest["wal_high_water"] == 6
        assert skipped == 1

    def test_load_latest_none_when_nothing_validates(self, tmp_path):
        assert load_latest_checkpoint(str(tmp_path)) is None
        path = write_checkpoint(str(tmp_path), 1, {"x": 1}, high_water=0)
        os.remove(os.path.join(path, "state.pkl"))
        assert load_latest_checkpoint(str(tmp_path)) is None

    def test_half_written_staging_dir_is_invisible(self, tmp_path):
        # A crash before the commit rename leaves only a ._tmp staging
        # dir, which neither lists nor loads.
        staging = tmp_path / "checkpoint-00000001._tmp"
        staging.mkdir()
        (staging / "state.pkl").write_bytes(pickle.dumps({"x": 1}))
        assert list_checkpoints(str(tmp_path)) == []
        assert load_latest_checkpoint(str(tmp_path)) is None


class TestCheckpointManager:
    def test_read_tail_filters_and_sorts(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        for i in range(6):
            manager.log_batch(i, float(i), [[("r", i)]], [None])
        manager.note_emit(0, Window(0.0, 4.0))
        manager.commit_emits(4)
        batches, emitted = manager.read_tail(high_water=2)
        assert [b["batch_id"] for b in batches] == [3, 4, 5]
        assert emitted == {(0, 0.0, 4.0)}
        # Everything at or below the high-water mark is invisible.
        batches_all, emitted_all = manager.read_tail(high_water=5)
        assert batches_all == []
        assert emitted_all == set()
        manager.close()

    def test_replaying_disables_batch_journaling_not_emits(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.replaying = True
        manager.log_batch(0, 0.0, [[("r", 0)]], [None])
        manager.note_emit(1, Window(2.0, 6.0))
        manager.commit_emits(0)
        manager.replaying = False
        batches, emitted = manager.read_tail(high_water=-1)
        assert batches == []
        assert emitted == {(1, 2.0, 6.0)}
        manager.close()

    def test_checkpoint_prunes_wal_and_bumps_epoch(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.wal.segment_bytes = 64  # rotate on every append
        for i in range(8):
            manager.log_batch(i, float(i), [[("r", i)]], [None])
        epoch = manager.write_checkpoint({"s": 1}, high_water=7)
        assert epoch == 1
        assert manager.segments_pruned > 0
        assert manager.write_checkpoint({"s": 2}, high_water=7) == 2
        stats = manager.stats()
        assert stats["wal_appends"] == 8
        assert stats["checkpoints_written"] == 2
        assert stats["wal_bytes"] > 0
        manager.close()

    def test_commit_emits_without_pending_is_a_no_op(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.commit_emits(0)
        assert list(read_wal(manager.wal.directory)) == []
        manager.close()

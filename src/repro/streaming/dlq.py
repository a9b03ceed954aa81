"""The durable dead-letter queue: where degraded deliveries land.

The sink circuit breaker (:class:`~repro.streaming.sinks.CircuitBreaker`)
and the poison-record quarantine keep a sick pipeline *running* by
diverting work it cannot complete -- windows a failing sink could not
write, records that crash an operator every attempt -- but diverted
work must never be *lost*.  This module is
that guarantee: a :class:`DeadLetterQueue` is an append-only journal of
everything the stream gave up on, durable enough to survive the same
crashes the write-ahead log does, carrying enough provenance to
reprocess every entry later.

**Durability.**  Entries ride the exact WAL machinery of
:mod:`repro.streaming.checkpoint` -- CRC-framed records
(``magic | length | crc32 | payload``) appended to size-rotated
segments through :class:`~repro.streaming.checkpoint.WalWriter`, each
append fsynced before the caller proceeds, torn tails truncated on
reopen.  Every fsync honours the storage layer's crash-harness hook,
so the kill-between-any-two-fsyncs matrix exercises DLQ appends like
any other durability barrier.

**Entry kinds** (the payload's ``kind`` key):

- ``"sink_window"`` -- one window a :class:`~repro.streaming.sinks.
  WindowSink` could not deliver (retries exhausted, or the circuit
  breaker was open).  Carries the sink name, window bounds, the full
  record list, and provenance: batch id, source name(s), the exception
  text and whether the breaker refused it.
- ``"poison_record"`` -- one record that made a batch fail on every
  attempt while its batch-mates pass cleanly (see the quarantine probe
  in :mod:`repro.streaming.batch`).  Carries the record itself plus
  batch id, source name and the exception that convicted it.

**Replay.**  :func:`dlq_replay` re-delivers a sink's dead-lettered
windows straight through :meth:`WindowSink.write` -- bypassing the
breaker, deduplicated by the sink's own commit markers -- so after the
sink recovers, one call reproduces exactly the missing windows and
nothing else.  Poison records are deliberately *not* auto-replayed
(they crashed the pipeline once already); :meth:`DeadLetterQueue.
poison_records` hands them to the operator with full provenance.
"""

from __future__ import annotations

import os
from typing import Any, Iterator

from repro.streaming.checkpoint import WalWriter, read_wal
from repro.streaming.window import Window

Record = tuple[Any, Any]


class DeadLetterQueue:
    """An append-only, crash-durable journal of undeliverable work.

    One instance owns one directory of WAL segments (rotated at the
    writer's default size, like the checkpoint WAL's).  Appends are
    fsynced CRC frames (see module doc); reads tolerate a torn final
    frame, and reopening after a crash truncates the torn tail so
    post-restart entries are never stranded.  A queue may be shared by
    every sink of a streaming context -- entries are discriminated by
    sink name at replay time.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._wal = WalWriter(directory)
        #: ``sink_window`` entries appended through this instance.
        self.windows_added = 0
        #: ``poison_record`` entries appended through this instance.
        self.poison_added = 0
        #: Stream records carried by appended ``sink_window`` entries.
        self.records_added = 0

    def add_window(
        self,
        sink: str,
        window: Window,
        records: list[Record],
        batch_id: int | None,
        source: str | None,
        error: str,
        circuit_open: bool = False,
    ) -> None:
        """Durably journal one window a sink could not deliver.

        *records* is the window's full record list -- replay must not
        depend on any in-memory state surviving.  *error* is the
        stringified terminal exception (or the breaker-open reason).
        """
        self._wal.append(
            {
                "kind": "sink_window",
                "sink": sink,
                "window": (window.start, window.end),
                "records": list(records),
                "batch_id": batch_id,
                "source": source,
                "error": error,
                "circuit_open": circuit_open,
            }
        )
        self.windows_added += 1
        self.records_added += len(records)

    def add_poison(
        self,
        record: Record,
        batch_id: int | None,
        source: str | None,
        error: str,
    ) -> None:
        """Durably quarantine one record that repeatably crashes a batch."""
        self._wal.append(
            {
                "kind": "poison_record",
                "record": record,
                "batch_id": batch_id,
                "source": source,
                "error": error,
            }
        )
        self.poison_added += 1

    # -- reading -----------------------------------------------------------

    def entries(self) -> Iterator[dict]:
        """Every intact entry across all segments, in append order.

        Reads the segment files directly, so entries appended by a
        *crashed* process are visible to the restarted one.
        """
        return read_wal(self.directory)

    def sink_windows(self, sink: str | None = None) -> list[dict]:
        """The ``sink_window`` entries (optionally for one sink name)."""
        return [
            entry
            for entry in self.entries()
            if entry["kind"] == "sink_window"
            and (sink is None or entry["sink"] == sink)
        ]

    def poison_records(self) -> list[dict]:
        """The quarantined ``poison_record`` entries, with provenance."""
        return [e for e in self.entries() if e["kind"] == "poison_record"]

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def stats(self) -> dict:
        """Counters of what this instance appended (not what is on disk)."""
        return {
            "windows_added": self.windows_added,
            "poison_added": self.poison_added,
            "records_added": self.records_added,
        }

    def close(self) -> None:
        """Release the open segment handle (idempotent)."""
        self._wal.close()

    def __repr__(self) -> str:
        return (
            f"DeadLetterQueue({self.directory!r}, windows={self.windows_added}, "
            f"poison={self.poison_added})"
        )


def dlq_replay(dlq: DeadLetterQueue, sink, sc) -> int:
    """Re-deliver *sink*'s dead-lettered windows; returns windows written.

    Walks the queue's ``sink_window`` entries for ``sink.name``, skips
    every window whose commit marker already exists (delivered live, by
    a crashed process, or by an earlier replay -- duplicate DLQ entries
    for the same window collapse here too), rebuilds each remaining
    window's RDD on *sc* and writes it through :meth:`WindowSink.write`
    directly.  The circuit breaker is deliberately bypassed: replay is
    the operator saying "the sink is healthy again", and a failure here
    simply raises so the entry stays replayable.

    After a successful replay the sink's on-disk output is *identical*
    to a run whose sink never failed -- the property
    ``tests/streaming/test_dlq.py`` gates on.
    """
    replayed = 0
    for entry in dlq.sink_windows(sink.name):
        window = Window(*entry["window"])
        if sink.is_committed(window):
            continue
        rdd = sc.parallelize(entry["records"], 1)
        sink.write(window, rdd, sink.target(window))
        sink.committed += 1
        replayed += 1
    return replayed

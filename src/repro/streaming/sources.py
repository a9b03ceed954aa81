"""Stream sources: where micro-batches come from.

Every source implements the tiny :class:`StreamSource` protocol --
``poll()`` returns the records that arrived since the last poll (an
empty list is a perfectly normal idle tick) and ``close()`` releases
resources.  Records are ``(STObject, value)`` pairs, the same shape the
batch operators consume, so a batch RDD built from a poll plugs
straight into the existing engine.

Three sources ship:

- :class:`QueueSource` -- in-memory, test- and backfill-friendly:
  ``push`` records from any thread, each poll drains one pending batch;
- :class:`DirectorySource` -- watches a directory for new files in the
  paper's event schema (``id;category;time;wkt``, via
  :mod:`repro.io.readers`) or GeoJSON (via :mod:`repro.io.geojson`);
- :class:`GeneratorSource` -- a seeded synthetic event firehose over
  :mod:`repro.io.datagen`, with monotonically advancing event times,
  for benchmarks and chaos runs that need unbounded deterministic input.
"""

from __future__ import annotations

import os
import random
import threading
from collections import deque
from typing import Any, Iterable, Sequence

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.io.datagen import DEFAULT_BOUNDS
from repro.io.geojson import feature_to, read_features
from repro.io.readers import DEFAULT_DELIMITER, parse_event_line
from repro.spark.cache import collector_paused

Record = tuple[STObject, Any]


class StreamSource:
    """The source protocol: named, pollable, closeable, checkpointable.

    The five cursor methods are the checkpoint/recovery contract.  A
    *cursor* is a full snapshot of the source's read position, stored in
    periodic checkpoints; a *delta* is the position advance of a single
    poll, journaled in the write-ahead log alongside the batch it
    produced.  Recovery checks the checkpointed cursor, restores it, then
    replays the WAL tail applying each batch's delta -- after which the source
    is positioned exactly where the crashed process's last durable poll
    left it, and live polling resumes without loss or duplication.  The
    base implementations are no-ops: a source with no position (or one
    that tolerates at-least-once redelivery) needs nothing more.
    """

    #: Display/chaos-key name; subclasses override or set per instance.
    name = "source"

    def poll(self) -> list[Record]:
        """Records that arrived since the last poll (may be empty)."""
        raise NotImplementedError

    def cursor(self):
        """Full snapshot of the read position, for checkpoints (picklable)."""
        return None

    def check_cursor(self, snapshot) -> None:
        """Refuse a :meth:`cursor` snapshot this source cannot restore
        with a ``ValueError``, touching nothing (recovery checks every
        source's cursor before it restores any state)."""

    def restore_cursor(self, snapshot) -> None:
        """Reposition to a :meth:`cursor` snapshot (recovery entry point)."""

    def last_poll_delta(self):
        """Position advance of the most recent poll, for the WAL.

        None when the last poll failed or advanced nothing -- a failed
        poll must not journal a cursor move it never committed.
        """
        return None

    def apply_delta(self, delta) -> None:
        """Re-apply one journaled poll's advance (WAL replay)."""

    def close(self) -> None:
        """Release any resources; further polls return nothing."""


class QueueSource(StreamSource):
    """An in-memory source fed by :meth:`push` calls.

    Each ``push(records)`` enqueues one batch; each ``poll`` dequeues
    one.  That makes test sequences exact: what you push as batch *n*
    is what batch *n* processes.  Thread-safe, so a producer thread can
    feed a started stream.

    The cursor is the count of batches consumed so far.  Restoring a
    cursor assumes the producer re-pushes the *same batch sequence*
    after a restart (the pattern of replaying a backfill script): the
    first ``cursor`` polls then drain silently, skipping batches the
    crashed process already consumed, and delivery resumes at the first
    genuinely new batch.  The records themselves are journaled in the
    WAL, so replayed batches never depend on the producer at all.
    """

    def __init__(self, batches: Iterable[Sequence[Record]] = (), name: str = "queue") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._pending: deque[list[Record]] = deque(list(b) for b in batches)
        self._closed = False
        self._consumed = 0
        self._skip = 0
        self._last_delta: int | None = None

    def push(self, records: Sequence[Record]) -> None:
        """Enqueue one batch of records for a future poll."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot push to a closed QueueSource")
            self._pending.append(list(records))

    def poll(self) -> list[Record]:
        with self._lock:
            self._last_delta = None
            while self._skip and self._pending:
                self._pending.popleft()
                self._skip -= 1
            if self._skip or not self._pending:
                self._last_delta = 0
                return []
            self._consumed += 1
            self._last_delta = 1
            return self._pending.popleft()

    def cursor(self):
        with self._lock:
            return self._consumed

    def check_cursor(self, snapshot) -> None:
        if type(snapshot) is not int or snapshot < 0:
            raise ValueError(
                f"a QueueSource cursor is a count of consumed batches, got {snapshot!r}"
            )

    def restore_cursor(self, snapshot) -> None:
        with self._lock:
            self._consumed = int(snapshot)
            self._skip = int(snapshot)

    def last_poll_delta(self):
        with self._lock:
            return self._last_delta

    def apply_delta(self, delta) -> None:
        with self._lock:
            self._consumed += int(delta)
            self._skip += int(delta)

    @property
    def pending_batches(self) -> int:
        """Batches pushed but not yet polled."""
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._pending.clear()


class DirectorySource(StreamSource):
    """Watches a directory; each poll ingests files not seen before.

    ``format="events"`` parses the paper's ``id;category;time;wkt``
    lines into ``(STObject(wkt, time), (id, category))`` rows;
    ``format="geojson"`` reads FeatureCollections into
    ``(STObject, properties)`` rows.  Files are ingested whole, in
    sorted name order, so a fixed set of dropped files always yields
    the same batch sequence.  ``on_error="skip"`` drops malformed rows
    (dirty extraction output); ``"raise"`` fails the poll, which
    surfaces through the streaming context's poll-failure accounting.
    """

    FORMATS = ("events", "geojson")

    def __init__(
        self,
        path: str,
        format: str = "events",
        delimiter: str = DEFAULT_DELIMITER,
        on_error: str = "raise",
        name: str | None = None,
    ) -> None:
        if format not in self.FORMATS:
            raise ValueError(f"format must be one of {self.FORMATS}, got {format!r}")
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        self.path = path
        self.format = format
        self.delimiter = delimiter
        self.on_error = on_error
        self.name = name or f"dir:{os.path.basename(path.rstrip('/')) or path}"
        self._seen: set[str] = set()
        self._last_delta: list[str] | None = None

    def _read_file(self, full: str) -> list[Record]:
        """The file's records.  ``on_error="skip"`` drops a malformed row
        (an event line, a GeoJSON feature); a file that cannot be read as
        a whole (a partial write) still raises, so the poll commits
        nothing and the next one reads the file again."""
        if self.format == "geojson":
            rows, decode = read_features(full), feature_to
        else:
            with open(full) as fh:
                rows = [line for line in map(str.strip, fh) if line]
            decode = self._event_record
        records: list[Record] = []
        # The decoded records all stay alive, so the collections their
        # allocations trigger walk a growing heap: a poll of 80,000
        # events takes x0.79 the time with the collector paused.
        with collector_paused():
            for row in rows:
                try:
                    records.append(decode(row))
                except ValueError:  # EventParseError and GeoJSONError among them
                    if self.on_error == "raise":
                        raise
        return records

    def _event_record(self, line: str) -> Record:
        event_id, category, time, wkt = parse_event_line(line, self.delimiter)
        return STObject(wkt, time), (event_id, category)

    def poll(self) -> list[Record]:
        # A failed poll leaves no delta: the cursor never moved, so the
        # WAL must not journal an advance for this tick.
        self._last_delta = None
        try:
            entries = sorted(os.listdir(self.path))
        except FileNotFoundError:
            self._last_delta = []
            return []
        records: list[Record] = []
        staged: list[str] = []
        for entry in entries:
            if entry in self._seen or entry.startswith("."):
                continue
            full = os.path.join(self.path, entry)
            if not os.path.isfile(full):
                continue
            records.extend(self._read_file(full))
            staged.append(entry)
        # Files are marked seen only after the whole poll parsed: a
        # transient read failure (partially-written file, injected
        # storage fault) raises before this point, nothing is committed,
        # and the failed tick delivered no records -- so the next poll
        # re-reads the same files and no record is lost or duplicated.
        self._seen.update(staged)
        self._last_delta = staged
        return records

    def cursor(self):
        """The seen-file set, sorted for deterministic snapshots."""
        return sorted(self._seen)

    def restore_cursor(self, snapshot) -> None:
        self._seen = set(snapshot)

    def last_poll_delta(self):
        """Filenames the most recent poll committed (None if it failed)."""
        return self._last_delta

    def apply_delta(self, delta) -> None:
        self._seen.update(delta)

    def close(self) -> None:
        """Release resources; the seen-file set is *kept* so a stopped
        and restarted stream over the same directory does not re-ingest
        every file as duplicates (use :meth:`reset` to start over)."""

    def reset(self) -> None:
        """Forget every seen file: the next poll re-ingests the whole
        directory.  The explicit restart-from-scratch escape hatch."""
        self._seen.clear()


class GeneratorSource(StreamSource):
    """A seeded synthetic event stream with advancing event time.

    Every poll yields ``rate`` events whose event times advance by
    ``time_step`` per batch (spread uniformly within the batch's time
    slice), so windows close at a predictable pace.  Deterministic
    given ``seed``: two sources with the same parameters produce
    identical batch sequences -- the property the streaming chaos tests
    and the benchmark's cross-run comparability rely on.

    With ``poison_every=N`` every *N*-th event (by the monotone event
    id, so the pattern survives cursor restores) carries
    ``poison_value`` as its category -- a deterministic supply of
    records a downstream operator can be written to crash on, which is
    how the tests exercise the poison-record quarantine path.
    """

    def __init__(
        self,
        rate: int = 100,
        time_step: float = 1.0,
        start_time: float = 0.0,
        bounds: Envelope = DEFAULT_BOUNDS,
        categories: Sequence[str] = ("accident", "concert", "protest", "sports"),
        interval_fraction: float = 0.0,
        max_duration: float = 5.0,
        seed: int = 17,
        limit: int | None = None,
        name: str = "generator",
        poison_every: int | None = None,
        poison_value: str = "__poison__",
    ) -> None:
        if rate < 1:
            raise ValueError(f"rate must be >= 1, got {rate}")
        if time_step <= 0:
            raise ValueError(f"time_step must be positive, got {time_step}")
        if poison_every is not None and poison_every < 1:
            raise ValueError(f"poison_every must be >= 1, got {poison_every}")
        self.name = name
        self.poison_every = poison_every
        self.poison_value = poison_value
        self.rate = rate
        self.time_step = time_step
        self.bounds = bounds
        self.categories = tuple(categories)
        self.interval_fraction = interval_fraction
        self.max_duration = max_duration
        self.limit = limit
        self._rng = random.Random(seed)
        self._clock = start_time
        self._next_id = 0
        self._closed = False
        self._last_delta: dict | None = None

    def poll(self) -> list[Record]:
        self._last_delta = None
        if self._closed or (self.limit is not None and self._next_id >= self.limit):
            self._last_delta = self.cursor()
            return []
        rng = self._rng
        bounds = self.bounds
        count = self.rate
        if self.limit is not None:
            count = min(count, self.limit - self._next_id)
        records: list[Record] = []
        for i in range(count):
            x = rng.uniform(bounds.min_x, bounds.max_x)
            y = rng.uniform(bounds.min_y, bounds.max_y)
            # Event times advance within the batch's slice of the clock.
            t = self._clock + self.time_step * (i / count)
            if rng.random() < self.interval_fraction:
                st = STObject(f"POINT ({x} {y})", t, t + rng.uniform(0, self.max_duration))
            else:
                st = STObject(f"POINT ({x} {y})", t)
            category = rng.choice(self.categories)
            # Poison placement keys off the monotone id, not the RNG, so
            # a cursor restore reproduces the exact same poison pattern.
            if (
                self.poison_every is not None
                and (self._next_id + 1) % self.poison_every == 0
            ):
                category = self.poison_value
            records.append((st, (self._next_id, category)))
            self._next_id += 1
        self._clock += self.time_step
        self._last_delta = self.cursor()
        return records

    def cursor(self):
        """Clock, id counter and RNG state -- the full generator position."""
        return {
            "clock": self._clock,
            "next_id": self._next_id,
            "rng": self._rng.getstate(),
        }

    def restore_cursor(self, snapshot) -> None:
        self._clock = snapshot["clock"]
        self._next_id = snapshot["next_id"]
        self._rng.setstate(snapshot["rng"])

    def last_poll_delta(self):
        """The post-poll position (deltas are absolute for a generator)."""
        return self._last_delta

    def apply_delta(self, delta) -> None:
        self.restore_cursor(delta)

    def close(self) -> None:
        self._closed = True

"""Durable per-window stream sinks with commit-marker dedup.

The delivery edge of the recovery story.  The emitted-window ledger
(:mod:`repro.streaming.checkpoint`) makes in-process window output
exactly-once across restarts, but there is one unavoidable gap: a crash
*between* a window's outputs running and the ledger append re-runs that
window on recovery.  For sinks that write files the fix is idempotence:
every window commits to its own deterministically named target through
the atomic-rename path, and the target's existence is the commit marker
-- a re-delivered window finds its file already committed and skips,
counting the dedup in :attr:`WindowSink.skipped`.  Crashed half-writes
live under a ``._tmp`` name that the atomic commit never exposes, so
a restart simply overwrites them.

Three sinks ship, all registered with
:meth:`~repro.streaming.dstream.WindowedStream.for_each_window`::

    events.window(length=8.0).for_each_window(
        EventFileSink(out_dir)          # one id;category;time;wkt file
    )                                    # per closed window

- :class:`EventFileSink` -- the paper's flat event schema via
  :mod:`repro.io.readers`;
- :class:`GeoJSONSink` -- one FeatureCollection per window via
  :mod:`repro.io.geojson`;
- :class:`ObjectFileSink` -- pickle part-files through
  :func:`repro.spark.storage.save_object_file`, whose committed
  directory (with its ``_SUCCESS`` marker) is itself the dedup marker.

All three funnel their durability through :mod:`repro.spark.storage`'s
fsync helpers, so the chaos crash harness counts their barriers too.

**Degraded delivery.**  A sink is the stream's most failure-prone edge
(full disks, flaky mounts, injected ``sink.write`` chaos), so each
window write is retried up to ``retries`` times with linear backoff; a
sink given a :class:`CircuitBreaker` trips open after persistent
failures and routes whole windows straight to the
:class:`~repro.streaming.dlq.DeadLetterQueue` (with provenance) until
a half-open probe succeeds; and with a DLQ attached a terminal write
failure *never* propagates -- the window is dead-lettered and the
stream keeps running, with :func:`~repro.streaming.dlq.dlq_replay`
reproducing the missing targets once the sink heals.  Without a DLQ
terminal failures raise into the batch retry envelope.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.core.stobject import STObject
from repro.io.geojson import write_geojson
from repro.io.readers import DEFAULT_DELIMITER, format_event_line
from repro.spark.rdd import RDD
from repro.spark.storage import durable_replace, save_object_file
from repro.streaming.window import Window

_TMP_SUFFIX = "._tmp"


class CircuitBreaker:
    """A count-based three-state circuit breaker for window sinks.

    ``allow()`` is consulted once per window delivery; ``record_success``
    / ``record_failure`` report the outcome of deliveries that were
    allowed.  State machine:

    - **closed**: deliveries pass; ``failure_threshold`` *consecutive*
      failures trip the breaker open (one success resets the streak).
    - **open**: deliveries are refused (the sink dead-letters them)
      until ``cooldown_windows`` refusals have been served, then the
      next delivery is allowed as a half-open probe.
    - **half_open**: exactly one probe is in flight; its success closes
      the breaker, its failure re-opens it for a fresh cooldown.

    Cooldown is counted in windows rather than seconds so behaviour is
    identical under synchronous test drives, WAL replay and live runs.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_windows: int = 2) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_windows < 1:
            raise ValueError(f"cooldown_windows must be >= 1, got {cooldown_windows}")
        self.failure_threshold = failure_threshold
        self.cooldown_windows = cooldown_windows
        #: ``"closed"``, ``"open"`` or ``"half_open"``.
        self.state = "closed"
        self._consecutive_failures = 0
        self._cooldown_served = 0
        #: Times the breaker tripped open (including probe failures).
        self.opens = 0
        #: Half-open probe deliveries attempted.
        self.probes = 0
        #: Deliveries refused while open (each routed to the DLQ).
        self.refusals = 0

    def allow(self) -> bool:
        """May the next window be delivered to the sink right now?

        While open, each refusal advances the cooldown; once
        ``cooldown_windows`` refusals have been served the next call is
        granted as the half-open probe.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._cooldown_served >= self.cooldown_windows:
                self.state = "half_open"
                self.probes += 1
                return True
            self._cooldown_served += 1
            self.refusals += 1
            return False
        # half_open: one probe is already in flight; refuse the rest.
        self.refusals += 1
        return False

    def record_success(self) -> None:
        """An allowed delivery committed: close and reset the breaker."""
        self.state = "closed"
        self._consecutive_failures = 0
        self._cooldown_served = 0

    def record_failure(self) -> None:
        """An allowed delivery failed terminally (retries exhausted).

        Trips the breaker when the consecutive-failure streak reaches
        the threshold, and immediately re-opens a failed half-open
        probe.
        """
        self._consecutive_failures += 1
        if self.state == "half_open" or (
            self.state == "closed"
            and self._consecutive_failures >= self.failure_threshold
        ):
            self.state = "open"
            self._cooldown_served = 0
            self.opens += 1

    def snapshot(self) -> dict:
        """The breaker's counters and state, for metrics and reports."""
        return {
            "state": self.state,
            "opens": self.opens,
            "probes": self.probes,
            "refusals": self.refusals,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, opens={self.opens}, "
            f"threshold={self.failure_threshold})"
        )


class WindowSink:
    """Base class: one durable, deduplicated target per closed window.

    Subclasses define :attr:`suffix` and :meth:`write`.  The callable
    itself is the ``for_each_window`` output: it derives the window's
    deterministic target name, skips (counting) if the target already
    exists -- the commit marker left by a pre-crash delivery -- and
    otherwise writes and atomically commits, under the retry / circuit
    breaker / dead-letter protections of the module docstring.

    ``retries`` is the number of *additional* attempts after a failed
    write (``retry_backoff`` seconds times the attempt number between
    them); ``breaker`` is an optional
    :class:`CircuitBreaker`; ``dlq`` an
    optional :class:`~repro.streaming.dlq.DeadLetterQueue` (the
    streaming context wires its own into sinks that have none);
    ``name`` discriminates this sink's DLQ entries (defaults to the
    class name -- give explicit names to multiple sinks of one class
    sharing a DLQ).
    """

    #: Target name suffix (e.g. ``".events"``); subclasses override.
    suffix = ""

    def __init__(
        self,
        directory: str,
        retries: int = 2,
        retry_backoff: float = 0.0,
        breaker=None,
        dlq=None,
        name: str | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.breaker = breaker
        self.dlq = dlq
        #: This sink's identity in DLQ entries and chaos-site keys.
        self.name = name if name is not None else type(self).__name__
        #: Windows this sink committed.
        self.committed = 0
        #: Re-delivered windows skipped because their target existed.
        self.skipped = 0
        #: Write attempts beyond the first (the retry count).
        self.retries_used = 0
        #: Terminal delivery failures (retries exhausted).
        self.failures = 0
        #: Windows routed to the dead-letter queue.
        self.dead_lettered = 0
        # Wired by the streaming context: callables yielding the live
        # fault injector and the current batch's provenance dict.
        self._injector_source = None
        self._provenance_source = None

    def window_key(self, window: Window) -> str:
        """The window's stable file-name stem (same window, same name).

        The bounds are rendered with :func:`repr`, which round-trips
        floats exactly -- a lossy rendering (e.g. ``:g``'s 6 significant
        digits) would collide adjacent windows at wall-clock epoch
        scale, and a collision here silently drops a window's data
        because the target's existence is the dedup marker.
        """
        return f"window-{float(window.start)!r}-{float(window.end)!r}"

    def target(self, window: Window) -> str:
        """The window's final committed path."""
        return os.path.join(self.directory, self.window_key(window) + self.suffix)

    def is_committed(self, window: Window) -> bool:
        """Has this window already been delivered (possibly pre-crash)?"""
        return os.path.exists(self.target(window))

    def __call__(self, window: Window, rdd: RDD) -> None:
        """The ``for_each_window`` entry point: dedupe, write, commit.

        Delivery order: commit-marker dedup first (a re-delivered
        window is skipped before it can trip the breaker), then the
        breaker gate (refused windows dead-letter immediately), then
        the retry loop around :meth:`write` with the ``sink.write``
        chaos site fired before each attempt.  Terminal failures
        record on the breaker and either dead-letter (DLQ attached --
        the stream survives) or raise (no DLQ -- the historical
        contract).
        """
        if self.is_committed(window):
            self.skipped += 1
            return
        if self.breaker is not None and not self.breaker.allow():
            self._dead_letter(
                window, rdd, error="circuit breaker open", circuit_open=True
            )
            return
        attempt = 0
        while True:
            try:
                injector = self._injector()
                if injector is not None:
                    injector.check(
                        "sink.write", key=(self.name, self.window_key(window))
                    )
                self.write(window, rdd, self.target(window))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                attempt += 1
                if attempt <= self.retries:
                    self.retries_used += 1
                    if self.retry_backoff:
                        time.sleep(self.retry_backoff * attempt)
                    continue
                self.failures += 1
                if self.breaker is not None:
                    self.breaker.record_failure()
                if self.dlq is not None:
                    self._dead_letter(window, rdd, error=repr(exc))
                    return
                raise
            else:
                break
        if self.breaker is not None:
            self.breaker.record_success()
        self.committed += 1

    def _injector(self):
        """The live fault injector, if the context wired one in."""
        source = self._injector_source
        return source() if source is not None else None

    def _dead_letter(
        self, window: Window, rdd: RDD, error: str, circuit_open: bool = False
    ) -> None:
        """Journal one undeliverable window to the DLQ with provenance.

        Raises instead when no DLQ is attached (a breaker refusing
        deliveries with nowhere to put them would silently lose data).
        """
        if self.dlq is None:
            raise RuntimeError(
                f"sink {self.name!r}: circuit breaker open and no dead-letter "
                "queue attached to absorb the refused window"
            )
        provenance = (
            self._provenance_source() if self._provenance_source is not None else {}
        )
        self.dlq.add_window(
            self.name,
            window,
            rdd.collect(),
            provenance.get("batch_id"),
            provenance.get("source"),
            error,
            circuit_open=circuit_open,
        )
        self.dead_lettered += 1

    def write(self, window: Window, rdd: RDD, path: str) -> None:
        """Durably commit one window's data to *path* (subclass duty)."""
        raise NotImplementedError

    def _commit_file(self, path: str, text: str) -> None:
        """Write *text* to a staging file and atomically commit it.

        The staging name is never the commit marker, so a crash mid-\
        write leaves an ignorable ``._tmp`` orphan the next delivery
        overwrites; ``durable_replace`` fsyncs content, renames, and
        fsyncs the parent -- a committed window survives power loss.
        """
        tmp = path + _TMP_SUFFIX
        with open(tmp, "w") as fh:
            fh.write(text)
        durable_replace(tmp, path)


class EventFileSink(WindowSink):
    """One ``id;category;time;wkt`` event file per closed window.

    Record values shaped ``(id, category)`` (the event-file reader's
    own output) round-trip exactly; any other value becomes the id with
    an empty category.  Untimed records take the window start as their
    timestamp.
    """

    suffix = ".events"

    def __init__(
        self, directory: str, delimiter: str = DEFAULT_DELIMITER, **kwargs: Any
    ) -> None:
        super().__init__(directory, **kwargs)
        self.delimiter = delimiter

    def write(self, window: Window, rdd: RDD, path: str) -> None:
        lines = []
        for st, value in rdd.collect():
            if isinstance(value, (tuple, list)) and len(value) == 2:
                event_id, category = value
            else:
                event_id, category = value, ""
            time = st.time.start if st.time is not None else window.start
            lines.append(
                format_event_line(
                    (event_id, str(category), time, st.geo.wkt()), self.delimiter
                )
            )
        self._commit_file(path, "".join(line + "\n" for line in lines))


class GeoJSONSink(WindowSink):
    """One GeoJSON FeatureCollection per closed window.

    Dict-valued records become the feature's properties directly;
    anything else is wrapped as ``{"value": ...}`` so every record
    stays representable.
    """

    suffix = ".geojson"

    def write(self, window: Window, rdd: RDD, path: str) -> None:
        rows: list[tuple[STObject, dict[str, Any]]] = []
        for st, value in rdd.collect():
            rows.append((st, value if isinstance(value, dict) else {"value": value}))
        tmp = path + _TMP_SUFFIX
        write_geojson(rows, tmp)
        durable_replace(tmp, path)


class ObjectFileSink(WindowSink):
    """One pickle object-file directory per closed window.

    Delegates to :func:`repro.spark.storage.save_object_file`, which is
    already atomic and durable; the committed directory doubles as the
    dedup marker, so this sink adds only the per-window naming.
    Windows re-read with :func:`repro.spark.storage.object_file_rdd`
    restore the exact partitioning.
    """

    suffix = ""

    def write(self, window: Window, rdd: RDD, path: str) -> None:
        save_object_file(rdd, path)

"""Overload policy primitives: load shedding and sink circuit breakers.

The streaming layer's only pre-existing overload response was the
blocking bounded queue between poller and processor -- correct, but a
stall, not a policy.  This module holds the two small mechanisms the
graceful-degradation story is built from; the context's ingest edge
(:mod:`repro.streaming.ingest`) applies the shed policies and its batch
core (:mod:`repro.streaming.batch`) wires the breakers' sinks and
computes the ladder.

**Load shedding** (:data:`SHED_POLICIES`).  When the pending-batch
queue is full, the admission policy decides what gives:

- ``"block"`` -- the historical behaviour: the poller waits for the
  processor (counted in ``backpressure_waits``); nothing is ever
  dropped.
- ``"shed_oldest"`` -- evict the oldest *pending* batch to admit the
  incoming one: freshest data wins, the sliding-dashboard policy.
- ``"shed_newest"`` -- drop the incoming batch: in-flight work wins,
  the batch-ETL policy.
- ``"sample"`` -- a deterministic seeded coin per incoming batch
  (:func:`sample_decision`): keep the newcomer (evicting the oldest)
  with probability ``sample_keep``, shed it otherwise.  Seeded by
  ``(shed_seed, batch_id)``, so two runs over the same stream shed the
  *same* batches -- reproducible degradation.

Shedding is watermark-safe by construction: whole batches are shed
before any record reaches window state, so a shed can never advance a
watermark past records that were dropped.  Every shed is journaled
(``kind="shed"`` WAL records) and counted (``batches_shed`` /
``records_shed``), never silent.

**Circuit breaking** (:class:`CircuitBreaker`).  A sink that fails
persistently must not take the stream down with it.  The breaker wraps
a sink's delivery with the classic three-state machine: ``closed``
(normal delivery), ``open`` after ``failure_threshold`` consecutive
failures (windows route straight to the dead-letter queue for
``cooldown_windows`` deliveries), then ``half_open`` (one probe window
is attempted; success closes the breaker, failure re-opens it).  The
cooldown is counted in *routed windows*, not wall time, so tests and
replays are deterministic.

**The degradation ladder** (:data:`DEGRADATION_LEVELS`).  A single
word summarizing how hard the stream is currently degrading --
``healthy < shedding < spilling < circuit-open`` -- computed by
:func:`degradation_level` from the live shed/spill/breaker signals and
surfaced through ``StreamMetrics.degradation``, batch spans and the
evaluation report.
"""

from __future__ import annotations

import random

#: Admission policies for a full pending-batch queue (see module doc).
SHED_POLICIES = ("block", "shed_oldest", "shed_newest", "sample")

#: The degradation ladder, mildest first; the stream reports the worst
#: rung any live signal currently justifies.
DEGRADATION_LEVELS = ("healthy", "shedding", "spilling", "circuit-open")


def sample_decision(shed_seed: int, batch_id: int, sample_keep: float) -> bool:
    """The ``"sample"`` policy's coin: True keeps the incoming batch.

    One fresh seeded draw per ``(shed_seed, batch_id)`` pair -- not a
    shared RNG stream -- so the decision for a given batch id is
    independent of how many batches were shed before it.  That is what
    makes sheds replayable: a restored run facing the same overload
    sheds exactly the same batch ids.
    """
    # random.Random rejects tuple seeds; fold the pair into one int.
    return random.Random((shed_seed << 32) ^ batch_id).random() < sample_keep


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


def degradation_level(
    shedding: bool, spilling: bool, circuit_open: bool
) -> str:
    """The worst ladder rung the live signals justify (see module doc)."""
    if circuit_open:
        return "circuit-open"
    if spilling:
        return "spilling"
    if shedding:
        return "shedding"
    return "healthy"

"""Deterministic fault injection for the execution stack.

A :class:`FaultInjector` installed on a :class:`~repro.spark.context.
SparkContext` makes instrumented sites raise :class:`InjectedFault`
according to a seeded, reproducible plan.  The instrumented sites are:

===================  ====================================================
site                 fires in
===================  ====================================================
``task.compute``     the scheduler, once per task attempt
``shuffle.fetch``    the shuffle manager's reduce-side fetch
``cache.get``        ``RDD.iterator`` before consulting the block cache
``storage.read``     ``ObjectFileRDD`` / ``TextFileRDD`` part reads
``storage.write``    ``save_object_file`` / ``save_text_file`` part writes
``index.load``       persisted-index part reads (triggers live fallback)
``source.poll``      ``StreamingContext`` polling a stream source
``batch.run``        ``StreamingContext`` before processing a micro-batch
``state.update``     keyed streaming state, before a batch is absorbed
``wal.append``       checkpointing, before a batch is journaled to the WAL
``checkpoint.write`` checkpointing, before an atomic state snapshot
``recovery.load``    ``StreamingContext.restore``, before any state loads
``sink.write``       ``WindowSink``, before a window's target is written
===================  ====================================================

Two plan shapes exist per site:

- **fail-N-times-then-succeed** (``times=N``): the first N checks raise,
  later ones pass.  With ``per_key=True`` (the default) the count is kept
  per call-site key -- e.g. per ``(rdd_id, split)`` for ``task.compute``
  -- which is how "fail every task's first attempt" is expressed.
- **probabilistic** (``probability=p``): each check raises with
  probability *p*, drawn from the injector's seeded RNG.  Deterministic
  under the ``sequential`` executor; under ``threads`` the draw order
  depends on scheduling.

And three fault *kinds*, each combinable with either shape:

- **crash** (:meth:`FaultInjector.fail`): the site raises
  :class:`InjectedFault` -- the fail-fast fault the retry layer recovers.
- **delay** (:meth:`FaultInjector.delay`): the site stalls for a fixed
  number of seconds before continuing normally -- a straggler.  The stall
  is a *cancellable* sleep: a task whose deadline expires (or whose
  job is cancelled) wakes immediately instead of serving the delay out.
- **hang** (:meth:`FaultInjector.hang`): the site blocks "forever" -- the
  gray failure the deadline machinery exists for.  The hang waits on
  the current task's cancel token, so a ``task_timeout``,
  ``job_timeout`` or ``cancel_all_jobs()`` ends it; the injector's
  ``hang_limit`` (default 30s) is a backstop for runs with no deadlines
  configured, after which the "hung" site simply resumes.

Env wiring for the benchmark suite (``REPRO_CHAOS_*``)::

    REPRO_CHAOS_SEED=7
    REPRO_CHAOS_SITES="task.compute=1x,storage.read=0.05"
    REPRO_CHAOS_SITES="task.compute=2x:delay=0.5,shuffle.fetch=1x:hang"

where ``Nx`` means fire on the first N checks per key and a float in
``(0, 1]`` is a per-check probability; a bare spec is a crash fault,
``:delay=S`` makes it an S-second delay and ``:hang`` a hang.
:meth:`FaultInjector.from_env` parses these; the benchmark conftest
installs the result on its context.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from typing import Hashable, Iterator

from repro.spark.cancellation import cancellable_sleep

#: The names an injection plan may target.
SITES = frozenset(
    {
        "task.compute",
        "shuffle.fetch",
        "cache.get",
        "storage.read",
        "storage.write",
        "index.load",
        "source.poll",
        "batch.run",
        "state.update",
        "wal.append",
        "checkpoint.write",
        "recovery.load",
        "sink.write",
    }
)


class InjectedFault(RuntimeError):
    """The synthetic failure an injection plan raises."""

    def __init__(self, site: str, key: Hashable = None) -> None:
        self.site = site
        self.key = key
        detail = f" key={key!r}" if key is not None else ""
        super().__init__(f"injected fault at {site}{detail}")


class _Rule:
    """One injection plan for one site."""

    __slots__ = ("site", "times", "probability", "per_key", "kind", "delay", "_counts")

    def __init__(
        self,
        site: str,
        times: int | None,
        probability: float | None,
        per_key: bool,
        kind: str = "fail",
        delay: float = 0.0,
    ) -> None:
        self.site = site
        self.times = times
        self.probability = probability
        self.per_key = per_key
        #: ``"fail"`` raises, ``"delay"`` stalls ``delay`` seconds,
        #: ``"hang"`` blocks until cancelled (or the injector's backstop).
        self.kind = kind
        self.delay = delay
        self._counts: dict[Hashable, int] = {}

    def should_fire(self, key: Hashable, rng: random.Random) -> bool:
        if self.times is not None:
            bucket = key if self.per_key else None
            count = self._counts.get(bucket, 0) + 1
            self._counts[bucket] = count
            return count <= self.times
        return rng.random() < (self.probability or 0.0)

    def reset(self) -> None:
        self._counts.clear()


class FaultInjector:
    """A seeded, installable source of deterministic failures.

    Usage::

        injector = FaultInjector(seed=7).fail("task.compute", times=1)
        with injector.installed(sc):
            result = rdd.collect()      # every task fails once, retries succeed
        assert injector.injected["task.compute"] > 0

    Thread-safe: counters and the RNG are guarded by a lock, so plans
    behave identically under the thread-pool executor (modulo draw order
    for probabilistic plans).
    """

    def __init__(self, seed: int = 0, hang_limit: float = 30.0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: dict[str, list[_Rule]] = {}
        self._lock = threading.Lock()
        #: Backstop for ``hang`` faults in runs with no deadlines: the
        #: "infinite" stall gives up after this many seconds.
        self.hang_limit = hang_limit
        #: site -> number of faults actually raised.
        self.injected: dict[str, int] = {}
        #: site -> number of check() calls observed.
        self.checked: dict[str, int] = {}
        #: site -> number of delay faults served.
        self.delayed: dict[str, int] = {}
        #: site -> number of hang faults served.
        self.hung: dict[str, int] = {}

    # -- plan construction -------------------------------------------------

    def _add_rule(
        self,
        site: str,
        times: int | None,
        probability: float | None,
        per_key: bool,
        kind: str,
        delay: float,
    ) -> "FaultInjector":
        if site not in SITES:
            raise ValueError(f"unknown injection site {site!r}; known: {sorted(SITES)}")
        if (times is None) == (probability is None):
            raise ValueError("exactly one of times= or probability= is required")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if probability is not None and not (0.0 < probability <= 1.0):
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        with self._lock:
            self._rules.setdefault(site, []).append(
                _Rule(site, times, probability, per_key, kind, delay)
            )
        return self

    def fail(
        self,
        site: str,
        *,
        times: int | None = None,
        probability: float | None = None,
        per_key: bool = True,
    ) -> "FaultInjector":
        """Register a crash plan at *site*; returns self for chaining.

        Exactly one of ``times`` (fail the first N checks, counted per
        key by default) or ``probability`` (independent per-check draw)
        must be given.
        """
        return self._add_rule(site, times, probability, per_key, "fail", 0.0)

    def delay(
        self,
        site: str,
        seconds: float,
        *,
        times: int | None = None,
        probability: float | None = None,
        per_key: bool = True,
    ) -> "FaultInjector":
        """Register a straggler plan: *site* stalls *seconds*, then proceeds.

        The stall is served through :func:`cancellable_sleep`, so a
        deadline or a cancelled job wakes the stalled task immediately.
        """
        if seconds <= 0:
            raise ValueError(f"delay seconds must be positive, got {seconds}")
        return self._add_rule(site, times, probability, per_key, "delay", seconds)

    def hang(
        self,
        site: str,
        *,
        times: int | None = None,
        probability: float | None = None,
        per_key: bool = True,
    ) -> "FaultInjector":
        """Register a hang plan: *site* blocks until cancelled.

        The block is a cancellable sleep of ``hang_limit`` seconds on the
        current task's cancel token (see
        :func:`~repro.spark.cancellation.cancellable_sleep`), so a
        deadline wakes it and the limit is a backstop when no deadline
        machinery is configured.
        """
        return self._add_rule(site, times, probability, per_key, "hang", 0.0)

    # -- the hook the engine calls ----------------------------------------

    def check(self, site: str, key: Hashable = None) -> None:
        """Fire the first matching plan at *site*: raise, stall or hang.

        The firing decision (counters + RNG) happens under the injector
        lock; the stall itself is served *outside* it, so a delayed or
        hung task never blocks other tasks' fault checks.
        """
        slow: _Rule | None = None
        with self._lock:
            self.checked[site] = self.checked.get(site, 0) + 1
            for rule in self._rules.get(site, ()):
                if not rule.should_fire(key, self._rng):
                    continue
                if rule.kind == "fail":
                    self.injected[site] = self.injected.get(site, 0) + 1
                    raise InjectedFault(site, key)
                if rule.kind == "delay":
                    self.delayed[site] = self.delayed.get(site, 0) + 1
                else:
                    self.hung[site] = self.hung.get(site, 0) + 1
                slow = rule
                break
        if slow is None:
            return
        cancellable_sleep(slow.delay if slow.kind == "delay" else self.hang_limit)

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Rewind counters and the RNG; plans stay registered."""
        with self._lock:
            self._rng = random.Random(self.seed)
            self.injected.clear()
            self.checked.clear()
            self.delayed.clear()
            self.hung.clear()
            for rules in self._rules.values():
                for rule in rules:
                    rule.reset()

    def clear(self) -> None:
        """Drop every plan (and counters)."""
        with self._lock:
            self._rules.clear()
            self.injected.clear()
            self.checked.clear()
            self.delayed.clear()
            self.hung.clear()

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-site ``{"checked": n, "injected": m}`` counts.

        Sites that served slow faults additionally report ``delayed``
        and/or ``hung`` (omitted when zero, so crash-only runs keep the
        two-key shape).
        """
        with self._lock:
            sites = set(self.checked) | set(self.injected) | set(self.delayed) | set(self.hung)
            out: dict[str, dict[str, int]] = {}
            for site in sorted(sites):
                entry = {
                    "checked": self.checked.get(site, 0),
                    "injected": self.injected.get(site, 0),
                }
                if self.delayed.get(site):
                    entry["delayed"] = self.delayed[site]
                if self.hung.get(site):
                    entry["hung"] = self.hung[site]
                out[site] = entry
            return out

    @contextmanager
    def installed(self, context) -> Iterator["FaultInjector"]:
        """Install on *context* for the duration of the ``with`` block."""
        previous = context.fault_injector
        context.fault_injector = self
        try:
            yield self
        finally:
            context.fault_injector = previous

    # -- env wiring --------------------------------------------------------

    @classmethod
    def from_env(cls, env: dict | None = None) -> "FaultInjector | None":
        """Build an injector from ``REPRO_CHAOS_*`` variables, or None.

        ``REPRO_CHAOS_SITES`` is a comma-separated list of
        ``site=spec[:modifier]`` clauses.  The spec is ``Nx`` (fire on
        the first N checks per key) or a float probability; without a
        modifier the fault is a crash, ``:delay=S`` makes it an
        S-second stall and ``:hang`` a hang.  ``REPRO_CHAOS_SEED``
        seeds the RNG (default 0).  Examples::

            task.compute=1x              # every task's 1st attempt crashes
            task.compute=2x:delay=0.5    # first 2 attempts stall 0.5s
            shuffle.fetch=0.05:hang      # 5% of fetches hang
        """
        env = os.environ if env is None else env
        spec = env.get("REPRO_CHAOS_SITES", "").strip()
        if not spec:
            return None
        injector = cls(seed=int(env.get("REPRO_CHAOS_SEED", "0")))
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            site, _, value = clause.partition("=")
            site, value = site.strip(), value.strip()
            if not value:
                raise ValueError(f"malformed REPRO_CHAOS_SITES clause {clause!r}")
            value, _, modifier = value.partition(":")
            value, modifier = value.strip(), modifier.strip()
            shape: dict = (
                {"times": int(value[:-1])}
                if value.endswith(("x", "X"))
                else {"probability": float(value)}
            )
            if not modifier:
                injector.fail(site, **shape)
            elif modifier == "hang":
                injector.hang(site, **shape)
            elif modifier.startswith("delay="):
                injector.delay(site, float(modifier[len("delay="):]), **shape)
            else:
                raise ValueError(
                    f"malformed REPRO_CHAOS_SITES modifier {modifier!r} in "
                    f"{clause!r}; expected 'delay=<seconds>' or 'hang'"
                )
        return injector

    def __repr__(self) -> str:
        plans = {site: len(rules) for site, rules in self._rules.items()}
        return f"FaultInjector(seed={self.seed}, plans={plans})"

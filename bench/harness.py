"""One run of one workload: set-up, warm-up, timed section, checks.

A run is either *untraced* -- it yields the end-to-end metrics, with the
program exactly as a user gets it -- or *traced* -- the wrapper table of
:mod:`layers` is installed for the whole run and it yields the
per-layer metrics.  Both runs execute the same workload code on the
same seeded inputs; the traced one does a fixed fraction of the
operations, because shares and counts need fewer of them.

Times of an untraced run are stated in seconds of a *quiet* reference
host: a :class:`HostProbe` reads the shared host's speed between
operations and every slice of the timed section is scaled by the reading
taken inside it (see the class for why, and ``README.md`` for the
measurements).  The raw wall-clock figures are printed beside them.

Operation counts are ``rate x seconds`` with the rate a frozen constant
of the workload, never something measured at run time, so two commits
always get the same load.  A run that falls far behind (3x the asked
seconds) stops early and says so rather than overrunning the driver's
time limit.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import layers
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: Untraced runs set up this many times and report the median.
SETUP_REPEATS = 3
#: Share of the timed operations run first and discarded.
WARMUP_SHARE = 0.10
#: A timed section stops early once it has run this many times its budget.
OVERRUN_FACTOR = 3.0
#: A percentile is reported only with ten samples beyond it.
P95_MIN_SAMPLES = 200
#: Latency and throughput are medians over this many equal slices of
#: consecutive operations (each of at least SLICE_MIN_OPS), every slice
#: scaled by the host's speed while it ran, so neither a stall of a
#: second or two nor a slow quarter of an hour moves them.
SLICES = 12
SLICE_MIN_OPS = 4

clock = time.perf_counter


class EndToEnd(NamedTuple):
    """One end-to-end metric: what it is and who reports it."""

    name: str
    unit: str
    better: str
    #: Share of the base median by which it may worsen (``failed_share``:
    #: an absolute bound, any failure is a regression).
    bound: float
    #: The workloads that report it; ``None`` means all six.
    workloads: tuple[str, ...] | None = None


_P95 = ("range_knn_indexed", "stream_sliding_drain", "stream_durable_paced")
_PACED = ("stream_durable_paced",)

#: The nine end-to-end metrics.  The ones every workload reports are
#: also ``BENCHMARK.json``'s ``end_to_end`` (its schema wants each metric
#: from each workload); the rest are printed, stored and compared by
#: ``compare.py`` for the workloads named here and absent elsewhere.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.10),
    EndToEnd("throughput_per_s", "1/s", "higher", 0.10),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.10),
    EndToEnd("latency_p95_ms", "ms", "lower", 0.10, _P95),
    EndToEnd("emit_lag_p50_ms", "ms", "lower", 0.10, _PACED),
    EndToEnd("emit_lag_p95_ms", "ms", "lower", 0.10, _PACED),
    EndToEnd("recovery_s", "s", "lower", 0.10, _PACED),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
    EndToEnd("failed_share", "ratio", "lower", 0.0),
)

_TAIL = (
    "a tail percentile on the shared host is set by the host's stalls, not the "
    "program: 7-33% spread over ten runs of one commit in a quiet hour, 13-117% "
    "over five in a noisy one"
)
#: (metric, workload) pairings that are printed and stored but not gated,
#: each with its reason.
REPORT_ONLY: dict[tuple[str, str], str] = {
    **{("latency_p95_ms", workload): _TAIL for workload in _P95},
    ("setup_s", "dbscan_shuffle"): (
        "a 0.1 s set-up is too short to time within a tenth: 6-10% spread over "
        "ten runs of one commit in a quiet hour, 19-51% over five in a noisy one"
    ),
}


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil
    return sorted_values[int(rank) - 1]


class HostProbe:
    """How much slower than a quiet reference host this host is, now.

    The reference host shares its memory system with other tenants, and
    its speed drifts by 20-40% over minutes: ten runs of one commit
    spread (quartile distance over median) by 9-28% on raw median
    latency, and still by 4-18% on estimators that only pick the run's
    quiet slices, because a slow spell outlasts a run.  The drift is
    common to everything the process does, so it is measured and divided
    out.  One reading times two fixed pieces of pure Python: a random
    walk over 100k small tuples (cache misses: it slows down the most)
    and an arithmetic loop (it slows down the least).  The workloads sit
    in between, so the *slowdown* is the geometric mean of the two
    ratios to their quiet-host times -- one fixed formula for every
    workload, no per-workload tuning.  A reading takes about 3 ms and is
    taken between operations, never inside one.

    The reference times are constants, measured once on the reference
    host's quiet floor; they fix the unit ("seconds of the quiet
    reference host") and cancel out of every comparison of two commits.
    """

    WALK_OBJECTS = 100_000
    WALK_STEPS = 3_000
    ARITH_STEPS = 20_000
    WALK_REF_S = 1.72e-3
    ARITH_REF_S = 1.09e-3
    #: The timed loop takes a reading before an operation once this long
    #: has passed since the last one.
    EVERY_S = 0.05

    def __init__(self) -> None:
        rng = random.Random(20170321)  # a constant: the probe is no input
        n = self.WALK_OBJECTS
        self._objects = [(rng.random(), rng.random(), str(i)) for i in range(n)]
        self._order = list(range(n))
        rng.shuffle(self._order)
        self._at = 0
        self._last = 0.0

    def due(self, now: float) -> bool:
        return now - self._last >= self.EVERY_S

    def read(self, samples: int = 1) -> float:
        """The slowdown right now (the median of *samples* readings)."""
        return statistics.median(self._once() for _ in range(samples))

    def _once(self) -> float:
        objects, steps = self._objects, self.WALK_STEPS
        began = clock()
        total = 0.0
        for i in self._order[self._at:self._at + steps]:
            item = objects[i]
            total += item[0] + item[1]
        self._at = (self._at + steps) % (self.WALK_OBJECTS - steps)
        middle = clock()
        for i in range(self.ARITH_STEPS):
            total += i * i % 7
        self._last = ended = clock()
        return math.sqrt(
            (middle - began) / self.WALK_REF_S * (ended - middle) / self.ARITH_REF_S
        )


@dataclass
class Series:
    """Consecutive operations of one timed section and the host's speed."""

    #: One latency per operation, raw wall seconds, in the order run.
    latencies: list[float] = field(default_factory=list)
    #: ``(index of the operation it was taken before, slowdown)`` per
    #: probe reading; empty in a traced run, which stays raw.
    probes: list[tuple[int, float]] = field(default_factory=list)

    def slowdown(self) -> float:
        """The host's slowdown over the whole section (1.0 if never read)."""
        return statistics.median(s for _i, s in self.probes) if self.probes else 1.0

    def slices(self) -> list[tuple[list[float], float]]:
        """``(latencies, slowdown)`` of up to ``SLICES`` equal slices."""
        n = len(self.latencies)
        k = max(1, min(SLICES, n // SLICE_MIN_OPS))
        edges = [round(i * n / k) for i in range(k + 1)]
        whole = self.slowdown()
        out = []
        for lo, hi in zip(edges, edges[1:]):
            inside = [s for i, s in self.probes if lo <= i < hi]
            out.append((self.latencies[lo:hi], statistics.median(inside) if inside else whole))
        return out

    def latency_p50(self) -> float:
        """Median latency in quiet-host seconds: the median slice's."""
        return statistics.median(
            statistics.median(part) / slow for part, slow in self.slices()
        )

    def rate(self) -> float:
        """Operations per quiet-host second: the median slice's count
        over its seconds."""
        return statistics.median(
            len(part) / sum(part) * slow for part, slow in self.slices()
        )


@dataclass
class Measured:
    """What a workload's timed section hands back to the harness."""

    #: The operations ``latency_*`` is taken over (see the workload for
    #: what an operation is).
    timed: Series
    #: Wall seconds of the whole timed section.
    wall: float
    #: The operations ``throughput_per_s`` is taken over, when they are
    #: not the same ones, and the units (records) one operation completes.
    drained: Series | None = None
    units_per_op: float = 1.0
    #: Operations attempted and failed *during* the timed section
    #: (exceptions, refusals); verification adds to both.
    attempted: int = 0
    failed: int = 0
    truncated: bool = False
    #: End-to-end metrics only this workload reports, seconds or ms as named.
    extra: dict[str, float] = field(default_factory=dict)
    #: Public counters read around the section (technique "counter").
    counters: dict[str, float] = field(default_factory=dict)
    #: Report-only extras printed and stored beside the metrics.
    detail: dict[str, Any] = field(default_factory=dict)
    #: Whatever the workload needs to verify its outputs afterwards.
    results: Any = None


@dataclass
class RunContext:
    """What one run hands its workload: scratch space and instruments."""

    dirs: "WorkDirs"
    #: Span recorder of a traced run (None in an untraced one).
    recorder: SpanRecorder | None = None
    #: Host-speed probe of an untraced run (None in a traced one).
    probe: HostProbe | None = None

    def span(self, name: str, op: int | None = None):
        """A recorded span in a traced run, a no-op in an untraced one.

        *op* stamps the operation id on every span opened from here on;
        ``0`` marks a warm-up, whose spans are discarded.
        """
        if self.recorder is None:
            return nullcontext()
        if op is not None:
            self.recorder.op = op
        return self.recorder.span(name)

    def discard_spans(self) -> None:
        """Mark what follows as warm-up (traced runs drop those spans)."""
        if self.recorder is not None:
            self.recorder.op = 0


@dataclass
class Loop:
    """What :func:`timed_loop` measured."""

    series: Series  # per operation, wall seconds, and the probe readings
    results: list  # per operation; an Exception for a failed one
    failed: int
    wall: float  # wall seconds of the whole section
    truncated: bool


def timed_loop(count: int, run_op, seconds: float, ctx: RunContext) -> Loop:
    """Run ``run_op(0) .. run_op(count - 1)`` one at a time (closed loop).

    In a traced run every operation gets a ``bench.op`` span under one
    ``bench.timed`` root; in an untraced one the host probe is read
    between operations, about every ``HostProbe.EVERY_S``.
    """
    series = Series()
    latencies, probes, probe = series.latencies, series.probes, ctx.probe
    results: list = []
    failed = 0
    deadline = clock() + seconds * OVERRUN_FACTOR
    with ctx.span("bench.timed", op=1):
        section_start = clock()
        for index in range(count):
            if probe is not None and probe.due(clock()):
                probes.append((index, probe.read()))
            with ctx.span("bench.op", op=index + 1):
                began = clock()
                try:
                    result = run_op(index)
                except Exception as exc:  # a failed operation is counted, not fatal
                    result = exc
                    failed += 1
                ended = clock()
            latencies.append(ended - began)
            results.append(result)
            if ended > deadline:
                break
        wall = clock() - section_start
    return Loop(series, results, failed, wall, len(latencies) < count)


#: The batch context's public counters the per-layer metrics read.
SPARK_COUNTERS = (
    "jobs_run",
    "tasks_launched",
    "tasks_retried",
    "shuffle_records_written",
    "cache_hits",
    "partitions_pruned",
    "index_cache_hits",
    "index_candidates",
    "index_slices_pruned",
)


def spark_counters(sc) -> dict[str, float]:
    """A point-in-time copy of ``sc.metrics``, the counters above only."""
    snapshot = sc.metrics.snapshot()
    return {name: snapshot[name] for name in SPARK_COUNTERS}


def peak_rss_mib() -> float:
    """This process's high-water resident set size (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WorkDirs:
    """Scratch directories under ``bench/out``, removed on exit."""

    def __init__(self, workload: str) -> None:
        self._root = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}")
        self._count = 0

    def new(self) -> str:
        self._count += 1
        path = os.path.join(self._root, f"d{self._count}")
        os.makedirs(path)
        return path

    def remove(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)


def run_untraced(workload, seed: int, seconds: float, scale: float) -> dict:
    """Set up (several times), warm up, time, verify: end-to-end metrics."""
    probe = HostProbe()
    ctx = RunContext(WorkDirs(workload.name), probe=probe)
    try:
        state, setups, raw_setups = None, [], []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
            slow_before = probe.read(5)
            began = clock()
            inputs = workload.generate(seed, scale, seconds)
            state = workload.setup(inputs, ctx)
            raw_setups.append(clock() - began)
            setups.append(raw_setups[-1] * 2.0 / (slow_before + probe.read(5)))
        try:
            measured = workload.measure(state, inputs, seconds, ctx)
            rss = peak_rss_mib()
            checked, wrong, notes = workload.verify(state, inputs, measured)
        finally:
            workload.close(state)
    finally:
        ctx.dirs.remove()
    timed, drained = measured.timed, measured.drained or measured.timed
    latencies = sorted(timed.latencies)
    attempted, failed = measured.attempted + checked, measured.failed + wrong
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": drained.rate() * measured.units_per_op,
        "latency_p50_ms": timed.latency_p50() * 1e3,
        "peak_rss_mb": rss,
        "failed_share": failed / attempted,
        **measured.extra,
    }
    if len(latencies) >= P95_MIN_SAMPLES:
        values["latency_p95_ms"] = percentile(latencies, 95) / timed.slowdown() * 1e3
    metrics = {
        m.name: (values[m.name], m.unit)
        for m in END_TO_END
        if m.name in values and (m.workloads is None or workload.name in m.workloads)
    }
    detail = dict(measured.detail)
    detail.update(
        samples=len(latencies),
        host_slowdown=round(timed.slowdown(), 4),
        probe_readings=len(timed.probes),
        raw_latency_p50_ms=percentile(latencies, 50) * 1e3,
        raw_throughput_per_s=(
            len(drained.latencies) / sum(drained.latencies) * measured.units_per_op
        ),
        raw_setup_runs_s=[round(s, 4) for s in raw_setups],
        timed_wall_s=round(measured.wall, 4),
        truncated=measured.truncated,
        input_digest=inputs.digest,
        verified=checked,
        notes=notes,
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def run_traced(workload, seed: int, seconds: float, scale: float) -> dict:
    """One traced pass: per-layer metrics, span file, layer shares."""
    recorder = SpanRecorder()
    ctx = RunContext(WorkDirs(workload.name), recorder=recorder)
    seconds = seconds * workload.traced_share
    unwrapped = layers.install(recorder)
    try:
        setup_start = clock()
        with ctx.span("bench.setup", op=-1):
            inputs = workload.generate(seed, scale, seconds)
            state = workload.setup(inputs, ctx)
        setup_end = clock()
        try:
            measured = workload.measure(state, inputs, seconds, ctx)
            checked, wrong, notes = workload.verify(state, inputs, measured)
        finally:
            workload.close(state)
    finally:
        recorder.restore()
        ctx.dirs.remove()
    spans = recorder.spans()
    kept = [s for s in spans if s.op != 0]  # op 0 is the discarded warm-up
    timed = [s for s in kept if s.op > 0]
    counters = dict(measured.counters)
    counters["traced_wall_s"] = measured.wall
    aggregate = layers.Aggregate(kept, counters)
    metrics = {
        m.name: (float(m.value(aggregate)), m.unit) for m in layers.METRICS
    }
    shares = layers.Aggregate(timed, counters).layer_busy()
    trace_path = write_trace(workload.name, seed, spans, unwrapped, setup_start)
    detail = dict(measured.detail)
    detail.update(
        samples=len(measured.timed.latencies),
        timed_wall_s=round(measured.wall, 4),
        setup_wall_s=round(setup_end - setup_start, 4),
        per_op_wall_s=measured.wall / max(1, len(measured.timed.latencies)),
        input_digest=inputs.digest,
        layer_busy_s={k: round(v, 6) for k, v in sorted(shares.items())},
        unwrapped=unwrapped,
        trace_file=os.path.relpath(trace_path, os.path.dirname(HERE)),
        verified=checked,
        notes=notes,
    )
    return {
        "attempted": measured.attempted + checked,
        "failed": measured.failed + wrong,
        "metrics": metrics,
        "detail": detail,
    }


def write_trace(workload: str, seed: int, spans, unwrapped, origin: float) -> str:
    """Dump the spans compactly: a name table plus one row per span."""
    os.makedirs(OUT_DIR, exist_ok=True)
    names: dict[str, int] = {}
    rows = []
    for s in spans:
        index = names.setdefault(s.name, len(names))
        rows.append(
            [s.id, s.parent, index, s.thread, s.op,
             round(s.start - origin, 7), round(s.end - origin, 7), s.note]
        )
    path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    with open(path, "w") as f:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "columns": ["id", "parent", "name", "thread", "op", "start_s", "end_s", "note"],
                "names": list(names),
                "layers": {name: layers.span_layer(name) for name in names},
                "unwrapped": unwrapped,
                "spans": rows,
            },
            f,
        )
    return path

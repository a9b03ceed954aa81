"""The wrapper table and the per-layer metric definitions.

Layers are the packages under ``src/repro``.  Two techniques back the
per-layer metrics, and each metric's row in :data:`METRICS` says which:

``wrapper``
    At the start of a traced run every callable in :data:`TARGETS` is
    replaced by a timing wrapper (:mod:`spans`); ``*_busy_s`` is the
    summed self time of the named spans, ``*_calls`` / ``*_count`` the
    number of spans, and ratios divide span notes (candidates returned,
    predicate hits) by span counts.
``counter``
    The workload reads the program's public counters (``sc.metrics``,
    ``ssc.metrics``, ``consumer.store.*``, ``CheckpointManager.stats()``,
    sink attributes) or its own feeder log after the timed section.

Only seconds and counts are stored; a layer's share is its busy time
over the traced wall and is derived where it is printed.

``TARGETS`` names callables by ``module:attribute.path``.  Functions
that other modules import *by name* list those bindings too, because
patching the defining module alone would not reach them.  A target that
no longer exists is skipped and reported (``unwrapped`` in the trace
file) -- its metric then reads 0 -- so a refactor of the program cannot
break the end-to-end side of the benchmark.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, NamedTuple

from spans import Span, SpanRecorder, self_times


class Target(NamedTuple):
    """One wrapped callable."""

    span: str  # span name (run_job appends its job tag)
    layer: str
    where: tuple[str, ...]  # "module:attr.path" bindings, definition first
    kind: str = "call"  # "call" | "generator"
    note: Callable[[tuple, Any], Any] | None = None


def _result_len(_args: tuple, result: Any) -> int:
    # query_st answers either a list or (list, slices_pruned).
    if isinstance(result, tuple):
        result = result[0]
    return len(result) if result is not None else 0


def _result_true(_args: tuple, result: Any) -> int:
    return 1 if result else 0


def _persisted(args: tuple, _result: Any) -> int:
    # 1 when the lookup was on a persisted RDD, i.e. a cache attempt.
    return 1 if getattr(args[0], "_cached", False) else 0


def job_tag(args: tuple) -> str:
    """``run_job``'s span name: the operator tag of the job's lineage.

    The first named RDD up the lineage (operators name what they build:
    ``filter.indexed``, ``join.live_index``, ``stream.join_static``...),
    not crossing shuffle boundaries; the shuffle map side is recognised
    by its task function.
    """
    rdd, fn = args[1], args[2]
    if getattr(fn, "__name__", "") == "map_task":
        return "run_job[shuffle.map]"
    queue, seen = [rdd], {rdd.id}
    while queue:
        node = queue.pop(0)
        if node.name:
            return f"run_job[{node.name}]"
        if type(node).__name__ == "ShuffledRDD":
            continue
        for parent in node.parents:
            if parent.id not in seen:
                seen.add(parent.id)
                queue.append(parent)
    return "run_job[]"


_P = "repro.core.predicates:STPredicate."
_IDX = "repro.index."
_ST = "repro.streaming."

TARGETS: tuple[Target, ...] = (
    # geometry: the exact predicate, once per refined candidate
    Target("predicate", "geometry", (_P + "evaluate",), note=_result_true),
    Target("predicate", "geometry", (_P + "evaluate_ordered",), note=_result_true),
    Target("predicate", "geometry", (_ST + "operators:StaticPredicate.evaluate",), note=_result_true),
    # index: build / probe / load
    Target("index.build", "index", (_IDX + "rtree:STRTree.__init__",)),
    Target("index.build_forest", "index", (_IDX + "temporal_forest:TimeSlicedForest.__init__",),
           note=lambda args, _r: args[0].num_slices),
    Target("index.build_3d", "index", (_IDX + "rtree3d:STRTree3D.__init__",)),
    Target("index.probe", "index", (_IDX + "rtree:STRTree.query",), note=_result_len),
    Target("index.probe", "index", (_IDX + "rtree:STRTree.nearest",), note=_result_len),
    Target("index.probe", "index", (_IDX + "temporal_forest:TimeSlicedForest.query_st",), note=_result_len),
    Target("index.probe", "index", (_IDX + "rtree3d:STRTree3D.query_st",), note=_result_len),
    Target("index.load", "index", (_IDX + "persistence:load_index",)),
    Target("index.load_part", "index", (_IDX + "persistence:ResilientIndexRDD.compute",)),
    Target("index.save", "index", (_IDX + "persistence:save_index",)),
    # partitioners
    Target("partitioner.build", "partitioners", ("repro.partitioners.grid:GridPartitioner.from_rdd",)),
    Target("partitioner.build", "partitioners", ("repro.partitioners.bsp:BSPartitioner.__init__",)),
    # core operators (driver side) and the join's per-task loop
    Target("filter", "core", ("repro.core.filter:filter_indexed",)),
    Target("filter", "core", ("repro.core.filter:filter_live_index",)),
    Target("filter", "core", ("repro.core.filter:prune_partitions",)),
    Target("knn", "core", ("repro.core.knn:knn_indexed",)),
    Target("join", "core", ("repro.core.join:spatial_join",)),
    Target("join", "core", ("repro.core.join:SpatialJoinRDD.compute",), kind="generator"),
    Target(
        "dbscan",
        "core",
        ("repro.core.clustering.mr_dbscan:dbscan", "repro.core.spatial_rdd:dbscan"),
    ),
    Target(
        "dbscan",
        "core",
        (
            "repro.core.clustering.dbscan:local_dbscan",
            "repro.core.clustering.mr_dbscan:local_dbscan",
        ),
    ),
    # planner
    Target("planner.stats", "planner", ("repro.planner.planner:QueryPlanner.statistics",)),
    Target("planner.plan", "planner", ("repro.planner.planner:QueryPlanner.plan_filter",)),
    Target("planner.plan", "planner", ("repro.planner.planner:QueryPlanner.execute",)),
    # spark: jobs (tagged), shuffle reads, cache lookups
    Target("run_job", "spark", ("repro.spark.context:SparkContext.run_job",)),
    Target("shuffle.read", "spark", ("repro.spark.rdd:ShuffledRDD.compute",)),
    Target("rdd.iterator", "spark", ("repro.spark.rdd:RDD.iterator",), note=_persisted),
    # io
    Target("io.read", "io", ("repro.spark.storage:TextFileRDD.compute",), kind="generator"),
    # streaming
    Target("source.poll", "streaming.sources", (_ST + "sources:QueueSource.poll",), note=_result_len),
    Target("source.poll", "streaming.sources", ("streams:ListSource.poll",), note=_result_len),
    Target("batch", "streaming.context", (_ST + "context:StreamingContext.run_batch",)),
    Target("restore", "streaming.checkpoint", (_ST + "context:StreamingContext.restore",)),
    Target("window.assign", "streaming.window", (_ST + "window:WindowSpec.assign",)),
    Target("state.absorb", "streaming.state", (_ST + "state:StateConsumer.absorb",)),
    Target("state.fire", "streaming.state", (_ST + "state:StateConsumer.fire",)),
    Target("state.query", "streaming.state", (_ST + "state:KeyedStateStore.query_range",)),
    Target("state.query", "streaming.state", (_ST + "state:KeyedStateStore.query_knn",)),
    Target("state.snapshot", "streaming.state", (_ST + "state:StateConsumer.snapshot_state",)),
    Target("state.snapshot", "streaming.state", (_ST + "cep.consumer:CepConsumer.snapshot_state",)),
    Target(
        "join_static",
        "streaming.operators",
        (_ST + "operators:stream_static_join", _ST + "dstream:stream_static_join"),
    ),
    Target("wal.append", "streaming.checkpoint", (_ST + "checkpoint:WalWriter.append",)),
    Target("checkpoint.write", "streaming.checkpoint", (_ST + "checkpoint:CheckpointManager.write_checkpoint",)),
    Target("checkpoint.write", "streaming.checkpoint", (_ST + "recovery:build_snapshot",)),
    Target("sink.write", "streaming.sinks", (_ST + "sinks:WindowSink.__call__",)),
    Target("sink.write", "streaming.sinks", (_ST + "sinks:EventFileSink.write",)),
    Target("cep.absorb", "streaming.cep", (_ST + "cep.consumer:CepConsumer.absorb",)),
    Target("cep.fire", "streaming.cep", (_ST + "cep.consumer:CepConsumer.fire",)),
)

_LAYER_OF = {target.span: target.layer for target in TARGETS}


def span_layer(name: str) -> str:
    """The layer a span's self time is charged to.

    A job's self time (scheduling plus the unwrapped per-partition
    closure it runs) belongs to ``spark`` -- except the stream-static
    join's job and the planner's statistics pass, whose closures *are*
    the operator.
    """
    if name.startswith("run_job["):
        if "stream.join_static" in name:
            return "streaming.operators"
        return "planner" if name == "run_job[planner.stats]" else "spark"
    if name.startswith("bench."):
        return "bench"
    return _LAYER_OF[name]


def _resolve(binding: str) -> tuple[Any, str]:
    module_name, _, path = binding.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attribute not in vars(owner):
        raise AttributeError(binding)
    return owner, attribute


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every target; returns the bindings that could not be found."""
    def wrapper_for(target: Target) -> Callable[[Callable], Callable]:
        if target.span == "run_job":
            return lambda func: recorder.wrap_call(func, job_tag, owns_job=True)
        if target.kind == "generator":
            return lambda func: recorder.wrap_generator(func, target.span)
        return lambda func: recorder.wrap_call(func, target.span, target.note)

    missing: list[str] = []
    for target in TARGETS:
        make = wrapper_for(target)
        wrapped = None
        for binding in target.where:
            try:
                owner, attribute = _resolve(binding)
            except (ImportError, AttributeError):
                missing.append(binding)
                continue
            if wrapped is None:
                recorder.patch(owner, attribute, make)
                wrapped = vars(owner)[attribute]
            else:
                # A by-name import elsewhere: bind the same wrapper.
                recorder.patch(owner, attribute, lambda _orig, w=wrapped: w)
    return missing


class Aggregate:
    """Span and counter totals the metric definitions read from."""

    def __init__(self, spans: list[Span], counters: dict[str, float]) -> None:
        self.counters = counters
        self_time = self_times(spans)
        self.busy_by_name: dict[str, float] = {}
        self.count_by_name: dict[str, int] = {}
        self.note_by_name: dict[str, float] = {}
        name_of = {span.id: span.name for span in spans}
        for span in spans:
            name = span.name
            if name == "run_job[]":
                # An untagged job is tagged with the span that launched it
                # (the planner's statistics pass, DBSCAN's merge reads).
                name = f"run_job[{name_of.get(span.parent, '')}]"
            self.busy_by_name[name] = self.busy_by_name.get(name, 0.0) + self_time[span.id]
            self.count_by_name[name] = self.count_by_name.get(name, 0) + 1
            if span.note is not None:
                self.note_by_name[name] = self.note_by_name.get(name, 0) + span.note

    def _matching(self, table: dict, prefix: str) -> float:
        return sum(v for name, v in table.items() if name == prefix or name.startswith(prefix + "["))

    def busy(self, *names: str) -> float:
        """Summed self time of the named spans (``run_job`` matches every tag)."""
        return sum(self._matching(self.busy_by_name, name) for name in names)

    def count(self, *names: str) -> int:
        return int(sum(self._matching(self.count_by_name, name) for name in names))

    def note(self, *names: str) -> float:
        return sum(self._matching(self.note_by_name, name) for name in names)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def layer_busy(self) -> dict[str, float]:
        """Summed self time per layer (the shares the README quotes)."""
        out: dict[str, float] = {}
        for name, busy in self.busy_by_name.items():
            layer = span_layer(name)
            out[layer] = out.get(layer, 0.0) + busy
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    technique: str  # "wrapper" | "counter"
    value: Callable[[Aggregate], float]


def _busy(*names: str) -> Callable[[Aggregate], float]:
    return lambda a: a.busy(*names)


def _count(*names: str) -> Callable[[Aggregate], float]:
    return lambda a: a.count(*names)


def _counter(name: str) -> Callable[[Aggregate], float]:
    return lambda a: a.counter(name)


_JOBS_CHARGED_ELSEWHERE = (
    "run_job[stream.join_static]", "run_job[planner.stats]", "run_job[shuffle.map]",
)


def _scheduler_self(a: Aggregate) -> float:
    return sum(
        busy
        for name, busy in a.busy_by_name.items()
        if name.startswith("run_job[") and name not in _JOBS_CHARGED_ELSEWHERE
    )


_BUILDS = ("index.build", "index.build_forest", "index.build_3d")

M = Metric
METRICS: tuple[Metric, ...] = (
    # geometry
    M("geometry.predicate_calls", "count", "lower", "wrapper", _count("predicate")),
    M("geometry.predicate_busy_s", "s", "lower", "wrapper", _busy("predicate")),
    M("geometry.refine_hit_ratio", "ratio", "higher", "wrapper",
      lambda a: _ratio(a.note("predicate"), a.count("predicate"))),
    # index
    M("index.build_count", "count", "lower", "wrapper", _count(*_BUILDS)),
    M("index.build_busy_s", "s", "lower", "wrapper", _busy(*_BUILDS)),
    M("index.probe_count", "count", "lower", "wrapper", _count("index.probe")),
    M("index.probe_busy_s", "s", "lower", "wrapper", _busy("index.probe")),
    M("index.candidates_per_probe", "count", "lower", "wrapper",
      lambda a: _ratio(a.note("index.probe"), a.count("index.probe"))),
    M("index.load_busy_s", "s", "lower", "wrapper", _busy("index.load", "index.load_part")),
    M("index.save_busy_s", "s", "lower", "wrapper", _busy("index.save")),
    M("index.cache_hit_ratio", "ratio", "higher", "counter",
      lambda a: _ratio(a.counter("index_cache_hits"), a.count("index.load_part"))),
    # partitioners
    M("partitioners.build_busy_s", "s", "lower", "wrapper", _busy("partitioner.build")),
    M("partitioners.pruned_partition_ratio", "ratio", "higher", "counter",
      lambda a: _ratio(a.counter("partitions_pruned"),
                       a.counter("partitions_pruned") + a.counter("tasks_launched"))),
    M("partitioners.skew", "ratio", "lower", "counter", _counter("partition_skew")),
    # core
    M("core.filter_busy_s", "s", "lower", "wrapper", _busy("filter")),
    M("core.knn_busy_s", "s", "lower", "wrapper", _busy("knn")),
    M("core.join_busy_s", "s", "lower", "wrapper", _busy("join")),
    M("core.dbscan_busy_s", "s", "lower", "wrapper", _busy("dbscan")),
    M("core.join_pairs_pruned_ratio", "ratio", "higher", "counter",
      lambda a: _ratio(a.counter("partitions_pruned"), a.counter("join_pairs_total"))),
    # planner
    M("planner.stats_busy_s", "s", "lower", "wrapper",
      lambda a: a.busy("planner.stats") + a.busy_by_name.get("run_job[planner.stats]", 0.0)),
    M("planner.plan_busy_s", "s", "lower", "wrapper", _busy("planner.plan")),
    M("planner.estimate_error_ratio", "ratio", "lower", "counter",
      lambda a: _ratio(a.counter("planner_estimated_candidates"),
                       a.counter("index_candidates"))),
    M("planner.temporal_pruned_ratio", "ratio", "higher", "counter",
      lambda a: _ratio(a.counter("index_slices_pruned"), a.note("index.build_forest"))),
    # spark
    M("spark.jobs_run", "count", "lower", "counter", _counter("jobs_run")),
    M("spark.tasks_launched", "count", "lower", "counter", _counter("tasks_launched")),
    M("spark.tasks_retried", "count", "lower", "counter", _counter("tasks_retried")),
    M("spark.scheduler_self_s", "s", "lower", "wrapper", _scheduler_self),
    M("spark.shuffle_records_written", "count", "lower", "counter",
      _counter("shuffle_records_written")),
    M("spark.shuffle_busy_s", "s", "lower", "wrapper",
      lambda a: a.busy("shuffle.read") + a.busy_by_name.get("run_job[shuffle.map]", 0.0)),
    M("spark.cache_hit_ratio", "ratio", "higher", "wrapper",
      lambda a: _ratio(a.counter("cache_hits"), a.note("rdd.iterator"))),
    # io
    M("io.read_busy_s", "s", "lower", "wrapper", _busy("io.read")),
    M("io.records_read", "count", "lower", "counter", _counter("io_records_read")),
    # streaming.sources
    M("streaming.sources.poll_busy_s", "s", "lower", "wrapper", _busy("source.poll")),
    M("streaming.sources.records_polled", "count", "lower", "wrapper",
      lambda a: a.note("source.poll")),
    M("streaming.sources.feeder_late_p95_ms", "ms", "lower", "counter",
      _counter("feeder_late_p95_ms")),
    # streaming.context
    M("streaming.context.batches_run", "count", "lower", "counter", _counter("batches_run")),
    M("streaming.context.batch_self_s", "s", "lower", "wrapper", _busy("batch")),
    M("streaming.context.batch_retries", "count", "lower", "counter", _counter("batch_retries")),
    M("streaming.context.backlog_max_batches", "count", "lower", "counter",
      _counter("backlog_max_batches")),
    M("streaming.context.backpressure_waits", "count", "lower", "counter",
      _counter("backpressure_waits")),
    # streaming.window
    M("streaming.window.assign_calls", "count", "lower", "wrapper", _count("window.assign")),
    M("streaming.window.assign_busy_s", "s", "lower", "wrapper", _busy("window.assign")),
    M("streaming.window.windows_fired", "count", "lower", "counter", _counter("windows_fired")),
    M("streaming.window.late_records_dropped", "count", "lower", "counter",
      _counter("late_records_dropped")),
    # streaming.state
    M("streaming.state.inserts", "count", "lower", "counter", _counter("state_inserts")),
    M("streaming.state.removes", "count", "lower", "counter", _counter("state_removes")),
    M("streaming.state.cell_rebuilds", "count", "lower", "counter", _counter("state_cell_rebuilds")),
    M("streaming.state.rebuilds_per_window", "count", "lower", "counter",
      lambda a: _ratio(a.counter("state_cell_rebuilds"), a.counter("state_windows_fired"))),
    M("streaming.state.absorb_busy_s", "s", "lower", "wrapper", _busy("state.absorb")),
    M("streaming.state.query_busy_s", "s", "lower", "wrapper", _busy("state.query")),
    M("streaming.state.evict_busy_s", "s", "lower", "wrapper", _busy("state.fire")),
    M("streaming.state.size_records_max", "count", "lower", "counter",
      _counter("state_size_records_max")),
    M("streaming.state.snapshot_busy_s", "s", "lower", "wrapper", _busy("state.snapshot")),
    M("streaming.state.snapshot_bytes", "bytes", "lower", "counter",
      _counter("state_snapshot_bytes")),
    # streaming.operators
    M("streaming.operators.join_static_busy_s", "s", "lower", "wrapper",
      lambda a: a.busy("join_static") + a.busy_by_name.get("run_job[stream.join_static]", 0.0)),
    # streaming.checkpoint
    M("streaming.checkpoint.wal_append_busy_s", "s", "lower", "wrapper", _busy("wal.append")),
    M("streaming.checkpoint.wal_bytes_per_record", "bytes", "lower", "counter",
      lambda a: _ratio(a.counter("wal_bytes"), a.counter("records_ingested"))),
    M("streaming.checkpoint.checkpoints_written", "count", "lower", "counter",
      _counter("checkpoints_written")),
    M("streaming.checkpoint.write_busy_s", "s", "lower", "wrapper", _busy("checkpoint.write")),
    M("streaming.checkpoint.bytes", "bytes", "lower", "counter", _counter("checkpoint_bytes")),
    M("streaming.checkpoint.replayed_batches", "count", "lower", "counter",
      _counter("replayed_batches")),
    M("streaming.checkpoint.restore_busy_s", "s", "lower", "wrapper", _busy("restore")),
    # streaming.sinks
    M("streaming.sinks.windows_written", "count", "lower", "counter", _counter("sink_windows_written")),
    M("streaming.sinks.write_busy_s", "s", "lower", "wrapper", _busy("sink.write")),
    M("streaming.sinks.retries", "count", "lower", "counter", _counter("sink_retries")),
    # streaming.cep
    M("streaming.cep.absorb_busy_s", "s", "lower", "wrapper", _busy("cep.absorb")),
    M("streaming.cep.fire_busy_s", "s", "lower", "wrapper", _busy("cep.fire")),
    M("streaming.cep.matches_emitted", "count", "lower", "counter", _counter("matches_emitted")),
    M("streaming.cep.late_dropped", "count", "lower", "counter", _counter("cep_late_dropped")),
    # stream_durable_paced's own end-to-end metrics, as the traced run
    # saw them (the gated values come from the untraced run)
    M("emit_lag_p50_ms", "ms", "lower", "counter", _counter("emit_lag_p50_ms")),
    M("emit_lag_p95_ms", "ms", "lower", "counter", _counter("emit_lag_p95_ms")),
    M("recovery_s", "s", "lower", "counter", _counter("recovery_s")),
    # the traced run itself
    M("trace.spans", "count", "lower", "wrapper", lambda a: sum(a.count_by_name.values())),
    M("trace.wall_s", "s", "lower", "wrapper", _counter("traced_wall_s")),
)

"""Discretized streams: per-batch transformation chains and windows.

A :class:`DStream` is a lazy description of what to do with every
micro-batch: a chain of RDD transformations rooted at an input stream.
Nothing runs at definition time -- the context's batch core
(:mod:`repro.streaming.batch`) walks the registered *outputs* once per
batch, building each batch's RDD through the chain and running the
output action, exactly like Spark Streaming's ``foreachRDD`` model.

:class:`SpatialDStream` is the spatio-temporal face of the same idea
(streams here are ``(STObject, value)`` pairs): per-batch predicate
filters reuse :mod:`repro.core.filter`, the stream-static joins reuse
:mod:`repro.streaming.operators`, and :meth:`SpatialDStream.window`
moves from per-batch to per-event-time-window processing, where the
windowed kNN and DBSCAN operators run the batch implementations over
each closed window's records.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator

from repro.core import filter as filter_ops
from repro.core import knn as knn_ops
from repro.core.clustering.mr_dbscan import dbscan
from repro.core.predicates import (
    CONTAINED_BY,
    CONTAINS,
    INTERSECTS,
    STPredicate,
    resolve_predicate,
    within_distance_predicate,
)
from repro.core.stobject import STObject
from repro.geometry.distance import DistanceFunction, euclidean
from repro.spark.rdd import RDD
from repro.geometry.envelope import Envelope
from repro.streaming.operators import (
    broadcast_static_index,
    relax_static,
    stream_static_join,
)
from repro.streaming.state import ContinuousJoinStatic, ContinuousQuery, StateConsumer
from repro.streaming.window import Window, WindowSpec

Record = tuple[STObject, Any]

class Sink:
    """A thread-safe ordered collector for stream results.

    Outputs append ``(tag, value)`` pairs -- the tag is a batch id for
    per-batch sinks and a :class:`~repro.streaming.window.Window` for
    windowed sinks.  ``results()`` snapshots under the lock, so a test
    or dashboard can read while the stream is running.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: list[tuple[Any, Any]] = []

    def append(self, tag: Any, value: Any) -> None:
        """Record one result (called by the streaming engine)."""
        with self._lock:
            self._items.append((tag, value))

    def results(self) -> list[tuple[Any, Any]]:
        """A snapshot of everything collected so far, in emit order."""
        with self._lock:
            return list(self._items)

    def values(self) -> list[Any]:
        """Just the collected values, in emit order."""
        with self._lock:
            return [value for _tag, value in self._items]

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class DStream:
    """A lazy per-batch transformation chain (see module docstring).

    Instances are immutable descriptions; every transformation returns
    a new node pointing back at its parent.  Subclasses propagate their
    type so :class:`SpatialDStream` chains stay spatial.
    """

    def __init__(
        self,
        ssc,
        parent: "DStream | None" = None,
        transform_fn: Callable[[RDD], RDD] | None = None,
        name: str = "dstream",
    ) -> None:
        self._ssc = ssc
        self._parent = parent
        self._transform_fn = transform_fn
        self.name = name

    # -- batch plumbing ----------------------------------------------------

    def _compute(self, base_rdds: dict[int, RDD]) -> RDD:
        """Build this node's RDD for one batch from the input base RDDs."""
        if self._parent is None:
            return base_rdds[id(self)]
        rdd = self._parent._compute(base_rdds)
        return self._transform_fn(rdd) if self._transform_fn else rdd

    def _derived_type(self) -> type:
        """The class derived nodes take (input roots override: their
        constructor signature differs, but their children are ordinary
        chain nodes)."""
        return type(self)

    def _derive(self, transform_fn: Callable[[RDD], RDD], name: str) -> "DStream":
        return self._derived_type()(self._ssc, self, transform_fn, name=name)

    # -- transformations ---------------------------------------------------

    def map(self, fn: Callable) -> "DStream":
        """Apply *fn* to every record of every batch."""
        return self._derive(lambda rdd: rdd.map(fn), f"{self.name}.map")

    def filter(self, pred: Callable) -> "DStream":
        """Keep the records of every batch that satisfy *pred*."""
        return self._derive(lambda rdd: rdd.filter(pred), f"{self.name}.filter")

    def flat_map(self, fn: Callable) -> "DStream":
        """Map each record to zero or more records."""
        return self._derive(lambda rdd: rdd.flat_map(fn), f"{self.name}.flat_map")

    def map_partitions(self, fn: Callable[[Iterator], Iterable]) -> "DStream":
        """Apply a per-partition transformation to every batch."""
        return self._derive(lambda rdd: rdd.map_partitions(fn), f"{self.name}.map_partitions")

    def transform(self, fn: Callable[[RDD], RDD]) -> "DStream":
        """Apply an arbitrary RDD-to-RDD function to every batch.

        The escape hatch into the full batch API: anything expressible
        over an RDD -- joins, repartitioning, the spatial operators --
        becomes a streaming transformation.
        """
        return self._derive(fn, f"{self.name}.transform")

    # -- outputs -----------------------------------------------------------

    def for_each_rdd(self, fn: Callable[[int, RDD], None]) -> None:
        """Run ``fn(batch_id, rdd)`` on every batch (the terminal output).

        Registering an output is what makes a chain *run*; a DStream
        with no outputs (and no window consumers) is never computed.
        """
        self._ssc._register_output(self, fn)

    def collect_batches(self) -> Sink:
        """Collect every batch's records into a :class:`Sink`.

        Returns the sink; each batch appends ``(batch_id, records)``.
        """
        sink = Sink()
        self.for_each_rdd(lambda batch_id, rdd: sink.append(batch_id, rdd.collect()))
        return sink

    def count_batches(self) -> Sink:
        """Collect every batch's record count into a :class:`Sink`."""
        sink = Sink()
        self.for_each_rdd(lambda batch_id, rdd: sink.append(batch_id, rdd.count()))
        return sink

    # -- windowing ---------------------------------------------------------

    def window(
        self,
        length: float,
        slide: float | None = None,
        lateness: float = 0.0,
        origin: float = 0.0,
    ) -> "WindowedStream":
        """Group this stream's records into event-time windows.

        ``length``/``slide`` select tumbling (default) or sliding
        windows; ``lateness`` is how far the watermark trails the
        maximum event time seen, i.e. how much out-of-order arrival the
        stream absorbs before a window closes.  The temporal component
        of each record decides membership (interval-timed events join
        every window they overlap -- the paper's eq. (1) semantics);
        untimed records fall back to their batch's ingestion time.
        A closing window hands its outputs its records in arrival order.
        """
        # window() never asks its store a spatial question, so the store
        # is a single cell: an insert is one dict write plus extent growth.
        consumer = StateConsumer(self, WindowSpec(length, slide, origin), lateness, grid=1)
        self._ssc._register_window(consumer)
        return WindowedStream(self._ssc, consumer)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class SpatialDStream(DStream):
    """A stream of ``(STObject, value)`` records with the STARK operators.

    Per-batch filters mirror :class:`~repro.core.spatial_rdd.
    SpatialRDDFunctions`; the ``*_static`` joins match every incoming
    event against a broadcast R-tree over a fixed reference dataset.
    Both camelCase (paper-faithful) and snake_case spellings exist.

    All predicates carry the static-side temporal relaxation
    (:func:`~repro.streaming.operators.relax_static`): an untimed query
    or reference object matches timed events on the spatial component
    alone, while two timed sides keep the paper's combined semantics.
    """

    # -- per-batch predicate filters --------------------------------------

    def _filtered(self, query: "STObject | str", predicate: STPredicate, tag: str) -> "SpatialDStream":
        query_obj = query if isinstance(query, STObject) else STObject(query)
        relaxed = relax_static(predicate)
        return self._derive(
            lambda rdd: filter_ops.filter_no_index(rdd, query_obj, relaxed),
            f"{self.name}.{tag}",
        )

    def intersects(self, query: "STObject | str") -> "SpatialDStream":
        """Per batch: records intersecting *query* (paper eq. (1))."""
        return self._filtered(query, INTERSECTS, "intersects")

    def contains(self, query: "STObject | str") -> "SpatialDStream":
        """Per batch: records completely containing *query*."""
        return self._filtered(query, CONTAINS, "contains")

    def contained_by(self, query: "STObject | str") -> "SpatialDStream":
        """Per batch: records completely contained by *query*."""
        return self._filtered(query, CONTAINED_BY, "contained_by")

    def within_distance(
        self,
        query: "STObject | str",
        max_distance: float,
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> "SpatialDStream":
        """Per batch: records within *max_distance* of *query*."""
        predicate = within_distance_predicate(max_distance, distance_fn)
        return self._filtered(query, predicate, "within_distance")

    # -- stream-static joins ----------------------------------------------

    def join_static(
        self,
        reference: "RDD | list[Record]",
        predicate: "str | STPredicate" = INTERSECTS,
        order: int = 10,
    ) -> "SpatialDStream":
        """Join every batch against a fixed reference dataset.

        The reference is R-tree-indexed and broadcast once, at stream
        definition time; each batch probes the tree per partition.
        Emits ``((stream_st, stream_v), (ref_st, ref_v))`` pairs, the
        :func:`repro.core.join.spatial_join` contract.
        """
        pred = resolve_predicate(predicate)
        index = broadcast_static_index(self._ssc.spark_context, reference, order)
        return self._derive(
            lambda rdd: stream_static_join(rdd, index, pred),
            f"{self.name}.join_static",
        )

    def within_distance_static(
        self,
        reference: "RDD | list[Record]",
        max_distance: float,
        distance_fn: "str | DistanceFunction" = euclidean,
        order: int = 10,
    ) -> "SpatialDStream":
        """Stream-static ``withinDistance`` join against *reference*.

        :meth:`join_static` with a :func:`~repro.core.predicates.
        within_distance_predicate`, whose candidate region prunes the
        tree probe for the Euclidean metric and covers the whole
        reference for any other (see :mod:`repro.streaming.operators`).
        """
        predicate = within_distance_predicate(max_distance, distance_fn)
        return self.join_static(reference, predicate, order)

    def window(
        self,
        length: float,
        slide: float | None = None,
        lateness: float = 0.0,
        origin: float = 0.0,
    ) -> "SpatialWindowedStream":
        """Event-time windows with the spatio-temporal window operators."""
        plain = super().window(length, slide, lateness, origin)
        return SpatialWindowedStream(self._ssc, plain._consumer)

    def continuous(
        self,
        length: float,
        slide: float | None = None,
        lateness: float = 0.0,
        origin: float = 0.0,
        universe: "Envelope | None" = None,
        grid: int = 8,
        memory_budget_bytes: int | None = None,
        spill_dir: str | None = None,
    ) -> "ContinuousWindowedStream":
        """Continuous queries over keyed, grid-partitioned window state.

        The incremental alternative to :meth:`window` for sliding
        windows: instead of recomputing each closed window with the
        batch operators over its full record list, records are
        assigned to grid cells at ingest and held in a
        :class:`~repro.streaming.state.KeyedStateStore` -- one copy
        each -- and the standing queries registered on the returned
        stream answer each closing window by scanning the grid cells
        their extents cannot prune.  Window membership is the same state
        :meth:`window` runs on; results are identical to the batch
        recomputation, only the query cost profile changes (a window
        advance touches entering/leaving records, not the whole
        window).

        ``universe`` fixes the grid up front (``grid`` cells per
        dimension); without it the first non-empty batch's bounding box
        is used -- placement only affects pruning granularity, never
        results.

        ``memory_budget_bytes`` caps the state store's in-memory
        footprint: when the approximate resident size exceeds the
        budget, cold grid cells spill to ``spill_dir`` (required with a
        budget) and reload transparently on touch -- see
        :class:`~repro.streaming.state.KeyedStateStore`.
        """
        consumer = StateConsumer(
            self,
            WindowSpec(length, slide, origin),
            lateness=lateness,
            universe=universe,
            grid=grid,
            memory_budget_bytes=memory_budget_bytes,
            spill_dir=spill_dir,
        )
        self._ssc._register_window(consumer)
        return ContinuousWindowedStream(self._ssc, consumer)

    def patterns(
        self,
        *rules,
        lateness: float = 0.0,
        universe: "Envelope | None" = None,
        grid: int = 8,
        memory_budget_bytes: int | None = None,
        spill_dir: str | None = None,
        max_partials: int = 256,
    ):
        """Complex event processing: declarative rules over this stream.

        Registers the given :mod:`repro.streaming.cep` rules (built
        with :func:`~repro.streaming.cep.rules.sequence` /
        :func:`~repro.streaming.cep.rules.absence` /
        :func:`~repro.streaming.cep.rules.count` /
        :func:`~repro.streaming.cep.rules.aggregate`) against this
        stream and returns a :class:`~repro.streaming.cep.consumer.
        PatternStream` exposing the matches -- in-memory via
        ``.matches()``, callbacks via ``.for_each_match()``, durable
        per-match sinks via ``.deliver_to()``.

        Event payloads are held in the same grid-keyed state store as
        :meth:`continuous` (``universe``/``grid`` fix the grid;
        ``memory_budget_bytes``/``spill_dir`` enable
        cold-cell spill), matcher state checkpoints with the stream,
        and ``lateness`` is the event-time slack before the watermark
        -- events later than that are dropped and counted.
        ``max_partials`` bounds live partial sequence matches per
        group.
        """
        from repro.streaming.cep.consumer import CepConsumer, PatternStream

        consumer = CepConsumer(
            self,
            rules,
            lateness=lateness,
            universe=universe,
            grid=grid,
            memory_budget_bytes=memory_budget_bytes,
            spill_dir=spill_dir,
            max_partials=max_partials,
        )
        self._ssc._register_window(consumer)
        return PatternStream(consumer)

    # camelCase aliases matching the paper's Scala API
    containedBy = contained_by
    withinDistance = within_distance
    joinStatic = join_static
    withinDistanceStatic = within_distance_static


class WindowedStream:
    """Outputs over closed event-time windows.

    Each method registers one output that runs when a window closes;
    the operator methods return a :class:`Sink` that accumulates
    ``(window, result)`` pairs.  Windows with no records are never
    emitted (window state is allocated by arriving records).
    """

    def __init__(self, ssc, consumer: StateConsumer) -> None:
        self._ssc = ssc
        self._consumer = consumer

    @property
    def spec(self) -> WindowSpec:
        """The window shape this stream groups by."""
        return self._consumer.spec

    def for_each_window(self, fn: Callable[[Window, RDD], None]) -> None:
        """Run ``fn(window, rdd)`` for every closed window."""
        self._consumer.outputs.append(fn)

    def apply(self, fn: Callable[[Window, RDD], Any]) -> Sink:
        """Collect ``fn(window, rdd)`` for every closed window into a sink."""
        sink = Sink()
        self.for_each_window(lambda window, rdd: sink.append(window, fn(window, rdd)))
        return sink

    def bridge_to(self, target) -> "SpatialDStream":
        """Feed each closed window's records into another context.

        Registers a ``for_each_window`` output that pushes every closed
        window's records (one window = one batch) into a fresh
        :class:`~repro.streaming.sources.QueueSource` on *target*, and
        returns the downstream stream reading from it -- the chaining
        primitive for staged pipelines, where a first context's window
        results become a second context's input.  The caller drives
        *target* itself (its own ``run_batch``/``start`` cadence); the
        bridge only enqueues.
        """
        source, stream = target.queue_stream()
        self.for_each_window(lambda _window, rdd: source.push(rdd.collect()))
        return stream

    def collect_windows(self) -> Sink:
        """Collect each closed window's records: ``(window, records)``."""
        return self.apply(lambda _window, rdd: rdd.collect())

    def count_windows(self) -> Sink:
        """Collect each closed window's record count."""
        return self.apply(lambda _window, rdd: rdd.count())


class SpatialWindowedStream(WindowedStream):
    """Windowed spatio-temporal operators (kNN, DBSCAN hotspots).

    Every operator runs the *batch* implementation from
    :mod:`repro.core` over the closed window's records, so a window's
    result is identical to a batch job over the same data -- the
    correctness contract the streaming tests pin down.
    """

    def knn(
        self,
        query: "STObject | str",
        k: int,
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> Sink:
        """Per closed window: the k records nearest *query*.

        Sink values are ascending ``[(distance, (STObject, value))]``
        lists -- :func:`repro.core.knn.knn` run over the window.
        """
        query_obj = query if isinstance(query, STObject) else STObject(query)
        return self.apply(
            lambda _window, rdd: knn_ops.knn(rdd, query_obj, k, distance_fn)
        )

    def cluster(self, eps: float, min_pts: int) -> Sink:
        """Per closed window: DBSCAN labels for every window record.

        Sink values are ``[(STObject, (value, label))]`` lists (noise
        is labelled ``-1``), from :func:`repro.core.clustering.
        mr_dbscan.dbscan` over the window.
        """
        return self.apply(
            lambda _window, rdd: dbscan(rdd, eps, min_pts).collect()
        )

    def hotspots(self, eps: float, min_pts: int, min_size: int = 1) -> Sink:
        """Per closed window: the emerging event hotspots.

        Runs windowed DBSCAN and summarizes each non-noise cluster with
        at least *min_size* members as ``(label, size, centroid)``,
        sorted by descending size then label -- the streaming analogue
        of the paper's event-cluster analysis.
        """

        def summarize(_window: Window, rdd: RDD) -> list[tuple[int, int, tuple[float, float]]]:
            labelled = dbscan(rdd, eps, min_pts).collect()
            clusters: dict[int, list[STObject]] = {}
            for st, (_value, label) in labelled:
                if label >= 0:
                    clusters.setdefault(label, []).append(st)
            out = []
            for label, members in clusters.items():
                if len(members) < min_size:
                    continue
                cx = sum(m.geo.centroid().x for m in members) / len(members)
                cy = sum(m.geo.centroid().y for m in members) / len(members)
                out.append((label, len(members), (cx, cy)))
            out.sort(key=lambda row: (-row[1], row[0]))
            return out

        return self.apply(summarize)

    kNN = knn


class ContinuousWindowedStream:
    """Standing queries over the keyed state store (see
    :meth:`SpatialDStream.continuous`).

    Each method registers one :class:`~repro.streaming.state.
    ContinuousQuery` and returns its :class:`Sink` of ``(window,
    result)`` pairs.  Every result is pinned equal to running the
    corresponding batch operator over exactly that window's records --
    the contract the streaming state tests assert -- while the engine
    only ever touches records entering or leaving the window set.
    """

    def __init__(self, ssc, consumer) -> None:
        self._ssc = ssc
        self._consumer = consumer

    @property
    def spec(self) -> WindowSpec:
        """The window shape this stream groups by."""
        return self._consumer.spec

    @property
    def consumer(self):
        """The underlying :class:`~repro.streaming.state.StateConsumer`
        (store access for tests, metrics and dashboards)."""
        return self._consumer

    def range(self, query: "STObject | str", predicate: "str | STPredicate" = INTERSECTS) -> Sink:
        """Continuous range/predicate query (default: paper eq. (1)).

        Per closed window: the window's records matching *predicate*
        against *query*, answered by :meth:`~repro.streaming.state.
        KeyedStateStore.query_range` (one scan of each cell the extents
        cannot prune) -- equal to :func:`repro.core.filter.
        filter_no_index` over the window under the static-side temporal
        relaxation.
        """
        query_obj = query if isinstance(query, STObject) else STObject(query)
        pred = resolve_predicate(predicate)
        return self._consumer.add_query(
            ContinuousQuery(lambda store, window: store.query_range(query_obj, pred, window))
        ).sink

    def knn(
        self,
        query: "STObject | str",
        k: int,
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> Sink:
        """Continuous k-nearest-neighbours of *query*.

        Per closed window: ascending ``[(distance, (STObject, value))]``
        equal to :func:`repro.core.knn.knn` over the window, answered
        from a per-query heap fed cells in ascending bound order.
        """
        query_obj = query if isinstance(query, STObject) else STObject(query)
        return self._consumer.add_query(
            ContinuousQuery(
                lambda store, window: store.query_knn(query_obj, k, window, distance_fn)
            )
        ).sink

    def intersects_static(
        self,
        reference: "RDD | list[Record]",
        predicate: "str | STPredicate" = INTERSECTS,
        order: int = 10,
    ) -> Sink:
        """Continuous stream-static join against a fixed reference set.

        Each record is probed against the reference R-tree exactly once
        at ingest; per closed window the cached matches of the window's
        records are emitted -- ``((stream_st, stream_v), (ref_st,
        ref_v))`` pairs, equal to :func:`~repro.streaming.operators.
        stream_static_join` over the window's records.
        """
        rows = reference.collect() if isinstance(reference, RDD) else list(reference)
        return self._consumer.add_query(
            ContinuousJoinStatic(rows, predicate, order)
        ).sink

    intersectsStatic = intersects_static

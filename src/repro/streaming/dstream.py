"""Discretized streams: per-batch transformation chains and windows.

A :class:`SpatialDStream` is a lazy description of what to do with
every micro-batch of ``(STObject, value)`` records: a chain of RDD
transformations rooted at an input stream.  Nothing runs at definition
time -- the context's batch core (:mod:`repro.streaming.batch`) walks
the registered *outputs* once per batch, building each batch's RDD
through the chain and running the output action, exactly like Spark
Streaming's ``foreachRDD`` model.  Per-batch predicate filters reuse
:mod:`repro.core.filter` and the stream-static joins reuse
:mod:`repro.streaming.operators`.

:meth:`SpatialDStream.window` and :meth:`SpatialDStream.continuous`
move from per-batch to per-event-time-window processing.  They are one
call: a :class:`WindowedStream` over one :class:`~repro.streaming.state.
StateConsumer`, whose range, kNN and stream-static join answer each
pane of the store once and each closed window by combining its panes'
answers, and whose DBSCAN and window outputs run over the window's
records.
"""

from __future__ import annotations

import heapq
import threading
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.core import filter as filter_ops
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
from repro.geometry.distance import DistanceFunction, euclidean, resolve
from repro.spark.rdd import RDD
from repro.geometry.envelope import Envelope
from repro.streaming.operators import (
    broadcast_static_index,
    build_static_index,
    probe_static,
    relax_static,
    stream_static_join,
)
from repro.streaming.state import StateConsumer
from repro.streaming.window import Window, WindowSpec

Record = tuple[STObject, Any]

#: The order panes' partials merge in: record id, or (distance, record id).
_RID = itemgetter(0)
_RANK = itemgetter(0, 1)


def _merged_hits(partials: list[list]) -> list:
    """A window's hits from its panes' ``(rid, hit)`` lists, by record
    id: panes whose ids do not interleave (an in-order stream's) are
    concatenated, the others merged."""
    parts = [part for part in partials if part]
    if all(a[-1][0] < b[0][0] for a, b in zip(parts, parts[1:])):
        return [hit for part in parts for _rid, hit in part]
    return [hit for _rid, hit in heapq.merge(*parts, key=_RID)]


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


class SpatialDStream:
    """A lazy per-batch chain over ``(STObject, value)`` records with the
    STARK operators (see module docstring).

    Instances are immutable descriptions; every transformation returns
    a new node pointing back at its parent.  Per-batch filters mirror
    :class:`~repro.core.spatial_rdd.SpatialRDDFunctions`; the
    ``*_static`` joins match every incoming event against a broadcast
    R-tree over a fixed reference dataset.  Both camelCase
    (paper-faithful) and snake_case spellings exist.

    All predicates carry the static-side temporal relaxation
    (:func:`~repro.streaming.operators.relax_static`): an untimed query
    or reference object matches timed events on the spatial component
    alone, while two timed sides keep the paper's combined semantics.
    """

    def __init__(
        self,
        ssc,
        parent: "SpatialDStream | None" = None,
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

    def _derive(self, transform_fn: Callable[[RDD], RDD], name: str) -> "SpatialDStream":
        return SpatialDStream(self._ssc, self, transform_fn, name=name)

    # -- transformations ---------------------------------------------------

    def map(self, fn: Callable) -> "SpatialDStream":
        """Apply *fn* to every record of every batch."""
        return self._derive(lambda rdd: rdd.map(fn), f"{self.name}.map")

    def filter(self, pred: Callable) -> "SpatialDStream":
        """Keep the records of every batch that satisfy *pred*."""
        return self._derive(lambda rdd: rdd.filter(pred), f"{self.name}.filter")

    def flat_map(self, fn: Callable) -> "SpatialDStream":
        """Map each record to zero or more records."""
        return self._derive(lambda rdd: rdd.flat_map(fn), f"{self.name}.flat_map")

    def map_partitions(self, fn: Callable[[Iterator], Iterable]) -> "SpatialDStream":
        """Apply a per-partition transformation to every batch."""
        return self._derive(lambda rdd: rdd.map_partitions(fn), f"{self.name}.map_partitions")

    def transform(self, fn: Callable[[RDD], RDD]) -> "SpatialDStream":
        """Apply an arbitrary RDD-to-RDD function to every batch.

        The escape hatch into the full batch API: anything expressible
        over an RDD -- joins, repartitioning, the spatial operators --
        becomes a streaming transformation.
        """
        return self._derive(fn, f"{self.name}.transform")

    # -- outputs -----------------------------------------------------------

    def for_each_rdd(self, fn: Callable[[int, RDD], None]) -> None:
        """Run ``fn(batch_id, rdd)`` on every batch (the terminal output).

        Registering an output is what makes a chain *run*; a stream
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"

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

        The records live once each in a :class:`~repro.streaming.state.
        KeyedStateStore` however many sliding windows they span, and the
        standing queries registered on the returned stream evaluate each
        pane once and combine a closing window's panes.
        """
        return self.continuous(length, slide, lateness, origin)

    def continuous(
        self,
        length: float,
        slide: float | None = None,
        lateness: float = 0.0,
        origin: float = 0.0,
        universe: "Envelope | None" = None,
    ) -> "WindowedStream":
        """:meth:`window`, naming the universe the store's checkpoint
        records.

        ``universe`` changes no result; without it the checkpoint
        records the first non-empty batch's bounding box.
        """
        consumer = StateConsumer(self, WindowSpec(length, slide, origin), lateness, universe)
        self._ssc._register_window(consumer)
        return WindowedStream(consumer)

    def patterns(
        self,
        *rules,
        lateness: float = 0.0,
        universe: "Envelope | None" = None,
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

        Event payloads are held in the same keyed state store as
        :meth:`window` (``universe`` as in :meth:`continuous`), matcher
        state checkpoints with the stream, and ``lateness`` is the
        event-time slack before the watermark -- events later than that
        are dropped and counted.
        """
        from repro.streaming.cep.consumer import CepConsumer, PatternStream

        consumer = CepConsumer(
            self,
            rules,
            lateness=lateness,
            universe=universe,
        )
        self._ssc._register_window(consumer)
        return PatternStream(consumer)

    # camelCase aliases matching the paper's Scala API
    containedBy = contained_by
    withinDistance = within_distance
    joinStatic = join_static
    withinDistanceStatic = within_distance_static


class WindowedStream:
    """Outputs and standing queries over closed event-time windows.

    Returned by :meth:`SpatialDStream.window` and
    :meth:`SpatialDStream.continuous`; every method registers one
    output or one standing query (a per-pane partial and a per-window
    combine) on the stream's :class:`~repro.streaming.state.
    StateConsumer` and runs when a window closes.  The operator methods
    return a :class:`Sink` accumulating ``(window, result)`` pairs, and
    every result equals the corresponding batch operator over exactly
    that window's records -- the contract the streaming tests pin down.
    Arguments are checked here, at registration.  Windows with no
    records are never emitted (window state is allocated by arriving
    records).
    """

    def __init__(self, consumer: StateConsumer) -> None:
        self._consumer = consumer

    @property
    def spec(self) -> WindowSpec:
        """The window shape this stream groups by."""
        return self._consumer.spec

    @property
    def consumer(self) -> StateConsumer:
        """The underlying :class:`~repro.streaming.state.StateConsumer`
        (store access for tests, metrics and dashboards)."""
        return self._consumer

    # -- window outputs ----------------------------------------------------

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

    # -- standing queries over the store -----------------------------------

    def range(self, query: "STObject | str", predicate: "str | STPredicate" = INTERSECTS) -> Sink:
        """Per closed window: its records matching *predicate* against
        *query* (default: paper eq. (1)), in arrival order.

        Each pane is answered once by :meth:`~repro.streaming.state.
        KeyedStateStore.query_range` over its rows, and a window merges
        its panes' hits by record id -- equal to :func:`repro.core.
        filter.filter_no_index` over the window under the static-side
        temporal relaxation.
        """
        query_obj = query if isinstance(query, STObject) else STObject(query)
        pred = resolve_predicate(predicate)
        return self._consumer.add_query(
            lambda store, rows: store.query_range(query_obj, pred, rows), _merged_hits
        )

    def knn(
        self,
        query: "STObject | str",
        k: int,
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> Sink:
        """Per closed window: the k records nearest *query*.

        Sink values are ascending ``[(distance, (STObject, value))]``
        lists equal to :func:`repro.core.knn.knn` over the window, equal
        distances in arrival order.  Each pane's k best come from one
        :meth:`~repro.streaming.state.KeyedStateStore.query_knn` call
        over its rows, and a window keeps the k smallest of its panes'
        by (distance, record id).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        fn = resolve(distance_fn)
        query_obj = query if isinstance(query, STObject) else STObject(query)

        def combine(partials: list[list]) -> list[tuple[float, Record]]:
            best = partials[0] if len(partials) == 1 else heapq.merge(*partials, key=_RANK)
            return [(d, record) for d, _rid, record in islice(best, k)]

        return self._consumer.add_query(
            lambda store, rows: store.query_knn(query_obj, k, rows, fn), combine
        )

    def intersects_static(
        self,
        reference: "RDD | list[Record]",
        predicate: "str | STPredicate" = INTERSECTS,
        order: int = 10,
    ) -> Sink:
        """Per closed window: the stream-static join of its records
        against a fixed reference set, in arrival order.

        The reference is R-tree-indexed once, here; each pane record
        probes the tree once through :func:`~repro.streaming.operators.
        probe_static`, the rule :meth:`SpatialDStream.join_static`
        applies per batch, and a window merges its panes' pairs by
        record id -- so the ``((stream_st, stream_v), (ref_st, ref_v))``
        pairs equal :func:`~repro.streaming.operators.stream_static_join`
        over the window's records.
        """
        tree = build_static_index(reference, order)
        pred = relax_static(resolve_predicate(predicate))

        def partial(_store, rows: list) -> list:
            return [
                (rid, ((st, value), ref))
                for rid, (st, value, _t_start, _t_end) in rows
                for ref in probe_static(tree, pred, st)
            ]

        return self._consumer.add_query(partial, _merged_hits)

    # -- DBSCAN over the window's records ----------------------------------

    def _clustered(self, eps: float, min_pts: int, summarize: Callable[[list], Any]) -> Sink:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        return self.apply(lambda _window, rdd: summarize(dbscan(rdd, eps, min_pts).collect()))

    def cluster(self, eps: float, min_pts: int) -> Sink:
        """Per closed window: DBSCAN labels for every window record.

        Sink values are ``[(STObject, (value, label))]`` lists (noise
        is labelled ``-1``), from :func:`repro.core.clustering.
        mr_dbscan.dbscan` over the window.
        """
        return self._clustered(eps, min_pts, lambda labelled: labelled)

    def hotspots(self, eps: float, min_pts: int, min_size: int = 1) -> Sink:
        """Per closed window: the emerging event hotspots.

        Runs windowed DBSCAN and summarizes each non-noise cluster with
        at least *min_size* members as ``(label, size, centroid)``,
        sorted by descending size then label -- the streaming analogue
        of the paper's event-cluster analysis.
        """

        def summarize(labelled: list) -> list[tuple[int, int, tuple[float, float]]]:
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

        return self._clustered(eps, min_pts, summarize)

    kNN = knn
    intersectsStatic = intersects_static

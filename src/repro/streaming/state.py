"""Keyed streaming state: one copy of each live record, by record id.

The GeoFlink observation (PAPERS.md): recomputing every sliding window
from scratch wastes exactly the work the windows share.  With windows of
length ``L`` sliding by ``S``, each record participates in ``L / S``
windows, and the batch path pays for it that many times -- one RDD
build, one scan, one index pass per window.  This module keeps the
*stream itself* instead: a sliding-window advance touches only the
records entering (one insert each) and leaving (one evict each) --
every record is stored exactly once no matter how many windows it spans.

The store is one dict from record id to row.  It holds no grid and no
tree: every standing query evaluates one pane's rows, looked up by id,
once (see below), so a record costs one test however many windows it
spans, and nothing reads the store as a whole.

Three layers live here:

- :class:`KeyedStateStore` -- the keyed store: insert/remove/lookup by
  record id, and the two query algorithms over a pane's rows -- range
  by one envelope test and one exact predicate per row, kNN with a
  best-k heap;
- :class:`KeyedWindowState` -- the one event-time windowing contract
  (watermark, lateness, closed horizon, late counters) over the store:
  each record is listed once, in its pane (the records sharing its
  open windows), and leaves with the pane when its last window closes;
- :class:`StoreBackedConsumer` -- the bridge to the streaming context
  that ``window()``/``continuous()`` (a :class:`StateConsumer`) and
  ``patterns()`` share: one store, one absorbed-batch mark, one
  ``state.update`` chaos site.

A standing query is a per-pane *partial* plus a *combine* step
(:meth:`StateConsumer.add_query`; "No pane, no gain", Li et al.): a
window's answer is combined from the partials of the panes covering
it, and each pane is evaluated once, when the first window covering it
fires, however many windows it sits in.  Range and kNN partials are one
:meth:`KeyedStateStore.query_range` / :meth:`KeyedStateStore.query_knn`
call over the pane's rows, the stream-static join's one reference probe
per pane record.  Each pins its result to the batch operators: a fired
window's answer is equal to running the corresponding :mod:`repro.core`
operator over exactly that window's records, which is the property the
streaming state tests assert record for record.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.knn import query_radius
from repro.core.predicates import STPredicate, resolve_predicate
from repro.core.stobject import STObject
from repro.geometry.distance import DistanceFunction, euclidean, resolve
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.streaming.operators import relax_static
from repro.streaming.window import Window, WindowSpec, event_span

if TYPE_CHECKING:
    from repro.streaming.dstream import Sink

Record = tuple[STObject, Any]
#: A store row: ``(rid, (st, value, t_start, t_end))``.
Row = tuple[int, tuple[STObject, Any, float, float]]
#: A pane's identity: ``(first open window, last window)``.
PaneKey = tuple[Window, Window]
#: A standing query over one pane: ``partial(store, rows) -> partial``.
Partial = Callable[["KeyedStateStore", list[Row]], list]

_INF = float("inf")


class KeyedStateStore:
    """The live records of one consumer: rid -> ``(st, value, t_start, t_end)``.

    ``universe`` serves the checkpoint alone: the snapshot carries it
    under ``"universe"`` so the layout older builds read and write stays
    as it was.  Without one, the first non-empty :meth:`cover` call
    fixes it to that batch's bounding box.
    """

    def __init__(self, universe: Envelope | None) -> None:
        if universe is not None and universe.is_empty:
            raise ValueError("state store universe must be non-empty")
        self._universe = None if universe is None else _bounds(universe)
        self._rows: dict[int, tuple[STObject, Any, float, float]] = {}
        self.inserts = 0
        self.removes = 0

    def cover(self, records: Sequence[Record]) -> None:
        """Fix the universe from *records* when none was given: the
        first non-empty batch's bounding box.  A no-op once fixed, so
        consumers call it before every batch they stage."""
        if self._universe is None and records:
            universe = Envelope.empty()
            for st, _value in records:
                universe = universe.merge(st.geo.envelope)
            self._universe = _bounds(universe)

    @property
    def size(self) -> int:
        """Live records currently held."""
        return len(self._rows)

    @property
    def cell_rebuilds(self) -> int:
        """Always 0: the store holds no index to rebuild.

        Kept only because ``bench/streams.py`` (lines 142, 227, 243)
        still reads it for the ``streaming.state.cell_rebuilds`` metric;
        the reader, the metric and this property go together.
        """
        return 0

    def insert(self, rid: int, st: STObject, value: Any, t_start: float, t_end: float) -> None:
        """Hold one record under *rid*."""
        self._rows[rid] = (st, value, t_start, t_end)
        self.inserts += 1

    def remove(self, *rids: int) -> None:
        """Evict records by id (unknown ids are skipped)."""
        rows = self._rows
        before = len(rows)
        for rid in rids:
            rows.pop(rid, None)
        self.removes += before - len(rows)

    def get(self, rid: int) -> tuple[STObject, Any, float, float] | None:
        """Look up one live record: ``(st, value, t_start, t_end)``.

        Returns None for unknown (or already evicted) ids.
        """
        return self._rows.get(rid)

    def rows(self, rids: Iterable[int]) -> list[Row]:
        """The live rows of *rids*, in the given order."""
        rows = self._rows
        return [(rid, rows[rid]) for rid in rids]

    def snapshot(self) -> dict:
        """Picklable store state for checkpoints: the universe and every
        live ``(rid, st, value, t_start, t_end)`` row, sorted by rid."""
        records = [(rid, *row) for rid, row in sorted(self._rows.items())]
        return {"universe": self._universe, "records": records}

    def restore(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot` (recovery).

        The universe is carried through verbatim, for the next
        snapshot.  Keys other than ``universe`` and ``records`` are
        ignored: the spill counters older builds wrote
        (``cells_spilled``, ``cells_loaded``, ``spill_failures``) have
        no state to restore.
        """
        self._universe = snapshot["universe"]
        self._rows = {
            rid: (st, value, t_start, t_end)
            for rid, st, value, t_start, t_end in snapshot["records"]
        }
        self.inserts = len(self._rows)
        self.removes = 0

    # -- queries over a pane's rows ----------------------------------------

    def query_range(
        self, query: STObject, predicate: STPredicate, rows: Sequence[Row]
    ) -> list[tuple[int, Record]]:
        """``(rid, record)`` of each of *rows* matching *predicate*
        against *query*, in row order (a pane's are ascending by rid:
        :meth:`rows`).

        Each row's envelope is tested against the predicate's candidate
        region, inline, then the exact predicate: equal to the batch
        filter over the same records under the static-side relaxation.
        """
        predicate = relax_static(resolve_predicate(predicate))
        region = predicate.candidate_region(query.geo.envelope)
        min_x, min_y, max_x, max_y = region.min_x, region.min_y, region.max_x, region.max_y
        evaluate = predicate.evaluate
        out = []
        for rid, (st, value, _t_start, _t_end) in rows:
            env = st.geo.envelope
            if (
                env.min_x <= max_x
                and min_x <= env.max_x
                and env.min_y <= max_y
                and min_y <= env.max_y
                and evaluate(st, query)
            ):
                out.append((rid, (st, value)))
        return out

    def query_knn(
        self,
        query: STObject,
        k: int,
        rows: Sequence[Row],
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> list[tuple[float, int, Record]]:
        """The *k* of *rows* nearest *query*: ``(distance, rid,
        record)``, ascending by distance and equal distances by rid
        (arrival order), so the answer is the batch operator's over the
        same records in arrival order.

        A point's distance to a point query is computed inline, as
        :func:`repro.core.knn.exact_distance_to` does (the same float),
        any other's after its envelope bound (the query centroid's
        distance to the row's envelope, slackened by the query radius
        exactly like :func:`repro.core.knn.knn`).  Non-Euclidean metrics
        make envelope bounds inadmissible, so every row is measured.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        fn = resolve(distance_fn)
        geom = query.geo
        centroid = geom.centroid()
        cx, cy = centroid.x, centroid.y
        slack = query_radius(geom)
        prune = fn is euclidean
        inline = prune and type(geom) is Point
        #: A max-heap of the k best (negated distance, negated rid,
        #: record): its top is the worst kept, the latest arrival among
        #: equal distances, so a tie offered later still wins by arrival.
        best: list[tuple[float, int, Record]] = []
        worst = _INF  # the k-th distance so far
        for rid, (st, value, _t_start, _t_end) in rows:
            geo = st.geo
            if inline and type(geo) is Point:
                d = math.hypot(geo.x - cx, geo.y - cy)
            elif prune and geo.envelope.distance_to_point(cx, cy) - slack > worst:
                continue  # envelope bound already beaten
            else:
                d = fn(geo, geom)
            if d > worst:
                continue
            if len(best) < k:
                heapq.heappush(best, (-d, -rid, (st, value)))
                if len(best) == k:
                    worst = -best[0][0]
            elif d < worst or (d == worst and rid < -best[0][1]):
                heapq.heapreplace(best, (-d, -rid, (st, value)))
                worst = -best[0][0]
        return [(-nd, -nrid, record) for nd, nrid, record in sorted(best, reverse=True)]


def _bounds(envelope: Envelope) -> tuple[float, float, float, float]:
    """An envelope as the snapshot writes it."""
    return (envelope.min_x, envelope.min_y, envelope.max_x, envelope.max_y)


class KeyedWindowState:
    """Event-time windowing over a :class:`KeyedStateStore`, in panes.

    A record belongs to every window its span intersects
    (:meth:`WindowSpec.assign` alone decides).  The watermark is ``max
    event end seen - lateness``; a window is ready once it passes the
    window's end, and windows close in ascending order.  Each record is
    inserted into the store once and listed once, in its **pane**: the
    records whose open windows are the same run, keyed by ``(first open
    window, last window)``, in arrival order.  A window's records are
    the merge of the panes covering it; a pane leaves whole once its
    last window closes.

    ``assign`` can leave an instant in a one-ulp gap between two
    tumbling windows and then names the nearest one; such a record is
    stored with its span moved inside that window, so every stored span
    meets each window its record is listed in.
    ``late_dropped`` counts records whose every window had fired,
    ``late_window_drops`` each fired window a partially-late record
    missed (it still lands in its open ones).  ``add_batch`` stages all
    assignment (the part that can raise) before any mutation, so a
    failed batch leaves nothing behind and its retry cannot
    double-insert.
    """

    def __init__(self, spec: WindowSpec, store: KeyedStateStore, lateness: float = 0.0) -> None:
        if lateness < 0:
            raise ValueError(f"lateness must be >= 0, got {lateness}")
        self.spec = spec
        self.store = store
        self.lateness = lateness
        self.watermark = -_INF
        self._closed_horizon = -_INF
        #: (first open window, last window) -> its records' ids, in arrival order.
        self._panes: dict[PaneKey, list[int]] = {}
        #: Windows with records that have not closed.
        self._open: set[Window] = set()
        # A plain int rather than itertools.count: the counter is part
        # of checkpointed state and must be snapshot/restorable.
        self._next_rid = 0
        #: Records whose every window had already fired on arrival.
        self.late_dropped = 0
        #: Per-window contributions lost to already-fired windows.
        self.late_window_drops = 0

    def _pane(self, live: list[Window]) -> list[int]:
        """The id list of the pane open in *live*, made (and opened) on first use."""
        key = (live[0], live[-1])
        rids = self._panes.get(key)
        if rids is None:
            rids = self._panes[key] = []
            self._open.update(live)
        return rids

    def add_batch(self, records: list[Record], batch_time: float) -> None:
        """Insert *records* into the store, each listed in its pane, and
        advance the watermark; records too late for every window are
        counted, not inserted."""
        max_end = self.watermark + self.lateness
        staged: list[tuple[STObject, Any, float, float, list[Window]]] = []
        late_records = late_windows = missed = 0
        pane = self.spec.pane
        horizon = self._closed_horizon
        windows = live = None
        for st, value in records:
            t_start, t_end = event_span(st, batch_time)
            if t_end > max_end:
                max_end = t_end
            assigned = pane(t_start, t_end)
            if assigned is not windows:
                # A new pane, an interval or assign's nearest-window
                # fallback (see the class docstring): re-derive.
                windows = assigned
                only = windows[0]
                if not (t_start < only.end and t_end >= only.start):
                    t_start = t_end = min(max(t_start, only.start), math.nextafter(only.end, -_INF))
                live = [w for w in windows if w.end > horizon]
                missed = len(windows) - len(live)
            late_windows += missed
            if not live:
                late_records += 1
                continue
            staged.append((st, value, t_start, t_end, live))
        insert = self.store.insert
        listed = rids = None
        for st, value, t_start, t_end, live in staged:
            rid = self._next_rid
            self._next_rid = rid + 1
            insert(rid, st, value, t_start, t_end)
            if live is not listed:
                listed, rids = live, self._pane(live)
            rids.append(rid)
        self.late_dropped += late_records
        self.late_window_drops += late_windows
        self.watermark = max(self.watermark, max_end - self.lateness)

    def ready_windows(self) -> list[Window]:
        """Windows the watermark has passed, ascending (not yet closed --
        their records stay queryable until :meth:`close_window`)."""
        return sorted(w for w in self._open if w.end <= self.watermark)

    def panes_of(self, window: Window) -> list[tuple[PaneKey, list[int]]]:
        """``(key, rids)`` of each pane covering an open *window*: the
        window's records are their merge by rid.

        A pane is sealed once its first window has closed: a record
        arriving later has a later first open window, so it is listed
        in another pane.
        """
        if window not in self._open:
            return []
        return [(key, rids) for key, rids in self._panes.items() if key[0] <= window <= key[1]]

    def window_records(self, window: Window) -> list[Record]:
        """An open window's ``(STObject, value)`` records, in arrival
        order -- what the window outputs are handed."""
        lists = [rids for _key, rids in self.panes_of(window)]
        rids = lists[0] if len(lists) == 1 else heapq.merge(*lists)
        return [row[:2] for row in map(self.store.get, rids)]

    def close_window(self, window: Window) -> list[PaneKey]:
        """Mark *window* fired: advance the closed horizon and evict every
        pane whose last window has now closed.  Returns their keys."""
        self._open.discard(window)
        if window.end > self._closed_horizon:
            self._closed_horizon = window.end
        closed = [key for key in self._panes if key[1].end <= self._closed_horizon]
        for key in closed:
            self.store.remove(*self._panes.pop(key))
        return closed

    @property
    def open_windows(self) -> int:
        """How many windows currently have live records."""
        return len(self._open)

    def snapshot(self) -> dict:
        """Picklable windowing state, the store's snapshot included.

        Panes are not stored: :meth:`restore` re-derives them from the
        store's rows through the spec the live pipeline declares.
        """
        return {
            "watermark": self.watermark,
            "closed_horizon": self._closed_horizon,
            "late_dropped": self.late_dropped,
            "late_window_drops": self.late_window_drops,
            "next_rid": self._next_rid,
            "store": self.store.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot` (recovery).

        A live record's open windows are those of its span that end
        after the closed horizon (every window the horizon passed is
        closed), and the store's rows come in id, i.e. arrival, order.
        """
        self.watermark = snapshot["watermark"]
        self._closed_horizon = horizon = snapshot["closed_horizon"]
        self.late_dropped = snapshot["late_dropped"]
        self.late_window_drops = snapshot["late_window_drops"]
        self._next_rid = snapshot["next_rid"]
        self.store.restore(snapshot["store"])
        self._panes = {}
        self._open = set()
        windows = None
        for rid, _st, _value, t_start, t_end in snapshot["store"]["records"]:
            assigned = self.spec.pane(t_start, t_end)
            if assigned is not windows:
                windows = assigned
                rids = self._pane([w for w in windows if w.end > horizon])
            rids.append(rid)


class StoreBackedConsumer:
    """What ``window()``, ``continuous()`` and ``patterns()`` consume through.

    The part of the consumer protocol that does not depend on what is
    computed over the records: one :class:`KeyedStateStore`, the
    absorbed-batch mark that makes
    :meth:`absorb` idempotent per batch id (the retry contract), the
    ``state.update`` chaos site, the window outputs the context wires
    its sink protections into, and the registration index.  Subclasses
    supply ``absorb`` / ``fire`` / ``flush`` / ``snapshot_state`` /
    ``stage_state`` / ``install_state`` and the ``late_dropped`` /
    ``late_window_drops`` counters the context mirrors into its metrics.
    A restore is two phases: recovery stages every consumer's part of a
    snapshot, which checks and decodes it and refuses it with a
    ``ValueError`` without side effects, before it installs any.
    """

    def __init__(self, node, universe: Envelope | None) -> None:
        self.node = node
        #: The keyed store.
        self.store = KeyedStateStore(universe)
        #: ``output(window, rdd)`` callables run per emitted window.
        self.outputs: list[Callable[[Window, Any], None]] = []
        self._absorbed_batch: int | None = None
        #: Registration order in the context; the consumer's stable
        #: identity in checkpoints and the emitted-window ledger (object
        #: ids do not survive a restart, registration order does because
        #: recovery requires the pipeline to be re-declared identically).
        self.checkpoint_index: int = -1

    def _injector(self):
        """The context's live fault injector (the ``state.update`` site's)."""
        return self.node._ssc.spark_context.fault_injector

    def _begin(self, batch_id: int, records: list[Record]) -> bool:
        """Open one batch's absorption; False when it already landed.

        The ``state.update`` chaos site fires here, *before* any
        mutation, so an injected fault retries cleanly.  The subclass
        sets ``_absorbed_batch`` itself, and only after every mutation
        succeeded -- marking first would make a fault mid-absorption
        silently drop the batch on retry (the retry would see the mark
        and skip re-absorbing records that never landed).
        """
        if self._absorbed_batch == batch_id:
            return False
        injector = self._injector()
        if injector is not None:
            injector.check("state.update", key=batch_id)
        self.store.cover(records)
        return True

    def restore_state(self, snapshot: dict) -> None:
        """Reset to a ``snapshot_state``: stage it, then install it."""
        self.install_state(self.stage_state(snapshot))


class StateConsumer(StoreBackedConsumer):
    """The event-time window consumer behind ``window()`` and ``continuous()``.

    Bridges one stream node to a :class:`KeyedWindowState`: per batch
    the streaming context collects the chain's records (an input
    node's are the batch's own rows, read without a job) and calls
    :meth:`absorb`, and :meth:`fire` emits every ready window -- each
    registered standing query combines its partials of the panes
    covering the window into its sink, the window outputs receive the
    window's records as an RDD -- before the window's leavers are
    evicted.
    """

    def __init__(
        self,
        node,
        spec: WindowSpec,
        lateness: float = 0.0,
        universe: Envelope | None = None,
    ) -> None:
        super().__init__(node, universe)
        self.spec = spec
        self.state = KeyedWindowState(spec, self.store, lateness)
        #: ``(partial, combine, sink)`` per standing query, in registration order.
        self.queries: list[tuple[Partial, Callable[[list[list]], Any], Sink]] = []
        #: Pane key -> (its row count when evaluated, one partial per
        #: query).  Dropped with the pane, never checkpointed.
        self._partials: dict[PaneKey, tuple[int, list[list]]] = {}

    @property
    def late_dropped(self) -> int:
        """Records whose every window had already fired on arrival."""
        return self.state.late_dropped

    @property
    def late_window_drops(self) -> int:
        """Per-window contributions lost to already-fired windows."""
        return self.state.late_window_drops

    def add_query(
        self,
        partial: Partial,
        combine: Callable[[list[list]], Any],
    ) -> Sink:
        """Register one standing query; returns the sink that collects
        its ``(window, combine(partials))`` pairs.

        ``partial(store, rows)`` answers the query over one pane's
        rows (:meth:`KeyedStateStore.rows`, ascending by rid) and
        ``combine`` turns the partials of the panes covering a window,
        in pane order, into the window's answer.
        """
        from repro.streaming.dstream import Sink

        sink = Sink()
        self.queries.append((partial, combine, sink))
        return sink

    def absorb(self, batch_id: int, records: list[Record], batch_time: float) -> None:
        """Insert one batch into keyed state (idempotent per batch id).

        A fault mid-absorb (chaos or otherwise) leaves the batch
        unmarked, the staged two-pass :meth:`KeyedWindowState.
        add_batch` leaves no partial inserts, and the retried batch
        absorbs cleanly.
        """
        if not self._begin(batch_id, records):
            return
        self.state.add_batch(records, batch_time)
        self._absorbed_batch = batch_id

    def _pane_partials(self, window: Window) -> list[list[list]]:
        """Each covering pane's partials, evaluated on first use.

        A pane is sealed when its first window closes, which is after
        that window's fire: a fire that fails first leaves the window
        open to records of later batches, so a partial is reused only
        while its pane holds the rows it was computed over.
        """
        out = []
        for key, rids in self.state.panes_of(window):
            cached = self._partials.get(key)
            if cached is None or cached[0] != len(rids):
                rows = self.store.rows(rids)
                partials = [partial(self.store, rows) for partial, _combine, _sink in self.queries]
                cached = self._partials[key] = (len(rids), partials)
            out.append(cached[1])
        return out

    def fire(self, ssc) -> int:
        """Emit each ready window, ascending, then evict its leavers.

        A window stays open until all of its queries and outputs ran --
        a failure mid-fire leaves it ready for the batch retry, the
        at-least-once contract.  Outputs are handed the window's
        records in arrival order.
        The context's emit gate suppresses windows a crashed process
        already delivered: the window's state transitions (closed
        horizon, eviction) still run, only the query evaluation, the
        outputs and the ledger note are skipped.
        """
        fired = 0
        for window in self.state.ready_windows():
            if ssc._recovery.emit_allowed(self, window):
                if self.queries:
                    panes = self._pane_partials(window)
                    for i, (_partial, combine, sink) in enumerate(self.queries):
                        sink.append(window, combine([pane[i] for pane in panes]))
                if self.outputs:
                    rdd = ssc._batch_rdd(self.state.window_records(window))
                    for output in self.outputs:
                        output(window, rdd)
                ssc._recovery.note_emitted(self, window)
                fired += 1
            for key in self.state.close_window(window):
                self._partials.pop(key, None)
        return fired

    def flush(self, ssc) -> int:
        """Fire every still-open window (stream shutdown), ascending:
        the stream is declared over, so the watermark jumps to +inf."""
        self.state.watermark = _INF
        return self.fire(ssc)

    def snapshot_state(self) -> dict:
        """Picklable consumer state for checkpoints (see
        :meth:`KeyedWindowState.snapshot`)."""
        return {
            "kind": "keyed",
            "absorbed": self._absorbed_batch,
            "state": self.state.snapshot(),
        }

    def stage_state(self, snapshot: dict) -> dict:
        """Check a :meth:`snapshot_state` for :meth:`install_state`.

        Another consumer kind's state (a ``"cep"`` snapshot where the
        re-declared pipeline has a window) is refused.  Keys other than
        ``absorbed`` and ``state`` are ignored: the ``pending_hooks``
        rows older builds wrote are already in the store, and their
        matches are computed when their windows close.
        """
        kind = snapshot.get("kind")
        if kind != "keyed":
            raise ValueError(
                "a window consumer restores 'keyed' state, but the checkpoint "
                f"holds {kind!r} state at its position -- restore requires the "
                "pipeline to be re-declared identically"
            )
        return snapshot

    def install_state(self, snapshot: dict) -> None:
        """Reset to a staged snapshot.  No pane partial survives it: each
        is evaluated again when a window covering its pane fires."""
        self._absorbed_batch = snapshot["absorbed"]
        self.state.restore(snapshot["state"])
        self._partials = {}

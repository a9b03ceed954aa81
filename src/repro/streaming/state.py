"""Keyed, grid-partitioned streaming state: the grid is the index.

The GeoFlink observation (PAPERS.md): recomputing every sliding window
from scratch wastes exactly the work the windows share.  With windows of
length ``L`` sliding by ``S``, each record participates in ``L / S``
windows, and the batch path pays for it that many times -- one RDD
build, one scan, one index pass per window.  This module distributes
the *stream itself* instead: events are assigned to grid cells at
ingest (the same fixed grid as :class:`~repro.partitioners.grid.
GridPartitioner`), each cell keeps an object registry plus the extents
of its members, and a sliding-window advance touches only the records
entering (one insert each) and leaving (one evict each) -- every record
is stored exactly once no matter how many windows it spans.

There is no per-cell tree.  A tree built once pays off when it is
probed many times, but in a sliding window every cell changes every
batch, so a per-cell tree would be rebuilt for about one probe each.
Like GeoFlink, the store answers standing queries from the plain grid:
prune cells on extent and time, then scan the surviving cells.

Four layers live here:

- :class:`CellState` -- one grid cell: a registry of live records and
  their spatial + temporal extents for pruning (the hybrid-index
  motivation: temporal extents prune cells in time as well as space);
- :class:`KeyedStateStore` -- the keyed store: cell assignment by
  centroid (reusing the grid partitioner's arithmetic), insert/remove
  by record id, and the continuous query algorithms -- cell-pruned
  range queries by one scan of each surviving cell, and kNN with a
  per-query best-k heap fed cell by cell in ascending lower-bound order;
- :class:`KeyedWindowState` -- the one event-time windowing contract
  (watermark, lateness, closed horizon, late counters) over the store:
  each record is listed once, in its pane (the records sharing its
  open windows), and leaves with the pane when its last window closes;
- :class:`StoreBackedConsumer` -- the bridge to the streaming context
  that ``window()``, ``continuous()`` (both :class:`StateConsumer`) and
  ``patterns()`` share: one store, one absorbed-batch mark, one
  ``state.update`` chaos site.

Pruning stays *correct* under the paper's centroid assignment rule: a
non-point geometry can stick out of its cell, so queries prune on the
cell's **live extent** (bounds grown by member envelopes).  One rule
keeps it: an insert grows the extents exactly, only a removal makes
them stale, and the range scan that next reads a stale cell recomputes
them exactly -- conservative in between, never lossy.

A standing query is one callable ``evaluate(store, window)`` that
:class:`StateConsumer` runs as each window closes -- range and kNN are
one :meth:`KeyedStateStore.query_range` / :meth:`KeyedStateStore.
query_knn` call, the stream-static join one reference probe per window
record.  Each pins its result to the batch operators: a fired window's
answer is equal to running the corresponding :mod:`repro.core`
operator over exactly that window's records, which is the property the
streaming state tests assert record for record.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.core.knn import query_radius
from repro.core.predicates import INTERSECTS, STPredicate, resolve_predicate
from repro.core.stobject import STObject
from repro.geometry.distance import DistanceFunction, euclidean, resolve
from repro.geometry.envelope import Envelope
from repro.partitioners.grid import GridPartitioner
from repro.streaming.operators import relax_static
from repro.streaming.window import Window, WindowSpec, event_span

if TYPE_CHECKING:
    from repro.streaming.dstream import Sink

Record = tuple[STObject, Any]

_INF = float("inf")


class CellState:
    """One grid cell: a registry of live records and their extents.

    The extents are what queries prune a cell on.  The spatial extent
    is kept as bare floats: growing four numbers on insert, the store's
    hottest path, beats allocating a new Envelope per record.  A store
    never holds an empty cell, so the extents alone decide.  An insert
    grows the extents exactly; a removal leaves them covering the
    members but possibly larger, and sets ``stale`` until
    :meth:`refresh` makes them exact again.
    """

    __slots__ = ("registry", "stale", "_min_x", "_min_y", "_max_x", "_max_y", "t_min", "t_max")

    def __init__(self) -> None:
        #: rid -> (STObject, value, t_start, t_end)
        self.registry: dict[int, tuple[STObject, Any, float, float]] = {}
        self.refresh()  # the exact extents of no members; not stale

    @property
    def extent(self) -> Envelope:
        """The spatial extent: covers every live member, exact unless stale."""
        return Envelope(self._min_x, self._min_y, self._max_x, self._max_y)

    def intersects_time(self, t_start: float, t_end: float) -> bool:
        """Can any live member's span intersect ``[t_start, t_end]``?

        Uses the cell's temporal extent -- the per-cell analogue of the
        hybrid spatio-temporal index's partition time pruning.
        """
        return self.t_min <= t_end and self.t_max >= t_start

    def insert(self, rid: int, st: STObject, value: Any, t_start: float, t_end: float) -> None:
        """Add one record; the extents grow to cover it."""
        self.registry[rid] = (st, value, t_start, t_end)
        self._grow(st.geo.envelope, t_start, t_end)

    def _grow(self, env: Envelope, t_start: float, t_end: float) -> None:
        if env.min_x < self._min_x:
            self._min_x = env.min_x
        if env.min_y < self._min_y:
            self._min_y = env.min_y
        if env.max_x > self._max_x:
            self._max_x = env.max_x
        if env.max_y > self._max_y:
            self._max_y = env.max_y
        if t_start < self.t_min:
            self.t_min = t_start
        if t_end > self.t_max:
            self.t_max = t_end

    def remove(self, rid: int) -> None:
        """Drop one record; the extents go stale."""
        self.registry.pop(rid, None)
        self.stale = True

    def refresh(self) -> None:
        """Recompute the exact extents of the live members."""
        self._min_x = self._min_y = self.t_min = _INF
        self._max_x = self._max_y = self.t_max = -_INF
        for st, _value, t_start, t_end in self.registry.values():
            self._grow(st.geo.envelope, t_start, t_end)
        self.stale = False


class KeyedStateStore:
    """A grid-keyed registry of live stream records with per-cell extents.

    ``universe`` fixes the grid (``grid`` cells per dimension) the way
    :class:`~repro.partitioners.grid.GridPartitioner` lays it out;
    records outside the universe clamp into border cells, and pruning
    stays exact because it reads live extents, not designed bounds.
    With ``universe=None`` the grid is fixed by the first non-empty
    :meth:`cover` call instead (the first batch's bounding box) --
    placement only affects pruning granularity, never results.  A
    one-cell store (``grid=1``) skips cell assignment altogether.
    """

    def __init__(self, universe: Envelope | None, grid: int = 8) -> None:
        self._grid = grid
        self._reset(universe)

    def _reset(self, universe: Envelope | None) -> None:
        """Empty the store over *universe* (construction and restore)."""
        if universe is not None and universe.is_empty:
            raise ValueError("state store universe must be non-empty")
        self._partitioner = (
            None if universe is None else GridPartitioner((), self._grid, universe=universe)
        )
        self._cells: dict[int, CellState] = {}
        self._locations: dict[int, int] = {}
        self.inserts = 0
        self.removes = 0

    def cover(self, records: Sequence[Record]) -> None:
        """Fix the grid from *records* when no universe was given.

        The lazy half of construction: the first non-empty batch's
        bounding box becomes the universe.  A no-op once the grid is
        fixed, so consumers call it before every batch they stage.
        """
        if self._partitioner is None and records:
            universe = Envelope.empty()
            for st, _value in records:
                universe = universe.merge(st.geo.envelope)
            self._partitioner = GridPartitioner((), self._grid, universe=universe)

    @property
    def size(self) -> int:
        """Live records currently held."""
        return len(self._locations)

    @property
    def cells_used(self) -> int:
        """Grid cells currently holding at least one record."""
        return len(self._cells)

    @property
    def cell_rebuilds(self) -> int:
        """Always 0: cells hold no tree to rebuild.

        Kept only because ``bench/streams.py`` (lines 142, 227, 243)
        still reads it for the ``streaming.state.cell_rebuilds`` metric;
        the reader, the metric and this property go together.
        """
        return 0

    def insert(self, rid: int, st: STObject, value: Any, t_start: float, t_end: float) -> None:
        """Assign the record to its centroid's cell and index it there."""
        # Inline the partitioner's centroid rule: this is the store's
        # hottest path and get_partition's generic key dispatch costs
        # more than the grid arithmetic itself.  A one-cell grid has
        # nothing to assign, and window() lives on that: 0.8 us per
        # insert against 2.1 us through the partitioner.
        if self._grid == 1:
            pid = 0
        elif self._partitioner is None:
            raise ValueError("the grid is unfixed: pass a universe or cover() a batch first")
        else:
            centroid = st.geo.centroid()
            pid = self._partitioner.partition_of_point(centroid.x, centroid.y)
        cell = self._cells.get(pid)
        if cell is None:
            cell = self._cells[pid] = CellState()
        cell.insert(rid, st, value, t_start, t_end)
        self._locations[rid] = pid
        self.inserts += 1

    def remove(self, rid: int) -> None:
        """Evict one record by id (no-op for unknown ids)."""
        pid = self._locations.pop(rid, None)
        if pid is None:
            return
        cell = self._cells[pid]
        cell.remove(rid)
        if not cell.registry:
            del self._cells[pid]
        self.removes += 1

    def get(self, rid: int) -> tuple[STObject, Any, float, float] | None:
        """Look up one live record: ``(st, value, t_start, t_end)``.

        Returns None for unknown (or already evicted) ids.
        """
        pid = self._locations.get(rid)
        if pid is None:
            return None
        return self._cells[pid].registry.get(rid)

    def snapshot(self) -> dict:
        """Picklable store state for checkpoints.

        The snapshot carries the universe and every live ``(rid, st,
        value, t_start, t_end)`` row sorted by rid; cell extents are
        re-derived on restore.
        """
        universe = None
        if self._partitioner is not None:
            u = self._partitioner.universe
            universe = (u.min_x, u.min_y, u.max_x, u.max_y)
        rows = [
            (rid, st, value, t_start, t_end)
            for cell in self._cells.values()
            for rid, (st, value, t_start, t_end) in cell.registry.items()
        ]
        rows.sort(key=lambda row: row[0])
        return {"universe": universe, "records": rows}

    def restore(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot` (recovery).

        Every row re-enters through :meth:`insert`, which grows its
        cell's extents exactly.  Keys other than ``universe`` and
        ``records`` are ignored: the spill counters older builds wrote
        (``cells_spilled``, ``cells_loaded``, ``spill_failures``) have
        no state to restore.
        """
        universe = snapshot["universe"]
        self._reset(None if universe is None else Envelope(*universe))
        for rid, st, value, t_start, t_end in snapshot["records"]:
            self.insert(rid, st, value, t_start, t_end)

    # -- window membership -------------------------------------------------

    def iter_window(self, window: Window | None) -> Iterator[tuple[int, STObject, Any]]:
        """Every live ``(rid, STObject, value)`` whose span intersects
        *window* (all live records when *window* is None, as for the
        store's queries).
        """
        for cell in self._cells.values():
            if window is not None and not cell.intersects_time(window.start, window.end):
                continue
            for rid, (st, value, t_start, t_end) in cell.registry.items():
                if window is None or window.intersects_span(t_start, t_end):
                    yield rid, st, value

    # -- continuous queries ------------------------------------------------

    def query_range(
        self,
        query: STObject,
        predicate: STPredicate = INTERSECTS,
        window: Window | None = None,
    ) -> list[Record]:
        """Records matching *predicate* against *query* inside *window*.

        Cells are pruned by live extent against the predicate's
        candidate region (and by temporal extent against the window);
        each surviving cell is scanned once, testing every member's
        envelope against the candidate region, then its span against
        the window, then the exact predicate.  A stale cell gets its
        exact extents back from the same visit.  Equal to the batch
        filter over the window's records under the static-side
        relaxation.
        """
        predicate = relax_static(resolve_predicate(predicate))
        region = predicate.candidate_region(query.geo.envelope)
        out: list[Record] = []
        for cell in self._cells.values():
            if not cell.extent.intersects(region):
                continue
            if window is not None and not cell.intersects_time(window.start, window.end):
                continue
            if cell.stale:
                cell.refresh()
            for st, value, t_start, t_end in cell.registry.values():
                if not st.geo.envelope.intersects(region):
                    continue
                if window is not None and not window.intersects_span(t_start, t_end):
                    continue
                if predicate.evaluate(st, query):
                    out.append((st, value))
        return out

    def query_knn(
        self,
        query: STObject,
        k: int,
        window: Window | None = None,
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> list[tuple[float, Record]]:
        """The *k* records nearest *query* inside *window*, ascending.

        A per-query best-k heap is fed cell by cell in ascending
        lower-bound order (cell extent distance to the query centroid,
        slackened by the query radius exactly like :func:`repro.core.
        knn.knn`); the search stops as soon as the next cell's bound
        cannot beat the current k-th distance.  Non-Euclidean metrics
        make envelope bounds inadmissible, so they scan every live cell
        -- correctness over speed, matching the batch operator.

        Equal distances rank by record id, i.e. arrival order, whatever
        the grid: the answer is the batch operator's over the window's
        records in arrival order, for a one-cell store and a grid alike.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        fn = resolve(distance_fn)
        centroid = query.geo.centroid()
        slack = query_radius(query.geo)
        prune = fn is euclidean

        ranked = []
        for cell in self._cells.values():
            if window is not None and not cell.intersects_time(window.start, window.end):
                continue
            bound = (
                max(0.0, cell.extent.distance_to_point(centroid.x, centroid.y) - slack)
                if prune
                else 0.0
            )
            ranked.append((bound, cell))
        ranked.sort(key=lambda pair: pair[0])

        # A max-heap of the k best (negated distance, negated rid, record):
        # its top is the worst kept, the latest arrival among equal
        # distances, so a tie seen in a later cell still wins by arrival.
        best: list[tuple[float, int, Record]] = []
        for bound, cell in ranked:
            if prune and len(best) == k and bound > -best[0][0]:
                break
            for rid, (st, value, t_start, t_end) in cell.registry.items():
                if window is not None and not window.intersects_span(t_start, t_end):
                    continue
                if (
                    prune
                    and len(best) == k
                    and st.geo.envelope.distance_to_point(centroid.x, centroid.y) - slack
                    > -best[0][0]
                ):
                    continue  # envelope bound already beaten
                d = fn(st.geo, query.geo)
                if len(best) < k:
                    heapq.heappush(best, (-d, -rid, (st, value)))
                elif d < -best[0][0] or (d == -best[0][0] and rid < -best[0][1]):
                    heapq.heapreplace(best, (-d, -rid, (st, value)))
        return [(-nd, record) for nd, _rid, record in sorted(best, reverse=True)]


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
    stored with its span moved inside that window, so the store's span
    views (the continuous queries) agree with the panes.
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
        self._panes: dict[tuple[Window, Window], list[int]] = {}
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

    def window_records(self, window: Window) -> list[Record]:
        """An open window's ``(STObject, value)`` records, in arrival
        order -- what the window outputs are handed."""
        if window not in self._open:
            return []
        lists = [rids for (first, last), rids in self._panes.items() if first <= window <= last]
        rids = lists[0] if len(lists) == 1 else heapq.merge(*lists)
        return [row[:2] for row in map(self.store.get, rids)]

    def close_window(self, window: Window) -> list[int]:
        """Mark *window* fired: advance the closed horizon and evict every
        pane whose last window has now closed.  Returns evicted rids."""
        self._open.discard(window)
        if window.end > self._closed_horizon:
            self._closed_horizon = window.end
        closed = [key for key in self._panes if key[1].end <= self._closed_horizon]
        evicted = [rid for key in closed for rid in self._panes.pop(key)]
        for rid in evicted:
            self.store.remove(rid)
        return evicted

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
    ``restore_state`` and the ``late_dropped`` / ``late_window_drops``
    counters the context mirrors into its metrics.
    """

    def __init__(self, node, universe: Envelope | None, grid: int) -> None:
        self.node = node
        #: The keyed store (its grid unfixed until the first record
        #: when no universe was given).
        self.store = KeyedStateStore(universe, grid=grid)
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


class StateConsumer(StoreBackedConsumer):
    """The event-time window consumer behind ``window()`` and ``continuous()``.

    Bridges one stream node to a :class:`KeyedWindowState`: per batch
    the streaming context collects the chain's records (an input
    node's are the batch's own rows, read without a job) and calls
    :meth:`absorb`, and :meth:`fire` emits every ready window -- each
    registered standing query ``evaluate(store, window)`` answers from
    the store into its sink, the window outputs receive the window's
    records as an RDD -- before the window's leavers are evicted.
    """

    def __init__(
        self,
        node,
        spec: WindowSpec,
        lateness: float = 0.0,
        universe: Envelope | None = None,
        grid: int = 8,
    ) -> None:
        super().__init__(node, universe, grid)
        self.spec = spec
        self.state = KeyedWindowState(spec, self.store, lateness)
        #: ``(evaluate, sink)`` per standing query, in registration order.
        self.queries: list[tuple[Callable[[KeyedStateStore, Window], Any], Sink]] = []

    @property
    def late_dropped(self) -> int:
        """Records whose every window had already fired on arrival."""
        return self.state.late_dropped

    @property
    def late_window_drops(self) -> int:
        """Per-window contributions lost to already-fired windows."""
        return self.state.late_window_drops

    def add_query(self, evaluate: Callable[[KeyedStateStore, Window], Any]) -> Sink:
        """Register one standing query; returns the sink that collects
        its ``(window, evaluate(store, window))`` pairs."""
        from repro.streaming.dstream import Sink

        sink = Sink()
        self.queries.append((evaluate, sink))
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
                for evaluate, sink in self.queries:
                    sink.append(window, evaluate(self.store, window))
                if self.outputs:
                    rdd = ssc._batch_rdd(self.state.window_records(window))
                    for output in self.outputs:
                        output(window, rdd)
                ssc._recovery.note_emitted(self, window)
                fired += 1
            self.state.close_window(window)
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

    def restore_state(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot_state` (recovery entry point).

        Another consumer kind's state (a ``"cep"`` snapshot where the
        re-declared pipeline has a window) is refused before anything
        is touched.  Keys other than ``absorbed`` and ``state`` are
        ignored: the ``pending_hooks`` rows older builds wrote are
        already in the store, and their matches are computed when their
        windows close.
        """
        kind = snapshot.get("kind")
        if kind != "keyed":
            raise ValueError(
                "a window consumer restores 'keyed' state, but the checkpoint "
                f"holds {kind!r} state at its position -- restore requires the "
                "pipeline to be re-declared identically"
            )
        self._absorbed_batch = snapshot["absorbed"]
        self.state.restore(snapshot["state"])

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
Like GeoFlink, the store answers a query over all its records from the
plain grid: prune cells on extent, then scan the surviving cells.  The
standing queries read no cell: each evaluates a pane's rows once (see
below), so a record costs one test however many windows it spans.

Four layers live here:

- :class:`CellState` -- one grid cell: a registry of live records and
  the spatial extent of its members for pruning;
- :class:`KeyedStateStore` -- the keyed store: cell assignment by
  centroid (reusing the grid partitioner's arithmetic), insert/remove
  by record id, and the two query algorithms, over a pane's rows or
  over every live record -- range by one envelope test and one exact
  predicate per candidate row, kNN with a best-k heap;
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
keeps it: an insert grows the extent exactly, only a removal makes it
stale, and the range scan that next reads a stale cell recomputes it
exactly -- conservative in between, never lossy.

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
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.knn import query_radius
from repro.core.predicates import INTERSECTS, STPredicate, resolve_predicate
from repro.core.stobject import STObject
from repro.geometry.distance import DistanceFunction, euclidean, resolve
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.partitioners.grid import GridPartitioner
from repro.streaming.operators import relax_static
from repro.streaming.window import Window, WindowSpec, event_span

if TYPE_CHECKING:
    from repro.streaming.dstream import Sink

Record = tuple[STObject, Any]
#: A store row as a cell registers it: ``(rid, (st, value, t_start, t_end))``.
Row = tuple[int, tuple[STObject, Any, float, float]]
#: A pane's identity: ``(first open window, last window)``.
PaneKey = tuple[Window, Window]
#: A standing query over one pane: ``partial(store, rows) -> partial``.
Partial = Callable[["KeyedStateStore", list[Row]], list]

_INF = float("inf")


class CellState:
    """One grid cell: a registry of live records and their extent.

    The extent is what whole-store queries prune a cell on.  It is kept
    as bare floats: growing four numbers on insert, the store's hottest
    path, beats allocating a new Envelope per record.  A store never
    holds an empty cell, so the extent alone decides.  An insert grows
    the extent exactly; a removal leaves it covering the members but
    possibly larger, and sets ``stale`` until :meth:`refresh` makes it
    exact again.
    """

    __slots__ = ("registry", "stale", "_min_x", "_min_y", "_max_x", "_max_y")

    def __init__(self) -> None:
        #: rid -> (STObject, value, t_start, t_end)
        self.registry: dict[int, tuple[STObject, Any, float, float]] = {}
        self.refresh()  # the exact extent of no members; not stale

    @property
    def extent(self) -> Envelope:
        """The spatial extent: covers every live member, exact unless stale."""
        return Envelope(self._min_x, self._min_y, self._max_x, self._max_y)

    def insert(self, rid: int, st: STObject, value: Any, t_start: float, t_end: float) -> None:
        """Add one record; the extent grows to cover it."""
        self.registry[rid] = (st, value, t_start, t_end)
        self._grow(st.geo.envelope)

    def _grow(self, env: Envelope) -> None:
        if env.min_x < self._min_x:
            self._min_x = env.min_x
        if env.min_y < self._min_y:
            self._min_y = env.min_y
        if env.max_x > self._max_x:
            self._max_x = env.max_x
        if env.max_y > self._max_y:
            self._max_y = env.max_y

    def remove(self, rid: int) -> None:
        """Drop one record; the extent goes stale."""
        self.registry.pop(rid, None)
        self.stale = True

    def refresh(self) -> None:
        """Recompute the exact extent of the live members."""
        self._min_x = self._min_y = _INF
        self._max_x = self._max_y = -_INF
        for st, _value, _t_start, _t_end in self.registry.values():
            self._grow(st.geo.envelope)
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

    def remove(self, *rids: int) -> None:
        """Evict records by id (unknown ids are skipped)."""
        cells, locations = self._cells, self._locations
        removed = 0
        for rid in rids:
            pid = locations.pop(rid, None)
            if pid is None:
                continue
            cell = cells[pid]
            cell.remove(rid)
            if not cell.registry:
                del cells[pid]
            removed += 1
        self.removes += removed

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

    def rows(self, rids: Iterable[int]) -> list[Row]:
        """The live rows of *rids*, in the given order."""
        cells, locations = self._cells, self._locations
        return [(rid, cells[locations[rid]].registry[rid]) for rid in rids]

    # -- queries -----------------------------------------------------------

    def query_range(
        self,
        query: STObject,
        predicate: STPredicate = INTERSECTS,
        rows: Sequence[Row] | None = None,
    ) -> list[tuple[int, Record]]:
        """``(rid, record)`` of each record matching *predicate* against
        *query*, ascending by rid (arrival order).

        With *rows* (a pane's, ascending by rid: :meth:`rows`) those
        records are tested: each row's envelope against the predicate's
        candidate region, inline, then the exact predicate.  Without,
        every live record is: cells are pruned by live extent against
        the candidate region and each surviving cell's rows are tested
        the same way; a stale cell gets its exact extent back from the
        same visit.  Equal to the batch filter over the same records
        under the static-side relaxation.
        """
        predicate = relax_static(resolve_predicate(predicate))
        region = predicate.candidate_region(query.geo.envelope)
        if rows is not None:
            return _matches(rows, region, predicate, query)
        out: list[tuple[int, Record]] = []
        for cell in self._cells.values():
            if not cell.extent.intersects(region):
                continue
            if cell.stale:
                cell.refresh()
            out += _matches(cell.registry.items(), region, predicate, query)
        out.sort(key=itemgetter(0))
        return out

    def query_knn(
        self,
        query: STObject,
        k: int,
        rows: Sequence[Row] | None = None,
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> list[tuple[float, int, Record]]:
        """The *k* records nearest *query*: ``(distance, rid, record)``,
        ascending by distance and equal distances by rid (arrival
        order), so the answer is the batch operator's over the same
        records in arrival order, for a one-cell store and a grid alike.

        With *rows* (a pane's: :meth:`rows`) those records are ranked.
        Without, every live record is: a best-k heap is fed cell by cell
        in ascending lower-bound order (cell extent distance to the query
        centroid, slackened by the query radius exactly like
        :func:`repro.core.knn.knn`), and the search stops as soon as the
        next cell's bound cannot beat the current k-th distance.
        Non-Euclidean metrics make envelope bounds inadmissible, so they
        scan every live cell -- correctness over speed, matching the
        batch operator.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ranker = _Ranker(query, k, resolve(distance_fn))
        if rows is not None:
            ranker.offer(rows)
            return ranker.ranked()
        centroid = ranker.centroid
        ranked = []
        for cell in self._cells.values():
            bound = (
                max(0.0, cell.extent.distance_to_point(centroid.x, centroid.y) - ranker.slack)
                if ranker.prune
                else 0.0
            )
            ranked.append((bound, cell))
        ranked.sort(key=itemgetter(0))
        for bound, cell in ranked:
            if ranker.prune and bound > ranker.worst:
                break
            ranker.offer(cell.registry.items())
        return ranker.ranked()


def _matches(
    rows: Iterable[Row], region: Envelope, predicate: STPredicate, query: STObject
) -> list[tuple[int, Record]]:
    """``(rid, record)`` of each row whose envelope meets *region* and
    that satisfies *predicate* against *query*, in row order."""
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


class _Ranker:
    """One kNN query's best-k heap, fed rows by :meth:`offer`."""

    __slots__ = ("query", "k", "fn", "centroid", "slack", "prune", "best", "worst")

    def __init__(self, query: STObject, k: int, fn: DistanceFunction) -> None:
        self.query, self.k, self.fn = query, k, fn
        self.centroid = query.geo.centroid()
        self.slack = query_radius(query.geo)
        self.prune = fn is euclidean
        #: A max-heap of the k best (negated distance, negated rid,
        #: record): its top is the worst kept, the latest arrival among
        #: equal distances, so a tie offered later still wins by arrival.
        self.best: list[tuple[float, int, Record]] = []
        #: The k-th distance so far (+inf until k rows are kept).
        self.worst = _INF

    def offer(self, rows: Iterable[Row]) -> None:
        """Rank *rows*; a point's distance to a point query is computed
        inline, as :func:`repro.core.knn.exact_distance_to` does (the
        same float), any other's after its envelope bound."""
        best, k, fn, geom = self.best, self.k, self.fn, self.query.geo
        prune, slack, worst = self.prune, self.slack, self.worst
        cx, cy = self.centroid.x, self.centroid.y
        inline = prune and type(geom) is Point
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
        self.worst = worst

    def ranked(self) -> list[tuple[float, int, Record]]:
        """The kept rows, ascending by (distance, rid)."""
        return [(-nd, -nrid, record) for nd, nrid, record in sorted(self.best, reverse=True)]


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
        grid: int = 8,
    ) -> None:
        super().__init__(node, universe, grid)
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

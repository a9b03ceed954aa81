"""Keyed, grid-partitioned streaming state with incremental per-cell indexes.

The GeoFlink observation (PAPERS.md): recomputing every sliding window
from scratch wastes exactly the work the windows share.  With windows of
length ``L`` sliding by ``S``, each record participates in ``L / S``
windows, and the batch path pays for it that many times -- one RDD
build, one scan, one index pass per window.  This module distributes
the *stream itself* instead: events are assigned to grid cells at
ingest (the same fixed grid as :class:`~repro.partitioners.grid.
GridPartitioner`), each cell keeps an object registry plus incrementally
maintained query structures, and a sliding-window advance touches only
the records entering (one insert each) and leaving (one evict each) --
every record is indexed exactly once no matter how many windows it
spans.

Four layers live here:

- :class:`CellState` -- one grid cell: a registry of live records, a
  generation-rebuilt per-cell STR-tree (STR packing is build-once, so
  "incremental" means *cell-local lazy rebuild*: mutations mark the
  cell dirty and the next query that actually needs this cell rebuilds
  just it -- untouched cells keep their tree across any number of
  window advances), and spatial + temporal extents for pruning (the
  hybrid-index motivation: temporal extents let later layers prune
  cells in time as well as space);
- :class:`KeyedStateStore` -- the keyed store: cell assignment by
  centroid (reusing the grid partitioner's arithmetic), insert/remove
  by record id, and the continuous query algorithms -- cell-pruned
  range queries through the per-cell trees and kNN with a per-query
  best-k heap fed cell by cell in ascending lower-bound order;
- :class:`KeyedWindowState` -- the one event-time windowing contract
  (watermark, lateness, closed horizon, late counters) over the store:
  one copy of each record lives in the store, an open window is a list
  of record ids into it, and eviction is driven by the watermark
  passing a record's last window;
- :class:`StoreBackedConsumer` -- the bridge to the streaming context
  that ``window()``, ``continuous()`` (both :class:`StateConsumer`) and
  ``patterns()`` share: one store, one absorbed-batch mark, one
  ``state.update`` chaos site.

Pruning stays *correct* under the paper's centroid assignment rule: a
non-point geometry can stick out of its cell, so queries prune on the
cell's **live extent** (bounds grown by member envelopes), which grows
eagerly on insert and is recomputed exactly on the next tree rebuild
after removals -- conservative in between, never lossy.

**Memory budgeting.**  With ``memory_budget_bytes`` set the store
tracks an approximate byte footprint per cell
(:func:`estimate_record_bytes` -- documented approximate, deliberately
cheap) and, when the in-memory total exceeds the budget, spills the
least-recently-touched cells to ``spill_dir`` through the storage
layer's durable-rename protocol (staging file, fsync, ``os.replace``,
parent fsync -- so the crash harness counts spill barriers too).  A
spilled cell leaves behind a :class:`SpilledCell` stub carrying its
spatial/temporal extents, so queries keep pruning it without touching
disk; any operation that actually needs the cell's records loads it
back transparently (counted), and removals against a spilled cell are
deferred into a dead-record set applied at load time.  Spill files are
a *memory* mechanism, not a durability one: checkpoints embed spilled
records (read from disk, store untouched), restores re-insert through
the normal path and re-spill under the same budget, and the store
wipes stale spill files at construction -- crash recovery never
depends on a spill file surviving.

The continuous query classes (:class:`ContinuousRange`,
:class:`ContinuousKnn`, :class:`ContinuousJoinStatic`) pin their
results to the batch operators: a fired window's answer is equal to
running the corresponding :mod:`repro.core` operator over exactly that
window's records, which is the property the streaming state tests
assert record for record.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import pickle
import sys
from collections import deque
from typing import Any, Callable, Iterator, Sequence

from repro.core.knn import query_radius
from repro.core.predicates import INTERSECTS, STPredicate, resolve_predicate
from repro.core.stobject import STObject
from repro.geometry.distance import DistanceFunction, euclidean, resolve
from repro.geometry.envelope import Envelope
from repro.index.rtree import STRTree
from repro.partitioners.grid import GridPartitioner
from repro.spark.storage import durable_replace
from repro.streaming.operators import build_static_index, relax_static
from repro.streaming.window import Window, WindowSpec, event_span

Record = tuple[STObject, Any]

_INF = float("inf")

#: Flat per-record overhead charged by :func:`estimate_record_bytes`:
#: registry slot, STObject + geometry, span floats.  A calibration
#: constant, not a measurement.
_RECORD_BASE_BYTES = 200


def estimate_record_bytes(st: STObject, value: Any) -> int:
    """Approximate in-memory footprint of one stream record.

    Deliberately cheap -- a flat base for the spatio-temporal object
    plus ``sys.getsizeof`` of the (typically small) value -- because it
    runs on the store's hottest path.  The budget enforcement it feeds
    is best-effort by design: the point is bounding growth, not exact
    accounting.
    """
    return _RECORD_BASE_BYTES + sys.getsizeof(value)


class CellState:
    """One grid cell: registry, lazily rebuilt tree, live extents."""

    __slots__ = (
        "registry",
        "_tree",
        "_dirty",
        "_min_x",
        "_min_y",
        "_max_x",
        "_max_y",
        "t_min",
        "t_max",
        "rebuilds",
    )

    def __init__(self) -> None:
        #: rid -> (STObject, value, t_start, t_end)
        self.registry: dict[int, tuple[STObject, Any, float, float]] = {}
        self._tree: STRTree | None = None
        self._dirty = False
        # Live spatial extent as bare floats: insert is the hottest path
        # in the store, and growing four numbers beats allocating a new
        # Envelope per record.
        self._min_x = self._min_y = _INF
        self._max_x = self._max_y = -_INF
        #: Temporal extent of live members (conservative after removes).
        self.t_min = _INF
        self.t_max = -_INF
        #: Generation rebuilds performed (the incremental-cost metric).
        self.rebuilds = 0

    def __len__(self) -> int:
        return len(self.registry)

    def insert(self, rid: int, st: STObject, value: Any, t_start: float, t_end: float) -> None:
        """Add one record; extents grow eagerly, the tree goes stale."""
        self.registry[rid] = (st, value, t_start, t_end)
        env = st.geo.envelope
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
        self._dirty = True

    def remove(self, rid: int) -> None:
        """Drop one record; extents stay conservative until a rebuild."""
        self.registry.pop(rid, None)
        self._dirty = True

    @property
    def extent(self) -> Envelope:
        """The live spatial extent (exact after a rebuild, else grown-only)."""
        return Envelope(self._min_x, self._min_y, self._max_x, self._max_y)

    def intersects_time(self, t_start: float, t_end: float) -> bool:
        """Can any live member's span intersect ``[t_start, t_end]``?

        Uses the cell's temporal extent -- the per-cell analogue of the
        hybrid spatio-temporal index's partition time pruning.
        """
        return bool(self.registry) and self.t_min <= t_end and self.t_max >= t_start

    def tree(self, node_capacity: int) -> STRTree:
        """The cell's STR-tree over live entries, rebuilt only when stale.

        The rebuild also recomputes the exact spatial and temporal
        extents, shrinking whatever slack removals left behind.
        """
        if self._tree is None or self._dirty:
            self._tree = STRTree(
                ((row[0].geo.envelope, rid) for rid, row in self.registry.items()),
                node_capacity=node_capacity,
            )
            env = self._tree.envelope
            self._min_x, self._min_y = env.min_x, env.min_y
            self._max_x, self._max_y = env.max_x, env.max_y
            self.t_min = min((row[2] for row in self.registry.values()), default=_INF)
            self.t_max = max((row[3] for row in self.registry.values()), default=-_INF)
            self._dirty = False
            self.rebuilds += 1
        return self._tree


class SpilledCell:
    """The on-disk stub a spilled grid cell leaves behind.

    Carries just enough for query pruning -- record count, byte
    estimate, spatial and temporal extents (frozen at spill time, so
    exactly as conservative as the cell they came from) -- plus the
    spill file path and the set of record ids removed *while* spilled
    (``dead``), which the loader filters out.  Holds no records: any
    operation that needs them goes through
    :meth:`KeyedStateStore._load_cell`.
    """

    __slots__ = (
        "path",
        "count",
        "bytes",
        "_min_x",
        "_min_y",
        "_max_x",
        "_max_y",
        "t_min",
        "t_max",
        "dead",
    )

    def __init__(
        self,
        path: str,
        count: int,
        byte_estimate: int,
        min_x: float,
        min_y: float,
        max_x: float,
        max_y: float,
        t_min: float,
        t_max: float,
    ) -> None:
        self.path = path
        #: Live records on disk (decremented by deferred removals).
        self.count = count
        #: Estimated bytes the spill moved out of memory.
        self.bytes = byte_estimate
        self._min_x, self._min_y = min_x, min_y
        self._max_x, self._max_y = max_x, max_y
        self.t_min, self.t_max = t_min, t_max
        #: Record ids evicted while the cell was on disk.
        self.dead: set[int] = set()

    def __len__(self) -> int:
        return self.count

    @property
    def extent(self) -> Envelope:
        """The spilled cell's spatial extent, frozen at spill time."""
        return Envelope(self._min_x, self._min_y, self._max_x, self._max_y)

    def intersects_time(self, t_start: float, t_end: float) -> bool:
        """Temporal pruning against the frozen extent (conservative)."""
        return self.count > 0 and self.t_min <= t_end and self.t_max >= t_start


class KeyedStateStore:
    """A grid-keyed registry of live stream records with per-cell indexes.

    ``universe`` fixes the grid (``grid`` cells per dimension) the way
    :class:`~repro.partitioners.grid.GridPartitioner` lays it out;
    records outside the universe clamp into border cells, and pruning
    stays exact because it reads live extents, not designed bounds.
    With ``universe=None`` the grid is fixed by the first non-empty
    :meth:`cover` call instead (the first batch's bounding box) --
    placement only affects pruning granularity, never results.  A
    one-cell store (``grid=1``) skips cell assignment altogether.

    With ``memory_budget_bytes`` set (which requires ``spill_dir``) the
    store bounds its approximate in-memory footprint by spilling the
    least-recently-touched cells to disk -- see the module docstring
    for the full contract.  ``injector_source`` is an optional callable
    returning the live :class:`~repro.chaos.injector.FaultInjector` (or
    None); the ``state.spill`` chaos site fires through it before each
    spill write.  The budget is best-effort: the cell currently being
    written is never spilled out from under its own insert, and a spill
    *failure* (chaos or I/O) is swallowed into ``spill_failures`` --
    the cell simply stays in memory, degraded but alive.
    """

    def __init__(
        self,
        universe: Envelope | None,
        grid: int = 8,
        node_capacity: int = 10,
        memory_budget_bytes: int | None = None,
        spill_dir: str | None = None,
        injector_source: Callable[[], Any] | None = None,
    ) -> None:
        if memory_budget_bytes is not None:
            if memory_budget_bytes <= 0:
                raise ValueError(
                    f"memory_budget_bytes must be > 0, got {memory_budget_bytes}"
                )
            if spill_dir is None:
                raise ValueError("memory_budget_bytes requires a spill_dir")
        self.node_capacity = node_capacity
        self.memory_budget_bytes = memory_budget_bytes
        self.spill_dir = spill_dir
        self._grid = grid
        self._injector_source = injector_source
        self._reset(universe)

    def _reset(self, universe: Envelope | None) -> None:
        """Empty the store over *universe* (construction and restore)."""
        if universe is not None and universe.is_empty:
            raise ValueError("state store universe must be non-empty")
        self._partitioner = (
            None if universe is None else GridPartitioner((), self._grid, universe=universe)
        )
        self._cells: dict[int, CellState | SpilledCell] = {}
        self._locations: dict[int, int] = {}
        self._retired_rebuilds = 0
        self.inserts = 0
        self.removes = 0
        self._cell_bytes: dict[int, int] = {}
        self._bytes_in_memory = 0
        self._spilled_bytes = 0
        self._touch: dict[int, int] = {}
        self._tick = 0
        #: Cells spilled to disk so far (cumulative).
        self.cells_spilled = 0
        #: Spilled cells loaded back so far (cumulative).
        self.cells_loaded = 0
        #: Spill attempts that failed and left the cell in memory.
        self.spill_failures = 0
        if self.spill_dir is not None:
            # Spill files are a memory mechanism, not a durability one:
            # a fresh store (including one reset by crash recovery)
            # must never trust another process's spill files.
            os.makedirs(self.spill_dir, exist_ok=True)
            for fname in os.listdir(self.spill_dir):
                if fname.startswith("cell-") and (
                    fname.endswith(".pkl") or fname.endswith("._tmp")
                ):
                    try:
                        os.remove(os.path.join(self.spill_dir, fname))
                    except OSError:
                        pass

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
        """Total generation rebuilds across all cells so far."""
        return (
            sum(c.rebuilds for c in self._cells.values() if isinstance(c, CellState))
            + self._retired_rebuilds
        )

    @property
    def spilled_cells(self) -> int:
        """Cells currently living on disk as :class:`SpilledCell` stubs."""
        return sum(1 for c in self._cells.values() if isinstance(c, SpilledCell))

    @property
    def bytes_in_memory(self) -> int:
        """Estimated bytes of in-memory records (0 unless budgeted)."""
        return self._bytes_in_memory

    @property
    def spilled_bytes(self) -> int:
        """Estimated bytes currently parked on disk by spills."""
        return self._spilled_bytes

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
        elif isinstance(cell, SpilledCell):
            cell = self._load_cell(pid)
        cell.insert(rid, st, value, t_start, t_end)
        self._locations[rid] = pid
        self.inserts += 1
        if self.memory_budget_bytes is not None:
            estimate = estimate_record_bytes(st, value)
            self._cell_bytes[pid] = self._cell_bytes.get(pid, 0) + estimate
            self._bytes_in_memory += estimate
            self._tick += 1
            self._touch[pid] = self._tick
            if self._bytes_in_memory > self.memory_budget_bytes:
                self._enforce_budget(protect=pid)

    def remove(self, rid: int) -> None:
        """Evict one record by id (no-op for unknown ids).

        Removing from a *spilled* cell does not load it: the rid joins
        the stub's dead set (applied at load time) and a stub whose
        live count hits zero is dropped together with its spill file.
        """
        pid = self._locations.pop(rid, None)
        if pid is None:
            return
        cell = self._cells[pid]
        if isinstance(cell, SpilledCell):
            if rid not in cell.dead:
                cell.dead.add(rid)
                cell.count -= 1
            if cell.count <= 0:
                try:
                    os.remove(cell.path)
                except OSError:
                    pass
                self._spilled_bytes -= cell.bytes
                del self._cells[pid]
            self.removes += 1
            return
        if self.memory_budget_bytes is not None:
            row = cell.registry.get(rid)
            if row is not None:
                estimate = estimate_record_bytes(row[0], row[1])
                self._cell_bytes[pid] = self._cell_bytes.get(pid, 0) - estimate
                self._bytes_in_memory -= estimate
        cell.remove(rid)
        if not cell.registry:
            self._retired_rebuilds += cell.rebuilds
            del self._cells[pid]
            self._cell_bytes.pop(pid, None)
            self._touch.pop(pid, None)
        self.removes += 1

    def get(self, rid: int) -> tuple[STObject, Any, float, float] | None:
        """Look up one live record: ``(st, value, t_start, t_end)``.

        Returns None for unknown (or already evicted) ids.  A record
        living in a spilled cell loads its cell back transparently --
        the lookup genuinely needs the payload, the same touch-load
        rule the continuous queries follow -- so callers on a hot path
        (the CEP guard evaluators) pull exactly the cold cells their
        guards actually read.
        """
        pid = self._locations.get(rid)
        if pid is None:
            return None
        cell = self._cells[pid]
        if isinstance(cell, SpilledCell):
            cell = self._load_cell(pid)
        return cell.registry.get(rid)

    # -- spill machinery ---------------------------------------------------

    def _spill_path(self, pid: int) -> str:
        """The spill file a cell id maps to (one store per directory)."""
        return os.path.join(self.spill_dir, f"cell-{pid}.pkl")

    def _enforce_budget(self, protect: int | None = None) -> None:
        """Spill least-recently-touched cells until the budget holds.

        *protect* (the cell an insert or load just touched) is never a
        spill candidate -- the budget is best-effort rather than strict
        so the working cell always stays resident.  Stops early when a
        spill fails (counted) or no candidate remains.
        """
        budget = self.memory_budget_bytes
        if budget is None:
            return
        while self._bytes_in_memory > budget:
            candidates = [
                (self._touch.get(pid, 0), pid)
                for pid, cell in self._cells.items()
                if isinstance(cell, CellState) and pid != protect and cell.registry
            ]
            if not candidates:
                break
            _tick, pid = min(candidates)
            if not self._spill_cell(pid):
                break

    def _spill_cell(self, pid: int) -> bool:
        """Write one cell's registry to disk and stub it; True on success.

        The write runs the ``state.spill`` chaos site first, then the
        storage layer's durable-rename commit (staging file,
        ``durable_replace``), so every spill barrier is visible to the
        crash harness.  Any failure -- injected or real -- is swallowed
        into ``spill_failures`` and leaves the cell fully in memory
        (process kills from the crash harness still propagate).
        """
        cell = self._cells[pid]
        path = self._spill_path(pid)
        tmp = path + "._tmp"
        try:
            if self._injector_source is not None:
                injector = self._injector_source()
                if injector is not None:
                    injector.check("state.spill", key=pid)
            rows = [
                (rid, st, value, t_start, t_end)
                for rid, (st, value, t_start, t_end) in cell.registry.items()
            ]
            rows.sort(key=lambda row: row[0])
            with open(tmp, "wb") as handle:
                pickle.dump(rows, handle, protocol=pickle.HIGHEST_PROTOCOL)
            durable_replace(tmp, path)
        except Exception:
            self.spill_failures += 1
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        freed = self._cell_bytes.pop(pid, 0)
        self._cells[pid] = SpilledCell(
            path,
            len(rows),
            freed,
            cell._min_x,
            cell._min_y,
            cell._max_x,
            cell._max_y,
            cell.t_min,
            cell.t_max,
        )
        self._retired_rebuilds += cell.rebuilds
        self._touch.pop(pid, None)
        self._bytes_in_memory -= freed
        self._spilled_bytes += freed
        self.cells_spilled += 1
        return True

    def _load_cell(self, pid: int) -> CellState:
        """Bring a spilled cell back in memory (transparent reload).

        Applies the stub's dead set, re-accounts bytes, removes the
        spill file, and re-enforces the budget (the loaded cell itself
        is protected, so a load can push *other* cold cells out but
        never bounce straight back to disk).
        """
        stub = self._cells[pid]
        with open(stub.path, "rb") as handle:
            rows = pickle.load(handle)
        cell = CellState()
        total = 0
        dead = stub.dead
        for rid, st, value, t_start, t_end in rows:
            if rid in dead:
                continue
            cell.insert(rid, st, value, t_start, t_end)
            total += estimate_record_bytes(st, value)
        self._cells[pid] = cell
        try:
            os.remove(stub.path)
        except OSError:
            pass
        self._cell_bytes[pid] = total
        self._bytes_in_memory += total
        self._spilled_bytes -= stub.bytes
        self.cells_loaded += 1
        self._tick += 1
        self._touch[pid] = self._tick
        if self.memory_budget_bytes is not None and self._bytes_in_memory > self.memory_budget_bytes:
            self._enforce_budget(protect=pid)
        return cell

    def _peek_rows(self, cell: "CellState | SpilledCell") -> list[tuple]:
        """A cell's live rows *without* loading a stub back into memory.

        Read-only paths (window iteration, snapshots) use this so a
        full-state scan does not thrash the budget by paging every
        spilled cell back in.
        """
        if isinstance(cell, SpilledCell):
            with open(cell.path, "rb") as handle:
                rows = pickle.load(handle)
            dead = cell.dead
            return [row for row in rows if row[0] not in dead]
        return [
            (rid, st, value, t_start, t_end)
            for rid, (st, value, t_start, t_end) in cell.registry.items()
        ]

    def snapshot(self) -> dict:
        """Picklable store state for checkpoints.

        The per-cell R-trees are deliberately *not* serialized: the
        snapshot carries the universe, every live ``(rid, st, value,
        t_start, t_end)`` row sorted by rid, and the cumulative spill
        counters.  Spilled cells are embedded too (their rows read from
        disk without loading them back), so a snapshot is
        self-contained and never depends on a spill file outliving the
        process.
        """
        universe = None
        if self._partitioner is not None:
            u = self._partitioner.universe
            universe = (u.min_x, u.min_y, u.max_x, u.max_y)
        rows: list[tuple] = []
        for cell in list(self._cells.values()):
            rows.extend(self._peek_rows(cell))
        rows.sort(key=lambda row: row[0])
        return {
            "universe": universe,
            "records": rows,
            "cells_spilled": self.cells_spilled,
            "cells_loaded": self.cells_loaded,
            "spill_failures": self.spill_failures,
        }

    def restore(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot` (recovery).

        Every row re-enters through :meth:`insert`, which marks its
        cell dirty -- the first query touching a cell after recovery
        rebuilds its tree lazily, like any other mutation -- and
        re-spills under the same budget.
        """
        universe = snapshot["universe"]
        self._reset(None if universe is None else Envelope(*universe))
        # Carry the crashed run's cumulative spill counters forward
        # *before* re-inserting, so spills triggered by the restore
        # itself keep counting on top of them.
        self.cells_spilled = snapshot["cells_spilled"]
        self.cells_loaded = snapshot["cells_loaded"]
        self.spill_failures = snapshot["spill_failures"]
        for rid, st, value, t_start, t_end in snapshot["records"]:
            self.insert(rid, st, value, t_start, t_end)

    # -- window membership -------------------------------------------------

    def iter_window(self, window: Window | None) -> Iterator[tuple[int, STObject, Any]]:
        """Every live ``(rid, STObject, value)`` whose span intersects
        *window* (all live records when *window* is None).

        Spilled cells surviving the temporal prune are *peeked* from
        disk, not loaded -- iteration is read-only and must not churn
        the memory budget.
        """
        for cell in list(self._cells.values()):
            if window is not None and not cell.intersects_time(window.start, window.end):
                continue
            if isinstance(cell, SpilledCell):
                for rid, st, value, t_start, t_end in self._peek_rows(cell):
                    if window is None or window.intersects_span(t_start, t_end):
                        yield rid, st, value
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
        surviving cells answer from their R-tree, and candidates are
        refined with the exact predicate -- the live-indexing shape of
        :func:`repro.core.filter.filter_live_index`, scoped to the
        touched cells only.  Equal to the batch filter over the
        window's records under the static-side relaxation.
        """
        predicate = relax_static(resolve_predicate(predicate))
        region = predicate.candidate_region(query.geo.envelope)
        out: list[Record] = []
        for pid, cell in list(self._cells.items()):
            if not cell.extent.intersects(region):
                continue
            if window is not None and not cell.intersects_time(window.start, window.end):
                continue
            if isinstance(cell, SpilledCell):
                # Pruning failed to exclude it, so the query genuinely
                # needs this cell's tree: transparent reload on touch.
                cell = self._load_cell(pid)
            registry = cell.registry
            for rid in cell.tree(self.node_capacity).query(region):
                st, value, t_start, t_end = registry[rid]
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
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        fn = resolve(distance_fn)
        centroid = query.geo.centroid()
        slack = query_radius(query.geo)
        prune = fn is euclidean

        ranked = []
        for pid, cell in list(self._cells.items()):
            if window is not None and not cell.intersects_time(window.start, window.end):
                continue
            bound = (
                max(0.0, cell.extent.distance_to_point(centroid.x, centroid.y) - slack)
                if prune
                else 0.0
            )
            ranked.append((bound, pid))
        # Stable sort on the bound alone: tied cells keep store insertion
        # order, so tied records rank exactly as the batch operator's.
        ranked.sort(key=lambda pair: pair[0])

        # A max-heap of the k best (negated distance, tie, record).
        best: list[tuple[float, int, Record]] = []
        tie = itertools.count()
        for bound, pid in ranked:
            if prune and len(best) == k and bound > -best[0][0]:
                break
            cell = self._cells.get(pid)
            if cell is None:
                continue
            if isinstance(cell, SpilledCell):
                # This cell's bound beat the current k-th distance, so
                # its records must be scanned: reload it.  Cells the
                # bound check already rejected stay on disk.
                cell = self._load_cell(pid)
            for _rid, (st, value, t_start, t_end) in cell.registry.items():
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
                    heapq.heappush(best, (-d, next(tie), (st, value)))
                elif d < -best[0][0]:
                    heapq.heapreplace(best, (-d, next(tie), (st, value)))
        return sorted(((-nd, record) for nd, _t, record in best), key=lambda p: p[0])


class KeyedWindowState:
    """Event-time windowing over a :class:`KeyedStateStore`.

    ``add_batch`` assigns each record to every window its temporal
    component intersects and advances the watermark to ``max event end
    seen - lateness``; a window is ready once the watermark passes its
    end, and windows close in ascending order.  Records are not
    buffered per window: each is inserted into the store exactly once,
    an open window holds only its records' ids, in arrival order (so
    closing a window touches its own records and no others), and the
    watermark passing a record's *last* window evicts it -- the
    entering/leaving-only cost profile of the module docstring.

    :meth:`WindowSpec.assign` alone decides membership.  Its float
    arithmetic can leave an instant in a one-ulp gap between two
    tumbling windows and then names the nearest one; such a record is
    stored with its span moved inside that window, so the store's
    span-based views (the continuous queries) agree with the id lists.

    Late arrivals are counted, not silently lost: ``late_dropped`` is
    the records whose *every* window had fired, ``late_window_drops``
    each closed window a partially-late record missed (it still lands
    in its open ones).

    ``add_batch`` stages its work in two passes -- all window
    assignment (the part that can raise) first, all mutation second --
    so a failed batch leaves no partial state behind and a retried
    batch cannot double-insert.
    """

    def __init__(self, spec: WindowSpec, store: KeyedStateStore, lateness: float = 0.0) -> None:
        if lateness < 0:
            raise ValueError(f"lateness must be >= 0, got {lateness}")
        self.spec = spec
        self.store = store
        self.lateness = lateness
        self.watermark = -_INF
        self._closed_horizon = -_INF
        #: open window -> ids of its records, in arrival order.
        self._members: dict[Window, list[int]] = {}
        #: (last window end, rid) eviction heap.
        self._eviction: list[tuple[float, int]] = []
        # A plain int rather than itertools.count: the counter is part
        # of checkpointed state and must be snapshot/restorable.
        self._next_rid = 0
        #: Records whose every window had already fired on arrival.
        self.late_dropped = 0
        #: Per-window contributions lost to already-fired windows.
        self.late_window_drops = 0

    def add_batch(
        self, records: list[Record], batch_time: float
    ) -> list[tuple[int, STObject, Any]]:
        """Insert *records* into the store and advance the watermark.

        Returns the inserted ``(rid, STObject, value)`` rows so per-record
        query hooks (the stream-static join's ingest-time probe) run
        exactly once per accepted record.
        """
        max_end = self.watermark + self.lateness
        staged: list[tuple[STObject, Any, float, float, list[Window]]] = []
        late_records = late_windows = 0
        assign = self.spec.assign
        horizon = self._closed_horizon
        for st, value in records:
            t_start, t_end = event_span(st, batch_time)
            if t_end > max_end:
                max_end = t_end
            windows = assign(t_start, t_end)
            only = windows[0]
            if not (t_start < only.end and t_end >= only.start):
                # assign's nearest-window fallback (see the class docstring).
                t_start = t_end = min(max(t_start, only.start), math.nextafter(only.end, -_INF))
            live = [w for w in windows if w.end > horizon]
            late_windows += len(windows) - len(live)
            if not live:
                late_records += 1
                continue
            staged.append((st, value, t_start, t_end, live))
        inserted: list[tuple[int, STObject, Any]] = []
        members = self._members
        insert = self.store.insert
        for st, value, t_start, t_end, live in staged:
            rid = self._next_rid
            self._next_rid += 1
            insert(rid, st, value, t_start, t_end)
            heapq.heappush(self._eviction, (live[-1].end, rid))
            for window in live:
                try:
                    members[window].append(rid)
                except KeyError:
                    members[window] = [rid]
            inserted.append((rid, st, value))
        self.late_dropped += late_records
        self.late_window_drops += late_windows
        self.watermark = max(self.watermark, max_end - self.lateness)
        return inserted

    def ready_windows(self) -> list[Window]:
        """Windows the watermark has passed, ascending (not yet closed --
        their records stay queryable until :meth:`close_window`)."""
        return sorted(w for w in self._members if w.end <= self.watermark)

    def window_records(self, window: Window) -> list[Record]:
        """An open window's ``(STObject, value)`` records, in arrival
        order -- what the window outputs are handed."""
        return [row[:2] for row in map(self.store.get, self._members.get(window, ()))]

    def close_window(self, window: Window) -> list[int]:
        """Mark *window* fired: advance the closed horizon and evict every
        record whose last window has now closed.  Returns evicted rids."""
        self._members.pop(window, None)
        if window.end > self._closed_horizon:
            self._closed_horizon = window.end
        evicted: list[int] = []
        while self._eviction and self._eviction[0][0] <= self._closed_horizon:
            _end, rid = heapq.heappop(self._eviction)
            self.store.remove(rid)
            evicted.append(rid)
        return evicted

    @property
    def open_windows(self) -> int:
        """How many windows currently have live records."""
        return len(self._members)

    def snapshot(self) -> dict:
        """Picklable windowing state, the store's snapshot included.

        Which record is in which open window, and when it leaves, is
        not stored: :meth:`restore` re-derives both from the store's
        rows through the spec the live pipeline declares.
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
        self._members = {}
        self._eviction = []
        for rid, _st, _value, t_start, t_end in snapshot["store"]["records"]:
            live = [w for w in self.spec.assign(t_start, t_end) if w.end > horizon]
            for window in live:
                self._members.setdefault(window, []).append(rid)
            self._eviction.append((live[-1].end, rid))
        heapq.heapify(self._eviction)


# -- continuous queries ----------------------------------------------------


class ContinuousQuery:
    """One standing query evaluated against the store per closed window.

    Subclasses implement :meth:`evaluate`; :meth:`on_insert` /
    :meth:`on_evict` are the incremental hooks (the stream-static join
    matches each record once, at ingest).  Results accumulate in
    ``sink`` as ``(window, result)`` pairs, the windowed-sink contract.
    """

    def __init__(self) -> None:
        from repro.streaming.dstream import Sink

        self.sink = Sink()

    def on_insert(self, rid: int, st: STObject, value: Any) -> None:
        """Incremental per-record hook at ingest (default: nothing)."""

    def on_evict(self, rid: int) -> None:
        """Incremental per-record hook at eviction (default: nothing)."""

    def evaluate(self, store: KeyedStateStore, window: Window) -> Any:
        """The window's result (subclass responsibility)."""
        raise NotImplementedError

    def emit(self, store: KeyedStateStore, window: Window) -> None:
        """Evaluate and record one closed window."""
        self.sink.append(window, self.evaluate(store, window))


class ContinuousRange(ContinuousQuery):
    """Continuous range/predicate filter (default: paper eq. (1))."""

    def __init__(self, query: "STObject | str", predicate: "str | STPredicate" = INTERSECTS) -> None:
        super().__init__()
        self.query = query if isinstance(query, STObject) else STObject(query)
        self.predicate = relax_static(resolve_predicate(predicate))

    def evaluate(self, store: KeyedStateStore, window: Window) -> list[Record]:
        return store.query_range(self.query, self.predicate, window)


class ContinuousKnn(ContinuousQuery):
    """Continuous k-nearest-neighbours of a fixed query object."""

    def __init__(
        self,
        query: "STObject | str",
        k: int,
        distance_fn: "str | DistanceFunction" = euclidean,
    ) -> None:
        super().__init__()
        self.query = query if isinstance(query, STObject) else STObject(query)
        self.k = k
        self.distance_fn = distance_fn

    def evaluate(self, store: KeyedStateStore, window: Window) -> list[tuple[float, Record]]:
        return store.query_knn(self.query, self.k, window, self.distance_fn)


class ContinuousJoinStatic(ContinuousQuery):
    """Continuous stream-static join against a fixed reference dataset.

    The reference is R-tree-indexed once; each stream record is probed
    against it exactly *once*, at ingest, and the matches are cached by
    record id -- a window's join result is then just the union of the
    cached matches of the records in the window, however many sliding
    windows the record lives through.  Same output contract as
    :func:`repro.streaming.operators.stream_static_join`.
    """

    def __init__(
        self,
        reference: Sequence[Record],
        predicate: "str | STPredicate" = INTERSECTS,
        order: int = 10,
    ) -> None:
        super().__init__()
        self.predicate = relax_static(resolve_predicate(predicate))
        self._tree = build_static_index(reference, order)
        self._matches: dict[int, list[Record]] = {}
        self.probes = 0

    def on_insert(self, rid: int, st: STObject, value: Any) -> None:
        self.probes += 1
        matched = [
            (ref_st, ref_value)
            for ref_st, ref_value in self._tree.query(st.geo.envelope)
            if self.predicate.evaluate(st, ref_st)
        ]
        if matched:
            self._matches[rid] = matched

    def on_evict(self, rid: int) -> None:
        self._matches.pop(rid, None)

    def evaluate(self, store: KeyedStateStore, window: Window) -> list[tuple[Record, Record]]:
        out: list[tuple[Record, Record]] = []
        for rid, st, value in store.iter_window(window):
            for ref_st, ref_value in self._matches.get(rid, ()):
                out.append(((st, value), (ref_st, ref_value)))
        return out


class StoreBackedConsumer:
    """What ``window()``, ``continuous()`` and ``patterns()`` consume through.

    The part of the consumer protocol that does not depend on what is
    computed over the records: one :class:`KeyedStateStore` wired to
    the context's fault injector, the absorbed-batch mark that makes
    :meth:`absorb` idempotent per batch id (the retry contract), the
    ``state.update`` chaos site, the window outputs the context wires
    its sink protections into, and the registration index.  Subclasses
    supply ``absorb`` / ``fire`` / ``flush`` / ``snapshot_state`` /
    ``restore_state`` and the ``late_dropped`` / ``late_window_drops``
    counters the context mirrors into its metrics.
    """

    def __init__(
        self,
        node,
        universe: Envelope | None,
        grid: int,
        node_capacity: int,
        memory_budget_bytes: int | None,
        spill_dir: str | None,
    ) -> None:
        self.node = node
        #: The keyed store (its grid unfixed until the first record
        #: when no universe was given).
        self.store = KeyedStateStore(
            universe,
            grid=grid,
            node_capacity=node_capacity,
            memory_budget_bytes=memory_budget_bytes,
            spill_dir=spill_dir,
            injector_source=self._injector,
        )
        #: ``output(window, rdd)`` callables run per emitted window.
        self.outputs: list[Callable[[Window, Any], None]] = []
        self._absorbed_batch: int | None = None
        #: Registration order in the context; the consumer's stable
        #: identity in checkpoints and the emitted-window ledger (object
        #: ids do not survive a restart, registration order does because
        #: recovery requires the pipeline to be re-declared identically).
        self.checkpoint_index: int = -1

    def _injector(self):
        """The context's live fault injector (the store's chaos source)."""
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

    Bridges one DStream node to a :class:`KeyedWindowState`: per batch
    the streaming context collects the chain's records and calls
    :meth:`absorb`, and :meth:`fire` emits every ready window -- the
    registered continuous queries answer from the store, the window
    outputs receive the window's records as an RDD -- before the
    window's leavers are evicted.
    """

    def __init__(
        self,
        node,
        spec: WindowSpec,
        lateness: float = 0.0,
        universe: Envelope | None = None,
        grid: int = 8,
        node_capacity: int = 10,
        memory_budget_bytes: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        super().__init__(node, universe, grid, node_capacity, memory_budget_bytes, spill_dir)
        self.spec = spec
        self.state = KeyedWindowState(spec, self.store, lateness)
        self.queries: list[ContinuousQuery] = []
        self._pending_hooks: deque[tuple[int, STObject, Any]] = deque()

    @property
    def late_dropped(self) -> int:
        """Records whose every window had already fired on arrival."""
        return self.state.late_dropped

    @property
    def late_window_drops(self) -> int:
        """Per-window contributions lost to already-fired windows."""
        return self.state.late_window_drops

    def add_query(self, query: ContinuousQuery) -> ContinuousQuery:
        """Register one standing query; returns it for sink access."""
        self.queries.append(query)
        return query

    def absorb(self, batch_id: int, records: list[Record], batch_time: float) -> None:
        """Insert one batch into keyed state (idempotent per batch id).

        A fault mid-absorb (chaos or otherwise) leaves the batch
        unmarked, the staged two-pass :meth:`KeyedWindowState.
        add_batch` leaves no partial inserts, and the retried batch
        absorbs cleanly.
        """
        if not self._begin(batch_id, records):
            return
        inserted = self.state.add_batch(records, batch_time)
        self._absorbed_batch = batch_id
        if self.queries:
            self._pending_hooks.extend(inserted)

    def _run_insert_hooks(self) -> None:
        # Drained before any window evaluates; a record is popped only
        # after every query's hook ran, and re-running a hook for the
        # same rid just overwrites the same cached result, so a failure
        # mid-drain replays safely on the batch retry.
        while self._pending_hooks:
            rid, st, value = self._pending_hooks[0]
            for query in self.queries:
                query.on_insert(rid, st, value)
            self._pending_hooks.popleft()

    def fire(self, ssc) -> int:
        """Emit each ready window, ascending, then evict its leavers.

        A window stays open until all of its queries and outputs ran --
        a failure mid-fire leaves it ready for the batch retry, the
        at-least-once contract.  Outputs are handed the window's
        records in arrival order.
        The context's emit gate suppresses windows a crashed process
        already delivered: the window's state transitions (closed
        horizon, eviction, ``on_evict``) still run, only the query
        evaluation, the outputs and the ledger note are skipped.
        """
        self._run_insert_hooks()
        fired = 0
        for window in self.state.ready_windows():
            if ssc._recovery.emit_allowed(self, window):
                for query in self.queries:
                    query.emit(self.store, window)
                if self.outputs:
                    rdd = ssc._batch_rdd(self.state.window_records(window))
                    for output in self.outputs:
                        output(window, rdd)
                ssc._recovery.note_emitted(self, window)
                fired += 1
            evicted = self.state.close_window(window)
            for query in self.queries:
                for rid in evicted:
                    query.on_evict(rid)
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
            "pending_hooks": list(self._pending_hooks),
            "state": self.state.snapshot(),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot_state` (recovery entry point).

        After the registry is rebuilt, every query's ``on_insert`` hook
        re-runs over the live records to reconstruct incremental caches
        (the stream-static join's per-record match cache).  The hooks
        are idempotent -- re-probing a record overwrites the same cached
        result -- so overlap with still-pending hooks is harmless.
        """
        self._absorbed_batch = snapshot["absorbed"]
        self._pending_hooks = deque(tuple(row) for row in snapshot["pending_hooks"])
        self.state.restore(snapshot["state"])
        for query in self.queries:
            for rid, st, value in self.store.iter_window(None):
                query.on_insert(rid, st, value)

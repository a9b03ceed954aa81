"""A Sort-Tile-Recursive (STR) bulk-loaded R-tree: the one index kernel.

This is the reproduction of the JTS ``STRtree`` STARK uses to index
partition contents.  STR packing (Leutenegger et al.) sorts entries by
x-center into vertical slices, sorts each slice by y-center, and packs
runs of *node_capacity* entries into nodes, recursing until a single
root remains.  The tree is build-once (like JTS): queries are available
after construction, inserts are not.

Both partition indexes are faces over this module: :class:`STRTree`
(2D) and :class:`~repro.index.rtree3d.STRTree3D` (x, y, t).  A
tree's kind shows only in how its entry boxes are made and in how many
axes the tiling sorts on; the bulk load, the box merge, the range
traversal and the branch-and-bound ``nearest`` below exist once.

**Box layout.**  Boxes are plain float tuples tested inline in the
traversal loops: ``(min_x, min_y, max_x, max_y)`` in a 2-axis tree,
``(min_x, min_y, max_x, max_y, min_t, max_t)`` in a 3-axis one.  The
spatial prefix is shared, so whatever looks at space alone
(``nearest``, ``envelope``) reads both kinds alike.

**The 2-axis tiling order is frozen** -- sort keys ``(min + max) / 2.0``,
same slice and chunk sizes -- because the order of range candidates and
of exact-distance kNN ties follows from it, and the equality suites pin
both.

Supported queries:

- :meth:`STRTree.query` -- all items whose envelope intersects a query
  envelope (returns *candidates*; exact predicates refine them, as in
  the paper's live-indexing description),
- :meth:`STRTree.nearest` -- k nearest items to a point by
  branch-and-bound, with an optional exact distance callback so
  refinement happens inside the traversal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Generic, Iterable, Iterator, TypeVar

from repro.geometry.envelope import Envelope
from repro.spark.cancellation import Heartbeat

T = TypeVar("T")

DEFAULT_NODE_CAPACITY = 10

_INF = float("inf")

#: The root row of a tree without entries: an empty leaf under the
#: canonical empty box (t-range included, for the 3-axis face).
_EMPTY_ROOT_BOX = (_INF, _INF, -_INF, -_INF, _INF, -_INF)

#: ``nearest``'s heap rows: a node, an item under its box bound, a final item.
_NODE, _BOUNDED, _FINAL = range(3)
#: How far under its box bound, relative to the magnitudes in play, an
#: item waits for refinement.  Rounded, an exact distance can come out an
#: ulp under the bound; keyed at the bound, the item could pop after a
#: row that refining it on arrival would have put behind it.
_KEY_MARGIN = 2.0**-32


class _Node:
    """``rows`` of ``(box, child)``: the children are the stored items in a
    leaf and nodes above it; a node's own box lives in its parent's row."""

    __slots__ = ("leaf", "rows")

    def __init__(self, leaf: bool, rows: list[tuple[tuple, object]]) -> None:
        self.leaf = leaf
        self.rows = rows


def _cover(rows: list[tuple[tuple, object]]) -> tuple:
    """The smallest box covering every row's box (the one box merge)."""
    columns = list(zip(*[box for box, _child in rows]))
    cover = (min(columns[0]), min(columns[1]), max(columns[2]), max(columns[3]))
    if len(columns) == 6:
        cover += (min(columns[4]), max(columns[5]))
    return cover


def _t_center(row: tuple[tuple, object]) -> float:
    # Open-ended t-ranges center at 0.
    mid = (row[0][4] + row[0][5]) / 2.0
    return mid if math.isfinite(mid) else 0.0


#: Sort key per tiling axis: the center of a row's box along x, y, t.
_CENTER_OF_AXIS = (
    lambda row: (row[0][0] + row[0][2]) / 2.0,
    lambda row: (row[0][1] + row[0][3]) / 2.0,
    _t_center,
)


def _str_tiles(rows: list, cap: int, axes: int) -> Iterator[list]:
    """Group rows into runs of *cap* by Sort-Tile-Recursive order.

    A run of n rows with d axes to go holds ``P = ceil(n / cap)`` tiles:
    sort it by the current axis' center, cut it into ``ceil(P ** (1/d))``
    slabs and tile each slab over the other ``d - 1`` axes; on the last
    axis cut into tiles of *cap*.  Over 2 axes these are the classic
    sqrt(P) vertical slices, over 3 roughly cubic slabs.  Two or more
    rows always come back as fewer tiles, so packing ends in one root.
    """
    # Bulk-loading a large partition's index can take seconds; one
    # beat per tile keeps the build cancellable under a deadline.
    return _tile(rows, 0, cap, axes, Heartbeat(every=64))


def _tile(run: list, axis: int, cap: int, axes: int, heartbeat: Heartbeat) -> Iterator[list]:
    """:func:`_str_tiles` from *axis* on.  A module function, not a
    closure: a recursive closure is a reference cycle, which would leave
    every build's closure and heartbeat to the cyclic collector."""
    ordered = sorted(run, key=_CENTER_OF_AXIS[axis])
    to_go = axes - axis
    if to_go == 1:
        size = cap
    else:
        leaf_count = math.ceil(len(ordered) / cap)
        # sqrt, not ** 0.5: the 2-axis tiling is frozen to the last bit.
        root = math.sqrt(leaf_count) if to_go == 2 else leaf_count ** (1.0 / to_go)
        size = math.ceil(len(ordered) / max(1, math.ceil(root)))
    for start in range(0, len(ordered), size):
        chunk = ordered[start : start + size]
        if to_go == 1:
            heartbeat.beat()
            yield chunk
        else:
            yield from _tile(chunk, axis + 1, cap, axes, heartbeat)


def _bulk_load(entries: list[tuple[tuple, T]], cap: int, axes: int):
    """Pack *entries* bottom-up; returns the root's ``(box, node)`` row
    and the leaves in the order the tiling packed them (the levels above
    sort them again)."""
    if not entries:
        return (_EMPTY_ROOT_BOX, _Node(True, [])), []

    def pack(rows: list, leaf: bool) -> list[tuple[tuple, _Node]]:
        tiles = _str_tiles(rows, cap, axes)
        return [(_cover(tile), _Node(leaf, tile)) for tile in tiles]

    level = pack(entries, leaf=True)
    leaves = [node for _box, node in level]
    while len(level) > 1:
        level = pack(level, leaf=False)
    return level[0], leaves


def _search(root, probe: tuple) -> list:
    """Items whose box intersects *probe*, closed bounds on every axis.

    The one range traversal.  A 6-float probe tests the t-range too
    and needs a 3-axis tree; a 4-float probe is spatial only.  A 6-float
    probe tests t first: a query's window is a small share of the
    timeline while a leaf spans many times it, so most rows a timed
    query reads fail on t, and fail there in one or two comparisons
    instead of after four spatial ones.  The test is a pure conjunction
    and rows are visited in the same order, so the list and its order do
    not depend on the axis order.
    """
    out: list = []
    min_x, min_y, max_x, max_y = probe[:4]
    if min_x > max_x:  # the canonical empty, see Envelope
        return out
    stack = [root[1]]
    if len(probe) == 4:
        while stack:
            node = stack.pop()
            hits = out if node.leaf else stack
            for box, child in node.rows:
                if box[0] <= max_x and min_x <= box[2] and box[1] <= max_y and min_y <= box[3]:
                    hits.append(child)
        return out
    min_t, max_t = probe[4:]
    while stack:
        node = stack.pop()
        hits = out if node.leaf else stack
        for box, child in node.rows:
            if (
                box[4] <= max_t
                and min_t <= box[5]
                and box[0] <= max_x
                and min_x <= box[2]
                and box[1] <= max_y
                and min_y <= box[3]
            ):
                hits.append(child)
    return out


class STRTree(Generic[T]):
    """An immutable STR-packed R-tree over (envelope, item) entries.

    ``node_capacity`` is the paper's "order of the tree" parameter
    (``liveIndex(order = 5)`` in the paper's example).
    """

    def __init__(
        self,
        entries: Iterable[tuple[Envelope, T]],
        node_capacity: int = DEFAULT_NODE_CAPACITY,
    ) -> None:
        boxed = (
            ((env.min_x, env.min_y, env.max_x, env.max_y), item)
            for env, item in entries
        )
        self.node_capacity = node_capacity
        #: Every bulk load's leaves, in the order its tiling packed them.
        self._leaves: list[_Node] = []
        self._size, self._root = self._pack(boxed, axes=2)

    def _pack(self, boxed: Iterable[tuple], axes: int) -> tuple[int, tuple]:
        """``(entries kept, root row)`` of one bulk load of ``(box, item)``
        entries over *axes*; spatially empty boxes are dropped."""
        if self.node_capacity < 2:
            raise ValueError(f"node capacity must be >= 2, got {self.node_capacity}")
        entries = [entry for entry in boxed if entry[0][0] <= entry[0][2]]
        root, leaves = _bulk_load(entries, self.node_capacity, axes)
        self._leaves += leaves
        return len(entries), root

    def _roots(self) -> tuple:
        """The root rows of the tree's bulk loads (one for a 2D tree)."""
        return (self._root,)

    def __len__(self) -> int:
        return self._size

    @property
    def envelope(self) -> Envelope:
        """Spatial bounds of the whole tree (empty for an empty tree)."""
        return Envelope(*_cover(self._roots())[:4])

    @property
    def height(self) -> int:
        """Levels from root to leaves; 0 for an empty tree."""
        levels, node = min(1, self._size), self._root[1]
        while not node.leaf:
            levels += 1
            node = node.rows[0][1]
        return levels

    # -- queries ---------------------------------------------------------------

    def query(self, envelope: Envelope) -> list[T]:
        """All items whose envelope intersects *envelope* (candidates)."""
        return _search(
            self._root, (envelope.min_x, envelope.min_y, envelope.max_x, envelope.max_y)
        )

    def query_st(self, region: Envelope, time) -> list[T]:
        """The candidates for a probe by *region* and *time*: the
        partition-index contract.  A spatial tree ignores *time*
        (refinement applies the temporal predicate).
        """
        return self.query(region)

    def _leaf_rows(self) -> Iterator[tuple[tuple, T]]:
        """Every leaf row, in the order the tiling packed them."""
        for leaf in self._leaves:
            yield from leaf.rows

    def items(self) -> list[T]:
        """Every stored item, in the order the leaf tiling packed them.

        Bulk-loading these items again with the same kind and capacity
        packs the same tree: every sort of the tiling is stable, and in
        this order two items whose keys tie come in the order that put
        them in their tiles.  (Not so in the tree's left-to-right order:
        the levels above the leaves sort the leaves again.)  A persisted
        index stores these items and rebuilds from them.
        """
        return [item for leaf in self._leaves for _box, item in leaf.rows]

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        exact_distance: Callable[[T], float] | None = None,
        bound_slack: float = 0.0,
    ) -> list[tuple[float, T]]:
        """The *k* items nearest to ``(x, y)``, as (distance, item) ascending.

        Best-first branch-and-bound over box lower bounds.  With
        *exact_distance* the true geometry distance ranks items; it is
        computed only for an item that reaches the top of the heap, so
        only items that can still make the answer are refined.  Without
        it, box distance is the metric -- exact for points, a candidate
        ranking for extended geometries.  Only the spatial prefix of a
        box is read: kNN has no temporal predicate, and the spatial
        projection of a 3-axis box is a valid lower bound for every
        member.

        ``bound_slack`` loosens every box lower bound by that amount.
        It exists for probes by *extended* geometries: when ``(x, y)``
        is the centroid of a geometry with "radius" r (max
        centroid-to-boundary distance), the exact geometry distance can
        undercut the box-to-centroid bound by at most r, so passing
        ``bound_slack=r`` keeps pruning admissible.
        """
        if k < 1:
            return []
        hypot, push, pop = math.hypot, heapq.heappush, heapq.heappop
        counter = itertools.count()  # tie-break, keeps heap entries comparable
        # Heap rows are (key, tie, state, payload); the roots are the
        # rows of one virtual node.  Refining an item never lowers its
        # key and keeps its tie, so the heap pops in the order that
        # refining on arrival would: the first k final items are the answer.
        frontier = [(0.0, next(counter), _NODE, _Node(False, self._roots()))]
        inner = (_NODE, 1.0, bound_slack)
        if exact_distance is None:
            leaf = (_FINAL, 1.0, bound_slack)
        else:
            margin = _KEY_MARGIN * (abs(x) + abs(y) + bound_slack)
            leaf = (_BOUNDED, 1.0 - _KEY_MARGIN, bound_slack + margin)
        best: list[tuple[float, T]] = []
        while frontier and len(best) < k:
            key, tie, state, payload = frontier[0]
            if state == _FINAL:
                best.append((key, pop(frontier)[3]))
            elif state == _BOUNDED:
                heapq.heapreplace(frontier, (exact_distance(payload), tie, _FINAL, payload))
            else:
                pop(frontier)
                state, scale, slack = leaf if payload.leaf else inner
                for box, child in payload.rows:  # the box bound, inlined
                    dx = box[0] - x if box[0] > x else x - box[2] if x > box[2] else 0.0
                    dy = box[1] - y if box[1] > y else y - box[3] if y > box[3] else 0.0
                    push(frontier, (hypot(dx, dy) * scale - slack, next(counter), state, child))
        return best

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={len(self)}, "
            f"capacity={self.node_capacity}, height={self.height})"
        )

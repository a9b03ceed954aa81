"""A Sort-Tile-Recursive (STR) bulk-loaded R-tree: the one index kernel.

This is the reproduction of the JTS ``STRtree`` STARK uses to index
partition contents.  STR packing (Leutenegger et al.) sorts entries by
x-center into vertical slices, sorts each slice by y-center, and packs
runs of *node_capacity* entries into nodes, recursing until a single
root remains.  The tree is build-once (like JTS): queries are available
after construction, inserts are not.

Every partition index is a face over this module: :class:`STRTree`
(2D), :class:`~repro.index.rtree3d.STRTree3D` (x, y, t) and the slice
trees of :class:`~repro.index.temporal_forest.TimeSlicedForest`.  A
tree's kind shows only in how its entry boxes are made and in how many
axes the tiling sorts on; the bulk load, the box merge, the range
traversal and the branch-and-bound ``nearest`` below exist once.

**Box layout.**  Boxes are plain float tuples tested inline in the
traversal loops: ``(min_x, min_y, max_x, max_y)`` in a 2-axis tree,
``(min_x, min_y, max_x, max_y, min_t, max_t)`` in a 3-axis one.  The
spatial prefix is shared, so whatever looks at space alone
(``nearest``, ``envelope``, ``iter_entries``) reads both kinds alike.

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
    heartbeat = Heartbeat(every=64)

    def tile(run: list, axis: int) -> Iterator[list]:
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
                yield from tile(chunk, axis + 1)

    return tile(rows, 0)


def _bulk_load(entries: list[tuple[tuple, T]], cap: int, axes: int):
    """Pack *entries* bottom-up; returns the root's ``(box, node)`` row."""
    if not entries:
        return _EMPTY_ROOT_BOX, _Node(True, [])

    def pack(rows: list, leaf: bool) -> list[tuple[tuple, _Node]]:
        tiles = _str_tiles(rows, cap, axes)
        return [(_cover(tile), _Node(leaf, tile)) for tile in tiles]

    level = pack(entries, leaf=True)
    while len(level) > 1:
        level = pack(level, leaf=False)
    return level[0]


def _search(root, probe: tuple) -> list:
    """Items whose box intersects *probe*, closed bounds on every axis.

    The one range traversal.  A 6-float probe tests the t-range too
    and needs a 3-axis tree; a 4-float probe is spatial only.
    """
    out: list = []
    min_x, min_y, max_x, max_y = probe[:4]
    if min_x > max_x:  # the canonical empty, see Envelope
        return out
    timed = len(probe) == 6
    min_t, max_t = probe[4:] if timed else (-_INF, _INF)
    stack = [root[1]]
    while stack:
        node = stack.pop()
        hits = out if node.leaf else stack
        for box, child in node.rows:
            if (
                box[0] <= max_x
                and min_x <= box[2]
                and box[1] <= max_y
                and min_y <= box[3]
                and (not timed or (box[4] <= max_t and min_t <= box[5]))
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
        self._size, self._root = self._pack(boxed, axes=2)

    def _pack(self, boxed: Iterable[tuple], axes: int) -> tuple[int, tuple]:
        """``(entries kept, root row)`` of one bulk load of ``(box, item)``
        entries over *axes*; spatially empty boxes are dropped."""
        if self.node_capacity < 2:
            raise ValueError(f"node capacity must be >= 2, got {self.node_capacity}")
        entries = [entry for entry in boxed if entry[0][0] <= entry[0][2]]
        return len(entries), _bulk_load(entries, self.node_capacity, axes)

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

    def query_st(self, region: Envelope, time) -> tuple[list[T], int]:
        """``(candidates, slices_pruned)``: the partition-index contract.

        A spatial tree ignores *time* (refinement applies the temporal
        predicate) and prunes no slices.
        """
        return self.query(region), 0

    def _leaf_rows(self) -> Iterator[tuple[tuple, T]]:
        stack = [node for _box, node in self._roots()]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.rows
            else:
                stack.extend(child for _box, child in node.rows)

    def iter_entries(self) -> Iterator[tuple[Envelope, T]]:
        """Every entry as ``(spatial envelope, item)`` (arbitrary order).

        The 2D projection is the persistence sidecar's one format for
        every index kind; a damaged part is rebuilt from its items in the
        mode the index was saved in.
        """
        for box, item in self._leaf_rows():
            yield Envelope(*box[:4]), item

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        exact_distance: Callable[[T], float] | None = None,
        bound_slack: float = 0.0,
    ) -> list[tuple[float, T]]:
        """The *k* items nearest to ``(x, y)``, as (distance, item) ascending.

        Branch-and-bound over node boxes: a node is expanded only when
        its box distance beats the current k-th best.  With
        *exact_distance* the true geometry distance ranks items (the
        box distance remains the admissible lower bound); without it,
        box distance is the metric -- exact for points, a candidate
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

        def lower_bound(box: tuple) -> float:
            dx = max(box[0] - x, x - box[2], 0.0)
            dy = max(box[1] - y, y - box[3], 0.0)
            return math.hypot(dx, dy) - bound_slack

        counter = itertools.count()  # tie-break, keeps heap entries comparable
        # Heap rows are (distance, tie, final, payload): an item whose
        # distance is final, or a node still to expand.  The heap pops
        # in ascending order, so the first k items to come off it are
        # the answer and every unexpanded node is no nearer.
        frontier: list = []
        for box, root in self._roots():
            heapq.heappush(frontier, (lower_bound(box), next(counter), False, root))
        best: list[tuple[float, T]] = []
        while frontier and len(best) < k:
            distance, _tie, final, payload = heapq.heappop(frontier)
            if final:
                best.append((distance, payload))
                continue
            exact = exact_distance if payload.leaf else None
            for box, child in payload.rows:
                d = lower_bound(box) if exact is None else exact(child)
                heapq.heappush(frontier, (d, next(counter), payload.leaf, child))
        return best

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={len(self)}, "
            f"capacity={self.node_capacity}, height={self.height})"
        )

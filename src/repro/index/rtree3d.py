"""The (x, y, t) face of the STR kernel.

The hybrid spatio-temporal index model fuses the temporal dimension
into the index itself instead of leaving it to refinement: every timed
entry is boxed by its spatial envelope *and* its time interval, and a
timed query descends only into nodes whose (x, y, t) box intersects the
query box.  For temporally-selective queries over long histories this
prunes the bulk of the candidates inside the tree, before any exact
predicate runs.

Untimed entries stay out of the (x, y, t) boxes: a time range of
(-inf, inf) would widen every node above them to all time and stop a
timed probe from pruning at all.  They live in a 2D tree beside the 3D
one.  Under the paper's combined semantics (eqs. (1)-(3)) a mixed
timed/untimed pair never matches, so a timed probe searches the 3D tree
only and an untimed probe the 2D tree only; ``query``, ``nearest``,
``items``, ``envelope`` and ``len`` see both.

Everything but the boxing lives in :mod:`repro.index.rtree`: the bulk
load tiles over three axes instead of two, the range traversal tests
the t-range of a 6-float probe, and ``nearest`` / ``envelope`` read
the spatial prefix of both trees' boxes.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

from repro.geometry.envelope import Envelope
from repro.index.rtree import DEFAULT_NODE_CAPACITY, STRTree, _search
from repro.temporal.interval import Interval, TemporalExpression

T = TypeVar("T")


def _box(envelope: Envelope, time: TemporalExpression | None) -> tuple:
    """Box a spatial envelope with its time range; untimed stays 2D."""
    box = (envelope.min_x, envelope.min_y, envelope.max_x, envelope.max_y)
    return box if time is None else (*box, time.start, time.end)


class STRTree3D(STRTree[T]):
    """An immutable STR-packed 3D R-tree over ``(box, item)`` entries.

    A timed entry's box is the 6-float tuple ``(min_x, min_y, max_x,
    max_y, min_t, max_t)``; an untimed entry's is the 4-float spatial
    box and goes to the 2D tree beside the 3D one.  The bulk load
    extends Sort-Tile-Recursive to three dimensions: entries sort by
    x-center into slabs, each slab by y-center into runs, each run by
    t-center into tiles of ``node_capacity`` entries.  Like the 2D tree
    it is build-once: queries only.
    """

    def __init__(
        self,
        entries: Iterable[tuple[tuple, T]],
        node_capacity: int = DEFAULT_NODE_CAPACITY,
    ) -> None:
        self.node_capacity = node_capacity
        self._leaves = []
        timed: list = []
        untimed: list = []
        for entry in entries:
            (timed if len(entry[0]) == 6 else untimed).append(entry)
        self._size, self._root = self._pack(timed, axes=3)
        #: How many entries carry no temporal component (the 2D tree's).
        self.untimed_count, self._untimed_root = self._pack(untimed, axes=2)

    @staticmethod
    def for_stobjects(
        entries: Iterable[tuple], node_capacity: int = DEFAULT_NODE_CAPACITY
    ) -> "STRTree3D":
        """Build from ``(STObject, V)`` pairs, boxing each by envelope + time."""
        return STRTree3D(
            ((_box(kv[0].geo.envelope, kv[0].time), kv) for kv in entries),
            node_capacity,
        )

    def __len__(self) -> int:
        return self._size + self.untimed_count

    def _roots(self) -> tuple:
        return self._root, self._untimed_root

    @property
    def temporal_extent(self) -> Interval | None:
        """The time range covered by the timed entries (the 3D root's), or
        ``None`` without timed entries."""
        lo, hi = self._root[0][4:]
        return Interval(lo, hi) if lo <= hi else None

    def query(self, envelope: Envelope) -> list[T]:
        """All items, timed or not, whose envelope intersects *envelope*."""
        probe = _box(envelope, None)
        return _search(self._root, probe) + _search(self._untimed_root, probe)

    def query_st(self, region: Envelope, time: TemporalExpression | None) -> list[T]:
        """The entries whose box intersects region x time.

        A timed query searches the 3D tree only and an untimed query the
        2D tree only: under the combined semantics no other entry can
        match.
        """
        root = self._untimed_root if time is None else self._root
        return _search(root, _box(region, time))

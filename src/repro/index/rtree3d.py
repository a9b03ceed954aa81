"""The (x, y, t) face of the STR kernel.

The hybrid spatio-temporal index model fuses the temporal dimension
into the index itself instead of leaving it to refinement: every entry
is boxed by its spatial envelope *and* its time interval, and a query
descends only into nodes whose (x, y, t) box intersects the query box.
For temporally-selective queries over long histories this prunes the
bulk of the candidates inside the tree, before any exact predicate
runs.

Untimed entries are boxed with an unbounded time extent so they remain
reachable by untimed probes; the filter operators never route a timed
query at them (a mixed timed/untimed pair can never match under the
paper's combined semantics, eqs. (1)-(3)).

Everything but the boxing lives in :mod:`repro.index.rtree`: the bulk
load tiles over three axes instead of two, the range traversal tests
the t-range of a 6-float probe and only space for the inherited
4-float ``query``, and ``nearest`` / ``iter_entries`` / ``envelope``
read the spatial prefix of the boxes.
"""

from __future__ import annotations

import math
from typing import Iterable, TypeVar

from repro.geometry.envelope import Envelope
from repro.index.rtree import _INF, DEFAULT_NODE_CAPACITY, STRTree, _search
from repro.temporal.interval import Interval, TemporalExpression

T = TypeVar("T")


def _box(envelope: Envelope, time: TemporalExpression | None) -> tuple:
    """Box a spatial envelope with an optional (else unbounded) time range."""
    t_range = (-_INF, _INF) if time is None else (time.start, time.end)
    return (envelope.min_x, envelope.min_y, envelope.max_x, envelope.max_y, *t_range)


class STRTree3D(STRTree[T]):
    """An immutable STR-packed 3D R-tree over ``(box, item)`` entries.

    A box is the 6-float tuple ``(min_x, min_y, max_x, max_y, min_t,
    max_t)``.  The bulk load extends Sort-Tile-Recursive to three
    dimensions: entries sort by x-center into slabs, each slab by
    y-center into runs, each run by t-center into tiles of
    ``node_capacity`` entries.  Like the 2D tree it is build-once:
    queries only.
    """

    def __init__(
        self,
        entries: Iterable[tuple[tuple, T]],
        node_capacity: int = DEFAULT_NODE_CAPACITY,
    ) -> None:
        self._load(entries, node_capacity, axes=3)

    @staticmethod
    def for_stobjects(
        entries: Iterable[tuple], node_capacity: int = DEFAULT_NODE_CAPACITY
    ) -> "STRTree3D":
        """Build from ``(STObject, V)`` pairs, boxing each by envelope + time."""
        return STRTree3D(
            ((_box(kv[0].geo.envelope, kv[0].time), kv) for kv in entries),
            node_capacity,
        )

    @property
    def temporal_extent(self) -> Interval | None:
        """The time range covered by the timed entries, or ``None``.

        An unbounded root t-range means at least one untimed entry; the
        extent is then computed from the timed entries directly.
        """
        lo, hi = self._root[0][4:]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            lo, hi = _INF, -_INF
            for box, _item in self._leaf_rows():
                if math.isfinite(box[4]):
                    lo = min(lo, box[4])
                    hi = max(hi, box[5])
        return Interval(lo, hi) if lo <= hi else None

    def query_st(
        self, region: Envelope, time: TemporalExpression | None
    ) -> tuple[list[T], int]:
        """``(candidates, 0)``: entries whose box intersects region x time.

        An untimed query uses an unbounded time range, so it reaches
        every entry the spatial test admits (refinement then rejects
        the timed ones under the combined semantics).  The tree has no
        slices to skip, so ``slices_pruned`` is always 0.
        """
        return _search(self._root, _box(region, time)), 0

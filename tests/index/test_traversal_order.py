"""The range traversal answers alike whatever axis order it tests in.

``_search`` tests a 6-float probe's t-range before its box.  These tests
hold ``STRTree.query`` and ``STRTree3D.query`` / ``query_st`` to a copy
of the x, y, t loop it replaced: the same list in the same order, over
timed and untimed mixes, zero-extent and duplicate boxes, rows on a
probe's closed bounds, empty probes, open-ended intervals, and probes
narrowest on each axis in turn.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.envelope import Envelope
from repro.index.rtree import STRTree
from repro.index.rtree3d import STRTree3D
from repro.temporal import Interval

_INF = math.inf


def fixed_order_search(root, probe):
    """The traversal as it was: x, then y, then (6-float probes) t."""
    out = []
    min_x, min_y, max_x, max_y = probe[:4]
    if min_x > max_x:
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


# A small integer grid makes zero-extent and duplicate boxes common.
_at = st.integers(min_value=0, max_value=20).map(float)
_extent = st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0])
_row_time = st.one_of(
    st.none(),
    st.tuples(_at, st.just(0.0)),  # an instant: zero extent in t
    st.tuples(_at, _extent),
)


@st.composite
def _rows(draw):
    row_time = _row_time
    if draw(st.booleans()):  # an open-ended row makes the root's t-span infinite
        row_time = st.one_of(_row_time, st.just((0.0, _INF)))
    rows = draw(st.lists(st.tuples(_at, _at, _extent, _extent, row_time), max_size=80))
    # Duplicate boxes: some rows again, under new items.
    return rows + rows[: draw(st.integers(min_value=0, max_value=len(rows)))]


def _bounds_of(rows):
    """Per axis, the row bounds (finite ones) plus the grid's ends."""
    axes = [{0.0, 30.0}, {0.0, 30.0}, {0.0, 30.0}]
    for x, y, w, h, time in rows:
        axes[0].update((x, x + w))
        axes[1].update((y, y + h))
        if time is not None and time[1] < _INF:
            axes[2].update((time[0], time[0] + time[1]))
    return [sorted(values) for values in axes]


@st.composite
def _probes(draw, rows):
    """``(region, time)`` with bounds taken from the rows' own bounds, so
    rows sit on a probe's closed bounds; one axis of three may be drawn
    narrow, so each of x, y and t comes out narrowest in some draws
    (the axis that rejects most rows differs between them)."""
    narrow = draw(st.sampled_from([None, 0, 1, 2]))
    pairs = []
    for axis, values in enumerate(_bounds_of(rows)):
        lo = draw(st.sampled_from(values))
        if axis == narrow:
            hi = lo + draw(st.sampled_from([0.0, 1.0]))
        else:
            lo, hi = sorted((lo, draw(st.sampled_from(values))))
        pairs.append((lo, hi))
    (x0, x1), (y0, y1), (t0, t1) = pairs
    empty = draw(st.integers(min_value=0, max_value=9)) == 0
    region = Envelope.empty() if empty else Envelope(x0, y0, x1, y1)
    time = draw(st.sampled_from([Interval(t0, t1), None, Interval(0.0, _INF)]))
    return region, time


@st.composite
def _cases(draw):
    rows = draw(_rows())
    return rows, draw(_probes(rows))


def build(rows, capacity):
    """The 2D and 3D trees over *rows*; item i is row i."""
    flat, boxed = [], []
    for i, (x, y, w, h, time) in enumerate(rows):
        flat.append((Envelope(x, y, x + w, y + h), i))
        box = (x, y, x + w, y + h)
        boxed.append((box if time is None else (*box, time[0], time[0] + time[1]), i))
    return STRTree(flat, capacity), STRTree3D(boxed, capacity)


def spatial(region):
    return (region.min_x, region.min_y, region.max_x, region.max_y)


class TestSameAnswersAsTheFixedOrder:
    @given(_cases(), st.sampled_from([2, 3, 10]))
    @settings(max_examples=200, deadline=None)
    def test_query_and_query_st(self, case, capacity):
        rows, (region, time) = case
        flat, tree = build(rows, capacity)
        box = spatial(region)
        assert flat.query(region) == fixed_order_search(flat._root, box)
        assert tree.query(region) == (
            fixed_order_search(tree._root, box) + fixed_order_search(tree._untimed_root, box)
        )
        if time is None:
            expected = fixed_order_search(tree._untimed_root, box)
        else:
            expected = fixed_order_search(tree._root, (*box, time.start, time.end))
        assert tree.query_st(region, time) == expected


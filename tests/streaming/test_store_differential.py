"""Differential test of the keyed store under a foreign grid.

The store answers standing queries by pruning grid cells on their
extents and scanning the survivors, so it has to stay lossless whatever
the grid was laid out from.  One property builds the grid from one
universe and draws records from another (overlapping it, disjoint from
it, or larger than it): points and rectangles that stick out of their
cell, timed by instants and spans, inserted and removed in any order,
under a memory budget small enough that cells spill with frozen
extents and load back.  Between the mutations, and after a removal
followed by an insert outside every extent so far, ``query_range``
(INTERSECTS, CONTAINED_BY, withinDistance), ``query_knn`` and
``iter_window`` must equal brute force over the live records.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import CONTAINED_BY, INTERSECTS, within_distance_predicate
from repro.core.stobject import STObject
from repro.geometry.distance import euclidean
from repro.geometry.envelope import Envelope
from repro.streaming.operators import relax_static
from repro.streaming.state import KeyedStateStore
from repro.streaming.window import Window
from repro.temporal import Interval

PREDICATES = (INTERSECTS, CONTAINED_BY, within_distance_predicate(2.5))

#: Positions inside a universe, in 60ths of its side (non-dyadic).
fractions = st.integers(0, 60).map(lambda n: n / 60)
sevenths = st.integers(0, 70).map(lambda n: n / 7)


def rectangle(x0, y0, x1, y1):
    return f"POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"


def records_universe(grid_universe, relation):
    """The universe records come from, relative to the grid's."""
    u = grid_universe
    w, h = u.max_x - u.min_x, u.max_y - u.min_y
    if relation == "overlapping":
        return Envelope(u.min_x + w / 2, u.min_y - h / 2, u.max_x + w / 2, u.max_y - h / 2)
    if relation == "disjoint":
        return Envelope(u.max_x + 5, u.max_y + 5, u.max_x + 5 + w, u.max_y + 5 + h)
    return Envelope(u.min_x - w, u.min_y - h, u.max_x + w, u.max_y + h)


@st.composite
def shapes(draw, universe):
    """A point, or a rectangle up to half the universe wide (it sticks
    out of any cell but the one-cell grid's)."""
    w, h = universe.max_x - universe.min_x, universe.max_y - universe.min_y
    x = universe.min_x + draw(fractions) * w
    y = universe.min_y + draw(fractions) * h
    if draw(st.booleans()):
        return f"POINT ({x} {y})"
    return rectangle(x, y, x + draw(fractions) * w / 2, y + draw(fractions) * h / 2)


@st.composite
def records(draw, universe):
    t_start = draw(sevenths)
    t_end = t_start + draw(st.sampled_from((0.0, 0.5, 3.0)))
    time = t_start if t_end == t_start else Interval(t_start, t_end)
    return STObject(draw(shapes(universe)), time), t_start, t_end


@st.composite
def queries(draw, universe):
    window = None
    if draw(st.booleans()):
        start = draw(sevenths)
        window = Window(start, start + draw(st.sampled_from((0.5, 2.0, 6.0))))
    return STObject(draw(shapes(universe))), window, draw(st.integers(1, 4))


@st.composite
def scenarios(draw):
    ux, uy = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    side_x, side_y = draw(st.integers(3, 30)), draw(st.integers(3, 30))
    grid_universe = Envelope(ux, uy, ux + side_x, uy + side_y)
    universe = records_universe(
        grid_universe, draw(st.sampled_from(("overlapping", "disjoint", "larger")))
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), records(universe)),
                st.tuples(st.just("insert"), records(universe)),
                st.tuples(st.just("remove"), st.integers(0, 1000)),
                st.tuples(st.just("query"), queries(universe)),
            ),
            min_size=4,
            max_size=24,
        )
    )
    return {
        "grid_universe": grid_universe,
        "grid": draw(st.sampled_from((1, 2, 3, 5))),
        "budget": draw(st.integers(300, 2000)),
        "ops": ops,
        "final_query": draw(queries(universe)),
    }


def check(store, live, query, window, k):
    """Every store query against brute force over *live*."""
    in_window = {
        rid: row
        for rid, row in live.items()
        if window is None or window.intersects_span(row[2], row[3])
    }
    for predicate in PREDICATES:
        relaxed = relax_static(predicate)
        want = sorted(rid for rid, row in in_window.items() if relaxed.evaluate(row[0], query))
        got = sorted(value for _st, value in store.query_range(query, predicate, window))
        assert got == want, (predicate.name, window)
    nearest = store.query_knn(query, k, window)
    brute = sorted(euclidean(row[0].geo, query.geo) for row in in_window.values())
    assert [d for d, _record in nearest] == brute[:k]
    for d, (st_obj, rid) in nearest:
        assert rid in in_window and d == euclidean(st_obj.geo, query.geo)
    assert sorted(rid for rid, _st, _value in store.iter_window(window)) == sorted(in_window)


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_store_queries_equal_brute_force_under_a_foreign_grid(scenario):
    with tempfile.TemporaryDirectory() as spill_dir:
        store = KeyedStateStore(
            scenario["grid_universe"],
            grid=scenario["grid"],
            memory_budget_bytes=scenario["budget"],
            spill_dir=spill_dir,
        )
        live: dict = {}
        inserted: list = []

        def insert(st_obj, t_start, t_end):
            rid = len(inserted)
            store.insert(rid, st_obj, rid, t_start, t_end)
            live[rid] = (st_obj, rid, t_start, t_end)
            inserted.append(live[rid])

        for kind, arg in scenario["ops"]:
            if kind == "insert":
                insert(*arg)
            elif kind == "remove" and live:
                rid = sorted(live)[arg % len(live)]
                store.remove(rid)
                del live[rid]
            elif kind == "query":
                check(store, live, *arg)
            assert store.size == len(live)

        # Shrink the cell of the right-most record, then grow past every
        # extent so far with a rectangle clamped into a border cell.
        reach = max((row[0].geo.envelope.max_x for row in inserted), default=0.0)
        if live:
            rightmost = max(live, key=lambda rid: live[rid][0].geo.envelope.max_x)
            store.remove(rightmost)
            del live[rightmost]
        top = scenario["grid_universe"].max_y
        insert(STObject(rectangle(reach + 1, top, reach + 4, top + 2), 1.0), 1.0, 1.0)
        check(store, live, *scenario["final_query"])
        check(store, live, STObject(f"POINT ({reach + 3} {top + 1})"), None, 2)

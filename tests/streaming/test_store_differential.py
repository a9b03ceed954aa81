"""Differential test of the keyed store's queries against brute force.

One property draws points and rectangles, timed by instants and spans,
inserts and removes them in any order, and between the mutations, and
after a removal followed by an insert beyond every record so far,
checks that ``query_range`` (INTERSECTS, CONTAINED_BY, withinDistance)
and ``query_knn`` equal brute force over the rows of every live record,
and over the rows of the live records in a window (what a pane hands
them).
"""

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


@st.composite
def shapes(draw, universe):
    """A point, or a rectangle up to half the universe wide."""
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
    universe = Envelope(ux, uy, ux + side_x, uy + side_y)
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
        "universe": universe,
        "ops": ops,
        "final_query": draw(queries(universe)),
    }


def check(store, live, query, window, k):
    """Every store query against brute force over *live*: the rows of
    all of it, or of its records in *window* when one is drawn."""
    in_window = {
        rid: row
        for rid, row in sorted(live.items())
        if window is None or window.intersects_span(row[2], row[3])
    }
    rows = store.rows(in_window)
    for predicate in PREDICATES:
        relaxed = relax_static(predicate)
        want = [rid for rid, row in in_window.items() if relaxed.evaluate(row[0], query)]
        got = store.query_range(query, predicate, rows)
        assert [(rid, value) for rid, (_st, value) in got] == [(rid, rid) for rid in want], (
            predicate.name,
            window,
        )
    # Equal distances rank by rid (arrival).
    nearest = store.query_knn(query, k, rows)
    brute = sorted((euclidean(row[0].geo, query.geo), rid) for rid, row in in_window.items())
    assert [(d, rid) for d, rid, (_st, _value) in nearest] == brute[:k]


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_store_queries_equal_brute_force(scenario):
    store = KeyedStateStore(scenario["universe"])
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

    # Remove the right-most record, then insert a rectangle beyond
    # every record so far.
    reach = max((row[0].geo.envelope.max_x for row in inserted), default=0.0)
    if live:
        rightmost = max(live, key=lambda rid: live[rid][0].geo.envelope.max_x)
        store.remove(rightmost)
        del live[rightmost]
    top = scenario["universe"].max_y
    insert(STObject(rectangle(reach + 1, top, reach + 4, top + 2), 1.0), 1.0, 1.0)
    check(store, live, *scenario["final_query"])
    check(store, live, STObject(f"POINT ({reach + 3} {top + 1})"), None, 2)

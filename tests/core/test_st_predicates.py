"""The combined spatio-temporal predicate semantics (paper eqs. (1)-(3))."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filter import filter_no_index
from repro.core.predicates import (
    CONTAINED_BY,
    CONTAINS,
    INTERSECTS,
    STPredicate,
    resolve_predicate,
    within_distance_predicate,
)
from repro.core.stobject import STObject
from repro.geometry import parse_wkt
from repro.geometry.envelope import Envelope
from repro.streaming.operators import relax_static

POLY = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"


class TestCombinedSemantics:
    """The truth table of equations (1)-(3)."""

    def test_clause1_spatial_false_means_false(self):
        # spatial predicate fails -> false regardless of time
        a = STObject("POINT (50 50)", 5)
        b = STObject(POLY, (0, 10))
        assert not INTERSECTS.evaluate(a, b)

    def test_clause2_both_undefined_spatial_decides(self):
        assert INTERSECTS.evaluate(STObject("POINT (5 5)"), STObject(POLY))

    def test_clause3_both_defined_temporal_decides(self):
        inside = STObject("POINT (5 5)", 5)
        query = STObject(POLY, (0, 10))
        assert INTERSECTS.evaluate(inside, query)
        late = STObject("POINT (5 5)", 50)
        assert not INTERSECTS.evaluate(late, query)

    @pytest.mark.parametrize("predicate", [INTERSECTS, CONTAINS, CONTAINED_BY])
    def test_mixed_definedness_never_matches(self, predicate):
        timed = STObject("POINT (5 5)", 5)
        untimed = STObject("POINT (5 5)")
        assert not predicate.evaluate(timed, untimed)
        assert not predicate.evaluate(untimed, timed)

    def test_combine_function_direct(self):
        always = lambda a, b: True
        never = lambda a, b: False
        a = STObject("POINT (0 0)", 1)
        b = STObject("POINT (0 0)", 1)

        def evaluate(spatial, temporal):
            return STPredicate("probe", spatial, temporal, always).evaluate(a, b)

        assert evaluate(always, always)
        assert not evaluate(always, never)
        assert not evaluate(never, always)


class TestDirections:
    def test_contains_item_contains_query(self):
        big = STObject(POLY)
        small = STObject("POINT (5 5)")
        assert CONTAINS.evaluate(big, small)
        assert not CONTAINS.evaluate(small, big)

    def test_containedby_item_within_query(self):
        big = STObject(POLY)
        small = STObject("POINT (5 5)")
        assert CONTAINED_BY.evaluate(small, big)
        assert not CONTAINED_BY.evaluate(big, small)

    def test_temporal_directions_follow_spatial(self):
        big = STObject(POLY, (0, 100))
        small_inside_time = STObject("POINT (5 5)", 50)
        small_outside_time = STObject("POINT (5 5)", 200)
        assert CONTAINED_BY.evaluate(small_inside_time, big)
        assert not CONTAINED_BY.evaluate(small_outside_time, big)
        # contains: the item's interval must contain the query's
        assert CONTAINS.evaluate(big, small_inside_time)
        assert not CONTAINS.evaluate(small_inside_time, big)


class TestEnvelopeTests:
    def test_intersects_envelope_test(self):
        assert INTERSECTS.envelope_test(Envelope(0, 0, 2, 2), Envelope(1, 1, 3, 3))
        assert not INTERSECTS.envelope_test(Envelope(0, 0, 1, 1), Envelope(5, 5, 6, 6))

    def test_contains_envelope_test_requires_item_covering_query(self):
        big, small = Envelope(0, 0, 10, 10), Envelope(2, 2, 3, 3)
        assert CONTAINS.envelope_test(big, small)
        assert not CONTAINS.envelope_test(small, big)

    def test_containedby_envelope_test_is_reverse(self):
        big, small = Envelope(0, 0, 10, 10), Envelope(2, 2, 3, 3)
        assert CONTAINED_BY.envelope_test(small, big)
        assert not CONTAINED_BY.envelope_test(big, small)

    def test_envelope_test_necessary_for_evaluate(self):
        # sampled check: evaluate true -> envelope_test true
        a = STObject("POINT (5 5)")
        b = STObject(POLY)
        for predicate in (INTERSECTS, CONTAINED_BY):
            if predicate.evaluate(a, b):
                assert predicate.envelope_test(a.geo.envelope, b.geo.envelope)


class TestWithinDistance:
    def test_within_euclidean(self):
        predicate = within_distance_predicate(5.0)
        assert predicate.evaluate(STObject("POINT (3 4)"), STObject("POINT (0 0)"))
        assert not predicate.evaluate(STObject("POINT (4 4)"), STObject("POINT (0 0)"))

    def test_boundary_inclusive(self):
        predicate = within_distance_predicate(5.0)
        assert predicate.evaluate(STObject("POINT (3 4)"), STObject("POINT (0 0)"))

    def test_temporal_part_is_intersection(self):
        predicate = within_distance_predicate(5.0)
        a = STObject("POINT (1 0)", (0, 10))
        b = STObject("POINT (0 0)", (5, 15))
        c = STObject("POINT (0 0)", (50, 60))
        assert predicate.evaluate(a, b)
        assert not predicate.evaluate(a, c)

    def test_custom_distance_function(self):
        manhattan = lambda g1, g2: abs(g1.centroid().x - g2.centroid().x) + abs(
            g1.centroid().y - g2.centroid().y
        )
        predicate = within_distance_predicate(5.0, manhattan)
        assert not predicate.evaluate(STObject("POINT (3 4)"), STObject("POINT (0 0)"))
        assert predicate.evaluate(STObject("POINT (2 2)"), STObject("POINT (0 0)"))

    def test_named_distance_function(self):
        predicate = within_distance_predicate(10.0, "manhattan")
        assert predicate.evaluate(STObject("POINT (4 4)"), STObject("POINT (0 0)"))

    def test_euclidean_envelope_test_admissible(self):
        predicate = within_distance_predicate(2.0)
        near = Envelope(0, 0, 1, 1)
        far = Envelope(10, 10, 11, 11)
        assert predicate.envelope_test(near, Envelope(2, 2, 3, 3))
        assert not predicate.envelope_test(near, far)

    def test_custom_metric_envelope_test_degrades_to_true(self):
        predicate = within_distance_predicate(1.0, "manhattan")
        assert predicate.envelope_test(Envelope(0, 0, 1, 1), Envelope(50, 50, 51, 51))

    def test_candidate_region_buffers_for_euclidean(self):
        predicate = within_distance_predicate(3.0)
        region = predicate.candidate_region(Envelope(0, 0, 1, 1))
        assert region == Envelope(-3, -3, 4, 4)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            within_distance_predicate(-1.0)


class TestResolvePredicate:
    @pytest.mark.parametrize(
        "name, expected",
        [("intersects", INTERSECTS), ("CONTAINS", CONTAINS), ("ContainedBy", CONTAINED_BY)],
    )
    def test_by_name_case_insensitive(self, name, expected):
        assert resolve_predicate(name) is expected

    def test_instance_passthrough(self):
        assert resolve_predicate(INTERSECTS) is INTERSECTS

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="intersects"):
            resolve_predicate("overlaps")


times = st.one_of(
    st.none(),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.tuples(
        st.floats(min_value=0, max_value=500, allow_nan=False),
        st.floats(min_value=0, max_value=500, allow_nan=False),
    ).map(lambda ab: (min(ab), min(ab) + abs(ab[1] - ab[0]))),
)
coords = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestSemanticsProperties:
    @given(coords, coords, times, times)
    @settings(max_examples=100)
    def test_intersects_symmetric(self, x, y, ta, tb):
        a = STObject(f"POINT ({x} {y})", ta)
        b = STObject("POLYGON ((-50 -50, 50 -50, 50 50, -50 50, -50 -50))", tb)
        assert INTERSECTS.evaluate(a, b) == INTERSECTS.evaluate(b, a)

    @given(coords, coords, times, times)
    @settings(max_examples=100)
    def test_contains_containedby_converse(self, x, y, ta, tb):
        a = STObject(f"POINT ({x} {y})", ta)
        b = STObject("POLYGON ((-50 -50, 50 -50, 50 50, -50 50, -50 -50))", tb)
        assert CONTAINS.evaluate(b, a) == CONTAINED_BY.evaluate(a, b)

    @given(coords, coords, times, times)
    @settings(max_examples=100)
    def test_containment_implies_intersection(self, x, y, ta, tb):
        a = STObject(f"POINT ({x} {y})", ta)
        b = STObject("POLYGON ((-50 -50, 50 -50, 50 50, -50 50, -50 -50))", tb)
        if CONTAINED_BY.evaluate(a, b):
            assert INTERSECTS.evaluate(a, b)


class TestStaticRelaxation:
    """The static-side relaxation changes the temporal clause, so every
    entry point refinement uses sees it, in either clause order."""

    def test_mixed_pair_passes_in_every_order(self):
        relaxed = relax_static(INTERSECTS)
        timed, untimed = STObject("POINT (5 5)", 5), STObject(POLY)
        for item, query in ((timed, untimed), (untimed, timed)):
            assert relaxed.temporal_clause(item, query)
            assert relaxed.evaluate(item, query)
            assert relaxed.evaluate_ordered(item, query, False)
            assert relaxed.evaluate_ordered(item, query, True)

    def test_scan_keeps_the_same_rows_temporal_first(self, sc):
        rows = [(STObject("POINT (5 5)", 5), 1), (STObject("POINT (50 50)", 5), 2)]
        rdd = sc.parallelize(rows, 2)
        relaxed = relax_static(INTERSECTS)
        for temporal_first in (False, True):
            kept = filter_no_index(rdd, STObject(POLY), relaxed, temporal_first=temporal_first)
            assert [v for _st, v in kept.collect()] == [1], temporal_first


#: Points, a rectangle, a general polygon, a line and collections, placed
#: so that some pairs meet and some do not.
LATTICE_GEOMETRIES = [
    parse_wkt(text)
    for text in (
        "POINT (2 2)",
        "POINT (50 50)",
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",
        "POLYGON ((1 0, 5 1, 4 5, 0 4, -1 1, 1 0))",
        "LINESTRING (0 0, 4 4)",
        "MULTIPOINT ((2 2), (60 60))",
        "GEOMETRYCOLLECTION (POINT (50 50), LINESTRING (3 0, 3 9))",
    )
]
#: Untimed, instants and intervals, meeting and missing one another.
LATTICE_TIMES = [None, 5, 50, (0, 10), (4, 6)]
STRICT = [INTERSECTS, CONTAINS, CONTAINED_BY, within_distance_predicate(1.0)]


@pytest.mark.parametrize(
    "predicate", STRICT + [relax_static(p) for p in STRICT], ids=lambda p: p.name
)
def test_every_entry_point_agrees_with_the_definition(predicate):
    relaxed = predicate.name.startswith("static(")
    objects = [
        STObject(geo, time) for geo in LATTICE_GEOMETRIES for time in LATTICE_TIMES
    ]
    outcomes = set()
    for item, query in itertools.product(objects, objects):
        if item.time is None or query.time is None:
            clause = relaxed or item.time is query.time
        else:
            clause = predicate.temporal(item.time, query.time)
        want = predicate.spatial(item.geo, query.geo) and clause
        assert predicate.temporal_clause(item, query) == clause, (item, query)
        assert predicate.evaluate(item, query) == want, (item, query)
        assert predicate.evaluate_ordered(item, query, True) == want, (item, query)
        assert predicate.evaluate_ordered(item, query, False) == want, (item, query)
        outcomes.add((bool(clause), want))
    assert outcomes == {(False, False), (True, False), (True, True)}

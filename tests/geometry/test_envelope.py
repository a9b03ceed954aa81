"""Envelope semantics: emptiness, merge/intersection algebra, distances."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.envelope import Envelope


class TestConstruction:
    def test_of_point_is_degenerate(self):
        env = Envelope.of_point(3.0, 4.0)
        assert env.min_x == env.max_x == 3.0
        assert env.min_y == env.max_y == 4.0
        assert env.width == env.height == 0.0
        assert not env.is_empty

    def test_of_points_covers_all(self):
        env = Envelope.of_points([(0, 0), (5, -2), (3, 7)])
        assert env == Envelope(0, -2, 5, 7)

    def test_of_points_empty_input_is_empty(self):
        assert Envelope.of_points([]).is_empty

    def test_empty_is_empty(self):
        assert Envelope.empty().is_empty

    def test_inverted_coordinates_mean_empty(self):
        assert Envelope(1, 0, 0, 1).is_empty
        assert Envelope(0, 1, 1, 0).is_empty

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Envelope(math.nan, 0, 1, 1)


class TestGeometryProperties:
    def test_dimensions(self):
        env = Envelope(1, 2, 4, 6)
        assert env.width == 3
        assert env.height == 4
        assert env.area == 12
        assert env.perimeter == 14

    def test_empty_dimensions_are_zero(self):
        empty = Envelope.empty()
        assert empty.width == 0
        assert empty.height == 0
        assert empty.area == 0

    def test_center(self):
        assert Envelope(0, 0, 4, 2).center() == (2, 1)

    def test_empty_center_raises(self):
        with pytest.raises(ValueError):
            Envelope.empty().center()

    def test_corners_ccw(self):
        assert list(Envelope(0, 0, 1, 2).corners()) == [
            (0, 0), (1, 0), (1, 2), (0, 2),
        ]


class TestContainsIntersects:
    def test_contains_point_closed(self):
        env = Envelope(0, 0, 10, 10)
        assert env.contains_point(0, 0)  # corner counts
        assert env.contains_point(10, 10)
        assert env.contains_point(5, 5)
        assert not env.contains_point(10.001, 5)

    def test_contains_envelope(self):
        outer = Envelope(0, 0, 10, 10)
        assert outer.contains(Envelope(2, 2, 8, 8))
        assert outer.contains(outer)  # closed: contains itself
        assert not outer.contains(Envelope(5, 5, 11, 8))

    def test_empty_contains_nothing_and_is_contained_nowhere(self):
        env = Envelope(0, 0, 1, 1)
        assert not env.contains(Envelope.empty())
        assert not Envelope.empty().contains(env)

    def test_intersects_overlap(self):
        assert Envelope(0, 0, 5, 5).intersects(Envelope(3, 3, 8, 8))

    def test_intersects_shared_edge(self):
        assert Envelope(0, 0, 5, 5).intersects(Envelope(5, 0, 8, 5))

    def test_intersects_shared_corner(self):
        assert Envelope(0, 0, 5, 5).intersects(Envelope(5, 5, 8, 8))

    def test_disjoint(self):
        assert not Envelope(0, 0, 1, 1).intersects(Envelope(2, 2, 3, 3))

    def test_empty_never_intersects(self):
        assert not Envelope.empty().intersects(Envelope(0, 0, 1, 1))
        assert not Envelope(0, 0, 1, 1).intersects(Envelope.empty())


class TestAlgebra:
    def test_merge_covers_both(self):
        merged = Envelope(0, 0, 1, 1).merge(Envelope(5, -2, 6, 0.5))
        assert merged == Envelope(0, -2, 6, 1)

    def test_merge_with_empty_is_identity(self):
        env = Envelope(0, 0, 1, 1)
        assert env.merge(Envelope.empty()) == env
        assert Envelope.empty().merge(env) == env

    def test_intersection(self):
        result = Envelope(0, 0, 5, 5).intersection(Envelope(3, 3, 8, 8))
        assert result == Envelope(3, 3, 5, 5)

    def test_intersection_disjoint_is_empty(self):
        assert Envelope(0, 0, 1, 1).intersection(Envelope(5, 5, 6, 6)).is_empty

    def test_expand_to_point(self):
        assert Envelope(0, 0, 1, 1).expand_to_point(5, -1) == Envelope(0, -1, 5, 1)

    def test_buffer_grows(self):
        assert Envelope(0, 0, 2, 2).buffer(1) == Envelope(-1, -1, 3, 3)

    def test_negative_buffer_can_empty(self):
        assert Envelope(0, 0, 2, 2).buffer(-2).is_empty

    def test_buffer_of_empty_stays_empty(self):
        assert Envelope.empty().buffer(10).is_empty


class TestDistances:
    def test_distance_zero_when_touching(self):
        assert Envelope(0, 0, 1, 1).distance(Envelope(1, 1, 2, 2)) == 0.0

    def test_distance_axis_aligned_gap(self):
        assert Envelope(0, 0, 1, 1).distance(Envelope(4, 0, 5, 1)) == 3.0

    def test_distance_diagonal_gap(self):
        assert Envelope(0, 0, 1, 1).distance(Envelope(4, 5, 6, 7)) == 5.0

    def test_distance_to_point_inside_is_zero(self):
        assert Envelope(0, 0, 2, 2).distance_to_point(1, 1) == 0.0

    def test_distance_to_point_outside(self):
        assert Envelope(0, 0, 1, 1).distance_to_point(4, 5) == 5.0

    def test_max_distance_to_point(self):
        # farthest corner of [0,1]x[0,1] from (0,0) is (1,1)
        assert Envelope(0, 0, 1, 1).max_distance_to_point(0, 0) == pytest.approx(
            math.sqrt(2)
        )

    def test_max_distance_bounds_all_inner_points(self):
        env = Envelope(2, 3, 7, 9)
        bound = env.max_distance_to_point(0, 0)
        for cx, cy in env.corners():
            assert math.hypot(cx, cy) <= bound + 1e-12

    def test_empty_distance_raises(self):
        with pytest.raises(ValueError):
            Envelope.empty().distance(Envelope(0, 0, 1, 1))


class TestSplit:
    def test_split_x(self):
        low, high = Envelope(0, 0, 10, 4).split_at(3, axis=0)
        assert low == Envelope(0, 0, 3, 4)
        assert high == Envelope(3, 0, 10, 4)

    def test_split_y(self):
        low, high = Envelope(0, 0, 10, 4).split_at(1, axis=1)
        assert low == Envelope(0, 0, 10, 1)
        assert high == Envelope(0, 1, 10, 4)

    def test_split_halves_share_cut_line(self):
        low, high = Envelope(0, 0, 10, 10).split_at(5, axis=0)
        assert low.intersects(high)

    def test_split_outside_raises(self):
        with pytest.raises(ValueError):
            Envelope(0, 0, 1, 1).split_at(5, axis=0)

    def test_split_bad_axis_raises(self):
        with pytest.raises(ValueError):
            Envelope(0, 0, 1, 1).split_at(0.5, axis=2)

    def test_split_empty_raises(self):
        with pytest.raises(ValueError):
            Envelope.empty().split_at(0, axis=0)


class _Before:
    """The pre-normalisation semantics, from the *raw* constructor arguments.

    Emptiness used to be re-derived from the stored coordinates on every
    call (``min_x > max_x or min_y > max_y``); every public method must
    still answer what that definition gave, whatever the arguments.
    """

    def __init__(self, raw):
        self.raw = raw
        self.min_x, self.min_y, self.max_x, self.max_y = raw
        self.empty = self.min_x > self.max_x or self.min_y > self.max_y

    def contains_point(self, x, y):
        return (
            not self.empty
            and self.min_x <= x <= self.max_x
            and self.min_y <= y <= self.max_y
        )

    def contains(self, other):
        return (
            not self.empty
            and not other.empty
            and self.contains_point(other.min_x, other.min_y)
            and self.contains_point(other.max_x, other.max_y)
        )

    def intersects(self, other):
        return (
            not self.empty
            and not other.empty
            and self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def merge(self, other):
        if self.empty or other.empty:
            return None if self.empty and other.empty else (other if self.empty else self).raw
        return (
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersection(self, other):
        if not self.intersects(other):
            return None
        return (
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def gap(self, other):
        dx = max(other.min_x - self.max_x, self.min_x - other.max_x, 0.0)
        dy = max(other.min_y - self.max_y, self.min_y - other.max_y, 0.0)
        return math.hypot(dx, dy)


def _same(envelope, raw):
    """*envelope* is the box *raw* (``None``: any empty envelope)."""
    if raw is None:
        return envelope.is_empty and repr(envelope) == "Envelope.empty()"
    return (envelope.min_x, envelope.min_y, envelope.max_x, envelope.max_y) == raw


def _raises(call):
    try:
        call()
    except ValueError:
        return True
    return False


# A coarse grid makes empty, half-empty (one axis inverted), degenerate
# (point, segment), touching and nested boxes all frequent.
_coordinate = st.integers(min_value=-3, max_value=3).map(float)
_raw_box = st.one_of(
    st.tuples(_coordinate, _coordinate, _coordinate, _coordinate),
    st.just((-math.inf, -math.inf, math.inf, math.inf)),
)


class TestEmptinessIsAConstructionTimeFact:
    def test_half_empty_inputs_become_the_canonical_empty(self):
        for raw in [(5, 0, 3, 10), (0, 5, 10, 3), (5, 5, 3, 3), (math.inf, 0, 0, 1)]:
            assert Envelope(*raw) == Envelope.empty()
            assert hash(Envelope(*raw)) == hash(Envelope.empty())
            assert Envelope(*raw).min_x == math.inf and Envelope(*raw).max_y == -math.inf

    def test_nan_rejected_in_every_slot(self):
        for slot in range(4):
            raw = [0.0, 0.0, 1.0, 1.0]
            raw[slot] = math.nan
            with pytest.raises(ValueError):
                Envelope(*raw)

    @given(_raw_box, _coordinate, _coordinate, st.integers(-2, 2).map(float))
    @settings(max_examples=300)
    def test_unary_methods_answer_as_before(self, raw, x, y, margin):
        env, before = Envelope(*raw), _Before(raw)
        assert env.is_empty == before.empty
        assert repr(env).startswith("Envelope.empty()") == before.empty
        assert env.contains_point(x, y) == before.contains_point(x, y)
        point = _Before((x, y, x, y))
        assert _same(env.expand_to_point(x, y), before.merge(point))
        if before.empty:
            assert (env.width, env.height, env.area, env.perimeter) == (0.0,) * 4
            assert _same(env.buffer(margin), None)
            for call in (
                env.center,
                lambda: env.distance_to_point(x, y),
                lambda: env.max_distance_to_point(x, y),
                lambda: env.split_at(0.0, 0),
            ):
                assert _raises(call)
            return
        assert _same(env, raw)
        grown = (raw[0] - margin, raw[1] - margin, raw[2] + margin, raw[3] + margin)
        assert _same(env.buffer(margin), None if _Before(grown).empty else grown)
        assert env.distance_to_point(x, y) == before.gap(point)
        if math.isfinite(raw[0]):
            width, height = raw[2] - raw[0], raw[3] - raw[1]
            assert (env.width, env.height) == (width, height)
            assert (env.area, env.perimeter) == (width * height, 2.0 * (width + height))
            assert env.center() == ((raw[0] + raw[2]) / 2.0, (raw[1] + raw[3]) / 2.0)
            assert list(env.corners()) == [
                (raw[0], raw[1]), (raw[2], raw[1]), (raw[2], raw[3]), (raw[0], raw[3])
            ]
            assert env.max_distance_to_point(x, y) == math.hypot(
                max(abs(x - raw[0]), abs(x - raw[2])), max(abs(y - raw[1]), abs(y - raw[3]))
            )
            if raw[0] <= x <= raw[2]:
                low, high = env.split_at(x, 0)
                assert _same(low, (raw[0], raw[1], x, raw[3]))
                assert _same(high, (x, raw[1], raw[2], raw[3]))

    @given(_raw_box, _raw_box)
    @settings(max_examples=300)
    def test_binary_methods_answer_as_before(self, raw_a, raw_b):
        a, b = Envelope(*raw_a), Envelope(*raw_b)
        before_a, before_b = _Before(raw_a), _Before(raw_b)
        assert a.intersects(b) == before_a.intersects(before_b)
        assert a.contains(b) == before_a.contains(before_b)
        assert _same(a.intersection(b), before_a.intersection(before_b))
        assert _same(a.merge(b), before_a.merge(before_b))
        if before_a.empty or before_b.empty:
            assert _raises(lambda: a.distance(b))
        else:
            assert a.distance(b) == before_a.gap(before_b)

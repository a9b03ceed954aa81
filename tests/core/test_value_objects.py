"""The five value classes every read builds: Envelope, Point, Instant,
Interval and STObject.

They are immutable, hashable and equal by value, and they unpickle from
the bytes the earlier dataclass forms wrote (index parts and checkpoints
hold such pickles).
"""

import base64
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core.stobject import STObject, _point_stobject
from repro.geometry import Point, Polygon
from repro.geometry.envelope import Envelope
from repro.temporal import Instant, Interval

#: ``pickle.dumps(_EXPECTED, protocol=pickle.HIGHEST_PROTOCOL)`` as written
#: when Envelope, Instant and Interval were frozen slotted dataclasses.
_DATACLASS_PICKLE = base64.b64decode(
    """
gAWVnAIAAAAAAABdlCiMF3JlcHJvLmdlb21ldHJ5LmVudmVsb3BllIwIRW52ZWxvcGWUk5Qp
gZRdlChHP+AAAAAAAABHv/AAAAAAAABHQAAAAAAAAABHQAoAAAAAAABlYmgDKYGUXZQoR3/w
AAAAAAAAR3/wAAAAAAAAR//wAAAAAAAAR//wAAAAAAAAZWKMFHJlcHJvLmdlb21ldHJ5LnBv
aW50lIwFUG9pbnSUk5QpgZRHP/gAAAAAAABHwAAAAAAAAACJh5RiaAopgZRHf/gAAAAAAABH
f/gAAAAAAACIh5RijBZyZXByby50ZW1wb3JhbC5pbnN0YW50lIwHSW5zdGFudJSTlCmBlF2U
SwVhYmgRKYGUXZRHQAQAAAAAAABhYowXcmVwcm8udGVtcG9yYWwuaW50ZXJ2YWyUjAhJbnRl
cnZhbJSTlCmBlF2UKEsBR0AEAAAAAAAAZWKME3JlcHJvLmNvcmUuc3RvYmplY3SUjAhTVE9i
amVjdJSTlCmBlGgKKYGURz/wAAAAAAAAR0AAAAAAAAAAiYeUYmgRKYGUXZRLB2FihpRiaB0p
gZSMFnJlcHJvLmdlb21ldHJ5LnBvbHlnb26UjAdQb2x5Z29ulJOUKYGUjBlyZXByby5nZW9t
ZXRyeS5saW5lc3RyaW5nlIwKTGluZWFyUmluZ5STlCmBlChHAAAAAAAAAABHAAAAAAAAAACG
lEc/8AAAAAAAAEcAAAAAAAAAAIaURz/wAAAAAAAARz/wAAAAAAAAhpRHAAAAAAAAAABHAAAA
AAAAAACGlHSUhZRiKYaUYmgYKYGUXZQoR0AkAAAAAAAAR0A0AAAAAAAAZWKGlGJoHSmBlGgK
KYGUR0AIAAAAAAAAR0AQAAAAAAAAiYeUYk6GlGJlLg==
"""
)

_EXPECTED = [
    Envelope(0.5, -1.0, 2.0, 3.25),
    Envelope.empty(),
    Point(1.5, -2.0),
    Point(),
    Instant(5),
    Instant(2.5),
    Interval(1, 2.5),
    STObject("POINT (1 2)", 7),
    STObject("POLYGON ((0 0, 1 0, 1 1, 0 0))", 10, 20),
    STObject("POINT (3 4)"),
]


class TestDataclassPickles:
    def test_unpickle_equal(self):
        loaded = pickle.loads(_DATACLASS_PICKLE)
        assert loaded == _EXPECTED
        assert [type(v) for v in loaded] == [type(v) for v in _EXPECTED]
        assert [hash(v) for v in loaded] == [hash(v) for v in _EXPECTED]

    def test_unpickled_values_are_whole(self):
        env, empty, point, _, instant, _, interval, st, polygon, _ = pickle.loads(
            _DATACLASS_PICKLE
        )
        assert (env.min_x, env.min_y, env.max_x, env.max_y) == (0.5, -1.0, 2.0, 3.25)
        assert empty.is_empty
        assert point.envelope == Envelope(1.5, -2.0, 1.5, -2.0)
        assert instant.value == 5 and type(instant.value) is int
        assert (interval.start, interval.end) == (1, 2.5)
        assert st.time == Instant(7) and st.geo.envelope == Envelope(1, 2, 1, 2)
        assert isinstance(polygon.geo, Polygon) and polygon.time == Interval(10, 20)

    def test_state_keeps_the_dataclass_field_list(self):
        # The state is what the dataclass forms read back, so a pickle
        # written now loads under them too.
        assert Envelope(0, 1, 2, 3).__getstate__() == [0, 1, 2, 3]
        assert Instant(5).__getstate__() == [5]
        assert Interval(1, 2).__getstate__() == [1, 2]

    @pytest.mark.parametrize("value", _EXPECTED)
    def test_round_trip(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol=protocol)) == value


#: ``pickle.dumps(_POINT_EVENTS, protocol=pickle.HIGHEST_PROTOCOL)`` as
#: written when every STObject pickled through its state hooks.
_STATE_HOOK_PICKLE = base64.b64decode(
    """
gAWVkwEAAAAAAABdlCiME3JlcHJvLmNvcmUuc3RvYmplY3SUjAhTVE9iamVjdJSTlCmBlIwUcmVw
cm8uZ2VvbWV0cnkucG9pbnSUjAVQb2ludJSTlCmBlEc/+AAAAAAAAEfAAAAAAAAAAImHlGJOhpRi
aAMpgZRoBymBlEdACAAAAAAAAEdAEAAAAAAAAImHlGKMFnJlcHJvLnRlbXBvcmFsLmluc3RhbnSU
jAdJbnN0YW50lJOUKYGUXZRLB2FihpRiaAMpgZRoBymBlEdAFAAAAAAAAEdAGAAAAAAAAImHlGKM
F3JlcHJvLnRlbXBvcmFsLmludGVydmFslIwISW50ZXJ2YWyUk5QpgZRdlChHP/QAAAAAAABHQAQA
AAAAAABlYoaUYmgDKYGUjBlyZXByby5nZW9tZXRyeS5saW5lc3RyaW5nlIwKTGluZVN0cmluZ5ST
lCmBlEcAAAAAAAAAAEcAAAAAAAAAAIaURz/wAAAAAAAARz/wAAAAAAAAhpSGlIWUYmgQKYGUXZRH
QAgAAAAAAABhYoaUYmUu
"""
)

_POINT_EVENTS = [
    STObject("POINT (1.5 -2)"),
    STObject("POINT (3 4)", 7),
    STObject("POINT (5 6)", 1.25, 2.5),
    STObject("LINESTRING (0 0, 1 1)", 3.0),
]


class TestPointEventPickle:
    """A point event pickles as one call over its numbers; every other
    STObject, and every pickle written before, goes through the state hooks."""

    def test_state_hook_pickles_load_equal(self):
        loaded = pickle.loads(_STATE_HOOK_PICKLE)
        assert loaded == _POINT_EVENTS
        assert [hash(v) for v in loaded] == [hash(v) for v in _POINT_EVENTS]
        assert type(loaded[1].time.value) is int
        assert loaded[2].geo.envelope == Envelope(5, 6, 5, 6)

    @pytest.mark.parametrize(
        "time", [None, Instant(7), Instant(2.5), Interval(1, 2.5), Interval(3.0, 3.0)]
    )
    def test_point_event_is_one_call(self, time):
        value = STObject(Point(-0.25, 1e300), time)
        function, _args = value.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        assert function is _point_stobject
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol=protocol))
            assert back == value and hash(back) == hash(value)
            assert type(back.time) is type(time)
            assert back.geo.envelope == Envelope(-0.25, 1e300, -0.25, 1e300)
        if time is not None:
            kept = back.time.value if type(time) is Instant else (back.time.start, back.time.end)
            wanted = time.value if type(time) is Instant else (time.start, time.end)
            assert kept == wanted and type(kept) is type(wanted)

    def test_other_events_keep_their_state_hooks(self):
        value = STObject("POLYGON ((0 0, 1 0, 1 1, 0 0))", 10, 20)
        assert value.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[0] is not _point_stobject
        assert b"_point_stobject" not in pickle.dumps(value)
        assert pickle.loads(pickle.dumps(value)) == value


class TestValueSemantics:
    @pytest.mark.parametrize(
        "value, field",
        [
            (Envelope(0, 0, 1, 1), "min_x"),
            (Instant(1), "value"),
            (Interval(1, 2), "start"),
        ],
    )
    def test_fields_refuse_writes(self, value, field):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, 5)
        with pytest.raises(FrozenInstanceError):
            delattr(value, field)
        with pytest.raises(FrozenInstanceError):
            value.extra = 1

    @pytest.mark.parametrize(
        "value", [Envelope(0, 0, 1, 1), Point(1, 2), Instant(1), Interval(1, 2), STObject("POINT (1 2)", 3)]
    )
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    def test_equal_and_hash_by_value(self):
        assert Envelope(0, 0, 1, 1) == Envelope(0.0, 0.0, 1.0, 1.0)
        assert hash(Envelope(0, 0, 1, 1)) == hash((0, 0, 1, 1))
        assert Envelope(5, 0, 3, 10) == Envelope.empty()
        assert Instant(3) == Instant(3.0) and hash(Instant(3)) == hash((3,))
        assert Interval(1, 2) == Interval(1.0, 2.0) and hash(Interval(1, 2)) == hash((1, 2))
        assert {STObject("POINT (1 2)", 3), STObject("POINT (1 2)", 3.0)} == {STObject("POINT (1 2)", 3)}

    def test_no_equality_across_types(self):
        assert Envelope(0, 0, 1, 1) != (0, 0, 1, 1)
        assert Instant(1) != 1
        assert Instant(1) != Interval(1, 1)
        with pytest.raises(TypeError):
            Instant(1) < 2  # noqa: B015
        assert Instant(1) < Instant(2) <= Instant(2) and Instant(3) > Instant(2) >= Instant(2)

    @pytest.mark.parametrize("value", [True, 3, 2.5, pytest.param(10**30, id="bigint")])
    def test_instant_takes_any_real(self, value):
        assert Instant(value).value == value
        assert STObject("POINT (0 0)", value).time == Instant(value)

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: Instant("5"), TypeError),
            (lambda: Instant(math.nan), ValueError),
            (lambda: Interval(2, 1), ValueError),
            (lambda: Interval(1, "2"), TypeError),
            (lambda: Envelope(math.nan, 0, 1, 1), ValueError),
            (lambda: Point(1, math.nan), ValueError),
            (lambda: Point(1, None), ValueError),
            (lambda: STObject("POINT (0 0)", "noon"), TypeError),
            (lambda: STObject(Point()), ValueError),
            (lambda: STObject(Polygon()), ValueError),
        ],
    )
    def test_invalid_values_refused(self, make, error):
        with pytest.raises(error):
            make()

"""The instant temporal type: a single point in time."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from numbers import Real


class Instant:
    """An immutable point in time.

    The value is any real number; STARK uses epoch milliseconds
    (``Long``).  Instants order and compare by value.

    Every event a reader builds carries one, so the class is written
    out the way :class:`~repro.geometry.envelope.Envelope` is: ``float``
    and ``int`` pass the type check before the ``Real`` ABC is asked,
    the one field is stored through its slot descriptor, and the
    pickled state is the dataclass field list it replaced.
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        kind = type(value)
        if kind is not float and kind is not int and not isinstance(value, Real):
            raise TypeError(f"instant value must be a number, got {kind.__name__}")
        if value != value:  # NaN
            raise ValueError("instant value must not be NaN")
        _set_value(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Instant:
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other: "Instant") -> bool:
        if other.__class__ is not Instant:
            return NotImplemented
        return self.value < other.value

    def __le__(self, other: "Instant") -> bool:
        if other.__class__ is not Instant:
            return NotImplemented
        return self.value <= other.value

    def __gt__(self, other: "Instant") -> bool:
        if other.__class__ is not Instant:
            return NotImplemented
        return self.value > other.value

    def __ge__(self, other: "Instant") -> bool:
        if other.__class__ is not Instant:
            return NotImplemented
        return self.value >= other.value

    def __hash__(self) -> int:
        return hash((self.value,))

    def __getstate__(self) -> list:
        return [self.value]

    def __setstate__(self, state: list) -> None:
        (value,) = state
        _set_value(self, value)

    @property
    def start(self) -> float:
        """Uniform accessor shared with :class:`~repro.temporal.interval.Interval`."""
        return self.value

    @property
    def end(self) -> float:
        return self.value

    @property
    def length(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"Instant({self.value!r})"


_set_value = Instant.value.__set__

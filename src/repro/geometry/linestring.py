"""Line strings and linear rings."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry import algorithms
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point


def _freeze_coords(coords: Iterable[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    frozen = tuple((float(c[0]), float(c[1])) for c in coords)
    for x, y in frozen:
        if x != x or y != y:  # NaN check without importing math
            raise ValueError("coordinates must not be NaN")
    return frozen


class LineString(Geometry):
    """An immutable polyline of two or more vertices.

    ``LineString([])`` constructs the empty line string.
    """

    __slots__ = ("_coords",)
    dimension = 1

    def __init__(self, coords: Iterable[Sequence[float]] = ()) -> None:
        self._coords = _freeze_coords(coords)
        if len(self._coords) == 1:
            raise ValueError("a LineString needs at least 2 points (or 0 for empty)")
        self._envelope = Envelope.of_points(self._coords)

    @property
    def coords(self) -> tuple[tuple[float, float], ...]:
        return self._coords

    @property
    def geom_type(self) -> str:
        return "LINESTRING"

    @property
    def is_empty(self) -> bool:
        return not self._coords

    @property
    def length(self) -> float:
        """Total Euclidean length."""
        return algorithms.polyline_length(self._coords)

    def segments(self) -> Iterable[tuple[tuple[float, float], tuple[float, float]]]:
        """Consecutive vertex pairs."""
        for i in range(len(self._coords) - 1):
            yield self._coords[i], self._coords[i + 1]

    def centroid(self) -> Point:
        if self.is_empty:
            return Point()
        return Point(*algorithms.polyline_centroid(self._coords))

    def coordinates(self) -> list[tuple[float, float]]:
        return list(self._coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineString):
            return NotImplemented
        # LinearRing and LineString with same coords compare equal on
        # purpose: they describe the same point set.
        return self._coords == other._coords

    def __hash__(self) -> int:
        return hash(("LINESTRING", self._coords))

    def __getstate__(self) -> tuple:
        return (self._coords,)

    def __setstate__(self, state: tuple) -> None:
        (self._coords,) = state
        self._envelope = Envelope.of_points(self._coords)


class LinearRing(LineString):
    """A closed LineString used as a polygon boundary.

    The constructor closes the ring automatically when the input does not
    repeat its first coordinate.  A non-empty ring needs at least three
    distinct vertices.  Its first point location caches its
    :func:`~repro.geometry.algorithms.ring_edges`, which never pickle.
    """

    __slots__ = ("_edges",)

    def __init__(self, coords: Iterable[Sequence[float]] = ()) -> None:
        frozen = _freeze_coords(coords)
        if frozen and frozen[0] != frozen[-1]:
            frozen = frozen + (frozen[0],)
        if frozen and len(frozen) < 4:
            raise ValueError("a LinearRing needs at least 3 distinct points")
        super().__init__(frozen)
        self._edges = None

    @property
    def geom_type(self) -> str:
        return "LINEARRING"

    @property
    def signed_area(self) -> float:
        """Shoelace area; positive when the ring winds counter-clockwise."""
        if self.is_empty:
            return 0.0
        return algorithms.ring_signed_area(self._coords)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area > 0

    def __setstate__(self, state: tuple) -> None:
        super().__setstate__(state)
        self._edges = None

    def _prepare_edges(self) -> tuple:
        # The one place that fills the cache; readers try ``_edges`` first.
        self._edges = algorithms.ring_edges(self._coords)
        return self._edges

    def locate(self, x: float, y: float) -> int:
        """Classify a point: algorithms.INTERIOR / BOUNDARY / EXTERIOR."""
        # Outside the envelope is outside, whatever the crossing count's
        # rounding says near a vertex (the empty ring's envelope is empty).
        env = self._envelope
        if not (env.min_x <= x <= env.max_x and env.min_y <= y <= env.max_y):
            return algorithms.EXTERIOR
        return algorithms.locate_in_edges(x, y, self._edges or self._prepare_edges())

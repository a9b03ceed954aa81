"""Multi-geometries and geometry collections."""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, TypeVar

from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

G = TypeVar("G", bound=Geometry)


class _BaseCollection(Geometry, Generic[G]):
    """Shared machinery of the four collection types."""

    __slots__ = ("_geoms",)
    is_collection = True

    _member_type: type | tuple[type, ...] = Geometry

    def __init__(self, geoms: Iterable[G] = ()) -> None:
        self._geoms = tuple(geoms)
        for g in self._geoms:
            if not isinstance(g, self._member_type):
                raise TypeError(
                    f"{type(self).__name__} may only contain "
                    f"{self._member_type}, got {type(g).__name__}"
                )
        env = Envelope.empty()
        for g in self._geoms:
            env = env.merge(g.envelope)
        self._envelope = env

    @property
    def geoms(self) -> tuple[G, ...]:
        return self._geoms

    @property
    def is_empty(self) -> bool:
        return not self._geoms or all(g.is_empty for g in self._geoms)

    @property
    def dimension(self) -> int:
        return max((g.dimension for g in self._geoms if not g.is_empty), default=-1)

    def __len__(self) -> int:
        return len(self._geoms)

    def __iter__(self) -> Iterator[G]:
        return iter(self._geoms)

    def __getitem__(self, index: int) -> G:
        return self._geoms[index]

    def centroid(self) -> Point:
        """Unweighted mean of the member centroids.

        A size-weighted centroid would be more faithful for mixed-extent
        members, but partition assignment only needs a deterministic
        representative point inside the collection's envelope.
        """
        members = [g for g in self._geoms if not g.is_empty]
        if not members:
            return Point()
        xs, ys = [], []
        for g in members:
            c = g.centroid()
            xs.append(c.x)
            ys.append(c.y)
        return Point(sum(xs) / len(xs), sum(ys) / len(ys))

    def coordinates(self) -> list[tuple[float, float]]:
        coords: list[tuple[float, float]] = []
        for g in self._geoms:
            coords.extend(g.coordinates())
        return coords

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._geoms == other._geoms

    def __hash__(self) -> int:
        return hash((self.geom_type, self._geoms))

    def __getstate__(self) -> tuple:
        return (self._geoms,)

    def __setstate__(self, state: tuple) -> None:
        (self._geoms,) = state
        env = Envelope.empty()
        for g in self._geoms:
            env = env.merge(g.envelope)
        self._envelope = env


class MultiPoint(_BaseCollection[Point]):
    """A set of points."""

    __slots__ = ()
    _member_type = Point

    @property
    def geom_type(self) -> str:
        return "MULTIPOINT"


class MultiLineString(_BaseCollection[LineString]):
    """A set of line strings."""

    __slots__ = ()
    _member_type = LineString

    @property
    def geom_type(self) -> str:
        return "MULTILINESTRING"


class MultiPolygon(_BaseCollection[Polygon]):
    """A set of polygons."""

    __slots__ = ()
    _member_type = Polygon

    @property
    def geom_type(self) -> str:
        return "MULTIPOLYGON"

    @property
    def area(self) -> float:
        return sum(p.area for p in self._geoms)


class GeometryCollection(_BaseCollection[Geometry]):
    """A heterogeneous collection of geometries."""

    __slots__ = ()
    _member_type = Geometry

    @property
    def geom_type(self) -> str:
        return "GEOMETRYCOLLECTION"

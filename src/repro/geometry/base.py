"""The abstract geometry type.

Every concrete geometry implements the small protocol the rest of the
system relies on: an :class:`~repro.geometry.envelope.Envelope`, a
centroid (used by the spatial partitioners for single-partition
assignment of extended geometries), and the binary predicates, which
delegate to the double-dispatch implementations in
:mod:`repro.geometry.predicates`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.geometry.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from types import ModuleType

    from repro.geometry.point import Point

#: :mod:`repro.geometry.predicates`, which the predicate methods below
#: delegate to.  That module imports this one, so it binds itself here
#: as it loads (the package imports it) instead of every call running
#: an ``import`` statement.
_predicates: "ModuleType"


class Geometry(ABC):
    """Base class of all geometries.

    Geometries are immutable; subclasses freeze their coordinate data at
    construction and cache their envelope.  Equality and hashing are by
    value so geometries can key dictionaries and be exchanged through the
    shuffle machinery.
    """

    __slots__ = ("_envelope",)

    _envelope: Envelope

    #: Topological dimension: 0 for points, 1 for lines, 2 for polygons;
    #: a collection's is the largest among its non-empty members (-1 when
    #: it has none).  Containment, overlaps and crosses branch on it; the
    #: symmetric relations find their kernel by the pair of types.
    dimension: int

    #: True for the multi-geometries and geometry collections, whose
    #: predicates distribute over their members.  Read wherever a pair
    #: misses the per-type tables and by containment on every call: an
    #: ``isinstance`` test against this abstract class costs several
    #: times more when the answer is no.
    is_collection = False

    @property
    def envelope(self) -> Envelope:
        """The cached minimum bounding rectangle."""
        return self._envelope

    @property
    @abstractmethod
    def geom_type(self) -> str:
        """The WKT type tag, e.g. ``"POINT"``."""

    @property
    @abstractmethod
    def is_empty(self) -> bool:
        """True for geometries with no coordinates (e.g. ``POINT EMPTY``)."""

    @abstractmethod
    def centroid(self) -> "Point":
        """The geometry's centroid.

        STARK assigns non-point geometries to exactly one partition based
        on this point (paper section 2.1).
        """

    @abstractmethod
    def coordinates(self) -> list[tuple[float, float]]:
        """A flat list of every vertex (used for envelope/extent updates)."""

    # -- binary predicates (double dispatch into predicates module) ------

    def intersects(self, other: "Geometry") -> bool:
        """True when the two geometries share at least one point."""
        return _predicates.intersects(self, other)

    def contains(self, other: "Geometry") -> bool:
        """True when *other* lies completely within this geometry."""
        return _predicates.contains(self, other)

    def within(self, other: "Geometry") -> bool:
        """True when this geometry lies completely within *other*."""
        return _predicates.contains(other, self)

    def disjoint(self, other: "Geometry") -> bool:
        """True when the geometries share no point."""
        return not self.intersects(other)

    def touches(self, other: "Geometry") -> bool:
        """True for boundary-only contact (interiors stay apart)."""
        return _predicates.touches(self, other)

    def overlaps(self, other: "Geometry") -> bool:
        """True for a partial same-dimension overlap."""
        return _predicates.overlaps(self, other)

    def crosses(self, other: "Geometry") -> bool:
        """True when interiors meet in a lower-dimensional set."""
        return _predicates.crosses(self, other)

    def distance(self, other: "Geometry") -> float:
        """Minimum Euclidean distance between the two geometries."""
        return _predicates.distance(self, other)

    def wkt(self) -> str:
        """This geometry's Well-Known Text representation."""
        from repro.geometry.wkt import to_wkt

        return to_wkt(self)

    def __repr__(self) -> str:
        return self.wkt()

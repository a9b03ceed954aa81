"""Polygons with optional holes."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.geometry import algorithms
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LinearRing
from repro.geometry.point import Point


class Polygon(Geometry):
    """An immutable polygon: one exterior ring plus zero or more holes.

    Rings may be given as :class:`LinearRing` instances or raw coordinate
    sequences (which are closed automatically).  ``Polygon()`` constructs
    the empty polygon.
    """

    __slots__ = ("_shell", "_holes", "_is_rectangle")
    dimension = 2

    def __init__(
        self,
        shell: LinearRing | Iterable[Sequence[float]] = (),
        holes: Iterable[LinearRing | Iterable[Sequence[float]]] = (),
    ) -> None:
        self._shell = shell if isinstance(shell, LinearRing) else LinearRing(shell)
        self._holes = tuple(
            h if isinstance(h, LinearRing) else LinearRing(h) for h in holes
        )
        if self._shell.is_empty and self._holes:
            raise ValueError("empty polygon cannot have holes")
        self._envelope = self._shell.envelope
        self._is_rectangle = self._detect_rectangle()

    @property
    def shell(self) -> LinearRing:
        """The exterior ring."""
        return self._shell

    @property
    def holes(self) -> tuple[LinearRing, ...]:
        """The interior rings."""
        return self._holes

    @property
    def is_rectangle(self) -> bool:
        """True for a hole-free, axis-aligned rectangle of finite extent.

        Its four distinct vertices are its envelope's corners and every
        edge is axis-parallel, so a point lies in it exactly when it lies
        in the closed envelope (JTS ``Polygon.isRectangle``).
        """
        return self._is_rectangle

    def _detect_rectangle(self) -> bool:
        coords = self._shell.coords
        if self._holes or len(coords) != 5:
            return False
        env = self._envelope
        # A finite extent keeps every difference ``locate`` takes finite,
        # so it answers INTERIOR or BOUNDARY all over the closed envelope.
        if not (math.isfinite(env.max_x - env.min_x) and math.isfinite(env.max_y - env.min_y)):
            return False
        corners = {
            (env.min_x, env.min_y),
            (env.max_x, env.min_y),
            (env.max_x, env.max_y),
            (env.min_x, env.max_y),
        }
        if len(corners) != 4 or set(coords) != corners:
            return False
        return all(s[0] == e[0] or s[1] == e[1] for s, e in zip(coords, coords[1:]))

    @property
    def geom_type(self) -> str:
        return "POLYGON"

    @property
    def is_empty(self) -> bool:
        return self._shell.is_empty

    @property
    def area(self) -> float:
        """Unsigned area: |shell| minus the holes."""
        if self.is_empty:
            return 0.0
        area = abs(self._shell.signed_area)
        for hole in self._holes:
            area -= abs(hole.signed_area)
        return area

    def rings(self) -> Iterable[LinearRing]:
        """The shell followed by the holes."""
        if not self.is_empty:
            yield self._shell
            yield from self._holes

    def locate(self, x: float, y: float) -> int:
        """Classify a point against the polygon, holes included (the shell's
        ``locate`` inlined: refinement runs this once per candidate)."""
        env = self._envelope
        if not (env.min_x <= x <= env.max_x and env.min_y <= y <= env.max_y):
            return algorithms.EXTERIOR
        shell = self._shell
        loc = algorithms.locate_in_edges(x, y, shell._edges or shell._prepare_edges())
        if loc != algorithms.INTERIOR:
            return loc
        for hole in self._holes:
            hole_loc = hole.locate(x, y)
            if hole_loc == algorithms.INTERIOR:
                return algorithms.EXTERIOR
            if hole_loc == algorithms.BOUNDARY:
                return algorithms.BOUNDARY
        return algorithms.INTERIOR

    def centroid(self) -> Point:
        if self.is_empty:
            return Point()
        # Area-weighted combination of shell and (negative) holes.
        total_area = self._shell.signed_area
        cx, cy = algorithms.ring_centroid(self._shell.coords)
        if not self._holes:
            return Point(cx, cy)
        weighted_x = cx * abs(total_area)
        weighted_y = cy * abs(total_area)
        net = abs(total_area)
        for hole in self._holes:
            h_area = abs(hole.signed_area)
            hx, hy = algorithms.ring_centroid(hole.coords)
            weighted_x -= hx * h_area
            weighted_y -= hy * h_area
            net -= h_area
        if net <= 0:
            return Point(cx, cy)
        return Point(weighted_x / net, weighted_y / net)

    def coordinates(self) -> list[tuple[float, float]]:
        coords: list[tuple[float, float]] = []
        for ring in self.rings():
            coords.extend(ring.coords)
        return coords

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self._shell == other._shell and self._holes == other._holes

    def __hash__(self) -> int:
        return hash(("POLYGON", self._shell, self._holes))

    def __getstate__(self) -> tuple:
        return (self._shell, self._holes)

    def __setstate__(self, state: tuple) -> None:
        self._shell, self._holes = state
        self._envelope = self._shell.envelope
        self._is_rectangle = self._detect_rectangle()

    @staticmethod
    def from_envelope(env: Envelope) -> "Polygon":
        """The rectangle polygon covering an envelope."""
        if env.is_empty:
            return Polygon()
        return Polygon(list(env.corners()))

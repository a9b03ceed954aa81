"""Built-in scalar functions and aggregates for Piglet expressions.

Scalar functions are plain Python callables evaluated per row; the
spatio-temporal constructors and predicates expose the STARK layer
inside the scripting language.  Aggregates apply to grouped bags
(lists of tuples) in ``FOREACH (GROUP ...) GENERATE`` position.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.core.stobject import STObject
from repro.geometry.base import Geometry
from repro.geometry.point import Point
from repro.geometry.wkt import parse_wkt


class PigletRuntimeError(RuntimeError):
    """Raised when a script fails during execution (bad types, unknown
    functions, malformed data)."""


def _as_stobject(value: Any, fn: str) -> STObject:
    if isinstance(value, STObject):
        return value
    if isinstance(value, Geometry):
        return STObject(value)
    if isinstance(value, str):
        return STObject(value)
    raise PigletRuntimeError(
        f"{fn} expects an STObject / geometry / WKT string, got {type(value).__name__}"
    )


def _stobject(*args: Any) -> STObject:
    if not 1 <= len(args) <= 3:
        raise PigletRuntimeError("STOBJECT takes (wkt|geometry[, time[, end]])")
    geo = args[0]
    if isinstance(geo, STObject):
        geo = geo.geo
    if len(args) == 1:
        return STObject(geo)
    if len(args) == 2:
        return STObject(geo, args[1])
    return STObject(geo, args[1], args[2])


def _point(x: Any, y: Any) -> Point:
    return Point(float(x), float(y))


def _geometry(wkt: Any) -> Geometry:
    if isinstance(wkt, Geometry):
        return wkt
    return parse_wkt(str(wkt))


def _intersects(a: Any, b: Any) -> bool:
    return _as_stobject(a, "INTERSECTS").intersects(_as_stobject(b, "INTERSECTS"))


def _contains(a: Any, b: Any) -> bool:
    return _as_stobject(a, "CONTAINS").contains(_as_stobject(b, "CONTAINS"))


def _containedby(a: Any, b: Any) -> bool:
    return _as_stobject(a, "CONTAINEDBY").contained_by(_as_stobject(b, "CONTAINEDBY"))


def _touches(a: Any, b: Any) -> bool:
    return _as_stobject(a, "TOUCHES").geo.touches(_as_stobject(b, "TOUCHES").geo)


def _overlaps(a: Any, b: Any) -> bool:
    return _as_stobject(a, "OVERLAPS").geo.overlaps(_as_stobject(b, "OVERLAPS").geo)


def _crosses(a: Any, b: Any) -> bool:
    return _as_stobject(a, "CROSSES").geo.crosses(_as_stobject(b, "CROSSES").geo)


def _withindistance(a: Any, b: Any, max_distance: Any) -> bool:
    sa = _as_stobject(a, "WITHINDISTANCE")
    sb = _as_stobject(b, "WITHINDISTANCE")
    from repro.core.predicates import within_distance_predicate

    return within_distance_predicate(float(max_distance)).evaluate(sa, sb)


def _distance(a: Any, b: Any) -> float:
    return _as_stobject(a, "DISTANCE").geo.distance(_as_stobject(b, "DISTANCE").geo)


def _wkt(value: Any) -> str:
    return _as_stobject(value, "WKT").geo.wkt()


def _centroid_x(value: Any) -> float:
    return _as_stobject(value, "CENTROIDX").geo.centroid().x


def _centroid_y(value: Any) -> float:
    return _as_stobject(value, "CENTROIDY").geo.centroid().y


def _area(value: Any) -> float:
    geo = _as_stobject(value, "AREA").geo
    area = getattr(geo, "area", None)
    if area is None:
        raise PigletRuntimeError(f"AREA undefined for {geo.geom_type}")
    return area


def _length(value: Any) -> float:
    geo = _as_stobject(value, "LENGTH").geo
    length = getattr(geo, "length", None)
    if length is None:
        raise PigletRuntimeError(f"LENGTH undefined for {geo.geom_type}")
    return length


def _simplify(value: Any, tolerance: Any) -> Geometry:
    from repro.geometry.ops import simplify

    return simplify(_as_stobject(value, "SIMPLIFY").geo, float(tolerance))


def _convexhull(value: Any) -> Geometry:
    from repro.geometry.ops import convex_hull_of

    return convex_hull_of(_as_stobject(value, "CONVEXHULL").geo)


def _time_start(value: Any) -> float:
    st = _as_stobject(value, "TIMESTART")
    if st.time is None:
        raise PigletRuntimeError("TIMESTART: object has no temporal component")
    return st.time.start


def _time_end(value: Any) -> float:
    st = _as_stobject(value, "TIMEEND")
    if st.time is None:
        raise PigletRuntimeError("TIMEEND: object has no temporal component")
    return st.time.end


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "STOBJECT": _stobject,
    "POINT": _point,
    "GEOMETRY": _geometry,
    "INTERSECTS": _intersects,
    "CONTAINS": _contains,
    "CONTAINEDBY": _containedby,
    "TOUCHES": _touches,
    "OVERLAPS": _overlaps,
    "CROSSES": _crosses,
    "WITHINDISTANCE": _withindistance,
    "DISTANCE": _distance,
    "WKT": _wkt,
    "CENTROIDX": _centroid_x,
    "CENTROIDY": _centroid_y,
    "AREA": _area,
    "LENGTH": _length,
    "SIMPLIFY": _simplify,
    "CONVEXHULL": _convexhull,
    "TIMESTART": _time_start,
    "TIMEEND": _time_end,
    "ABS": lambda v: abs(v),
    "ROUND": lambda v: round(v),
    "FLOOR": lambda v: math.floor(v),
    "CEIL": lambda v: math.ceil(v),
    "SQRT": lambda v: math.sqrt(v),
    "LOWER": lambda s: str(s).lower(),
    "UPPER": lambda s: str(s).upper(),
    "CONCAT": lambda *parts: "".join(str(p) for p in parts),
    "STRLEN": lambda s: len(str(s)),
}

#: Predicate functions the planner may route through index execution.
SPATIAL_PREDICATE_FUNCTIONS = {
    "INTERSECTS",
    "CONTAINS",
    "CONTAINEDBY",
    "WITHINDISTANCE",
}


AGGREGATE_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "COUNT": lambda values: len(values),
    "SUM": lambda values: sum(values),
    "AVG": lambda values: (sum(values) / len(values)) if values else None,
    "MIN": lambda values: min(values) if values else None,
    "MAX": lambda values: max(values) if values else None,
}

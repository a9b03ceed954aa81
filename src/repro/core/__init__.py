"""STARK's core: the ``STObject`` data type, the combined spatio-
temporal predicate semantics, and the operator suite (filter, join,
kNN, withinDistance, DBSCAN clustering) with transparent spatial
partitioning and the three indexing modes.
"""

from repro.core.colocation import ColocationPattern, colocation_patterns
from repro.core.knn_join import knn_join
from repro.core.predicates import (
    CONTAINED_BY,
    CONTAINS,
    INTERSECTS,
    STPredicate,
    within_distance_predicate,
)
from repro.core.spatial_rdd import (
    IndexedSpatialRDD,
    SpatialRDDFunctions,
    install_rdd_integration,
    spatial,
)
from repro.core.stobject import STObject

__all__ = [
    "CONTAINED_BY",
    "CONTAINS",
    "ColocationPattern",
    "INTERSECTS",
    "IndexedSpatialRDD",
    "STObject",
    "STPredicate",
    "SpatialRDDFunctions",
    "colocation_patterns",
    "install_rdd_integration",
    "knn_join",
    "spatial",
    "within_distance_predicate",
]

"""Spatio-temporal operators over micro-batch streams.

The streaming layer does not re-implement the paper's operators -- it
routes micro-batches and windows through the *batch* operators in
:mod:`repro.core`, so every result is by construction what a batch run
over the same records would produce.  What lives here is the one
genuinely stream-shaped operator: the **stream-static join**.

A stream-static join matches each incoming event against a fixed
reference dataset (region polygons, points of interest, ...).  Shipping
the reference with every batch would repeat the dominant cost per
batch, so the reference is indexed once into an
:class:`~repro.index.rtree.STRTree` and broadcast; each batch then
probes the tree per partition -- the same build-once/probe-many design
STARK uses for its repartition join, applied across batches instead of
across partitions (GeoFlink's "spatial join with a static side" shape).

Every stream record probes the tree through one rule,
:func:`probe_static`: the predicate's candidate region around the
record's envelope (the rule :mod:`repro.core.join` probes its live
trees with), then the exact predicate.  A ``withinDistance`` predicate
buffers the region by its distance under the Euclidean metric and
widens it to the whole plane under any other, where an envelope gap
proves nothing -- so candidates stay complete without a second path.

**Temporal semantics.**  The paper's combined predicate (eqs. (1)-(3))
rejects a mixed pair where exactly one side has a temporal component.
That is the right rule between two *event* datasets, but a static
reference (region polygons, POIs) is a standing fact, not an event:
it is valid at every instant.  The join therefore evaluates the full
combined predicate only when both sides carry time, and falls back to
the spatial predicate alone when either side is untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.core.predicates import STPredicate
from repro.core.stobject import STObject
from repro.index.rtree import STRTree
from repro.spark.broadcast import Broadcast
from repro.spark.cancellation import Heartbeat
from repro.spark.rdd import RDD

Record = tuple[STObject, Any]


@dataclass(frozen=True)
class StaticPredicate(STPredicate):
    """An :class:`STPredicate` with the static-side temporal relaxation.

    The paper's combined semantics reject a pair where exactly one side
    has a temporal component; for stream operators that rule would make
    every timed event miss every untimed query or reference object.
    This variant treats an untimed side as valid at all times: the
    spatial predicate alone decides.  Two timed sides keep the full
    combined semantics.
    """

    mixed_pair_matches = True

    # Its own binding of the one refinement body, not an inherited one:
    # the benchmark's tracer wraps each class's ``evaluate`` by name
    # (bench/layers.py).
    evaluate = STPredicate.evaluate


def relax_static(predicate: STPredicate) -> STPredicate:
    """Wrap *predicate* with the static-side temporal relaxation."""
    if isinstance(predicate, StaticPredicate):
        return predicate
    return StaticPredicate(
        f"static({predicate.name})",
        predicate.spatial,
        predicate.temporal,
        predicate.envelope_test,
        predicate.candidate_region,
    )


def build_static_index(
    reference: "RDD | Sequence[Record]", order: int = 10
) -> STRTree:
    """Materialize the static side of a stream-static join as an STR-tree.

    *reference* is an ``RDD[(STObject, V)]`` or a plain sequence of such
    pairs; it is collected to the driver (the static side is assumed to
    fit -- the same assumption a Spark broadcast join makes) and
    bulk-loaded into one tree.
    """
    rows = reference.collect() if isinstance(reference, RDD) else list(reference)
    return STRTree(((st.geo.envelope, (st, v)) for st, v in rows), order)


def broadcast_static_index(
    sc, reference: "RDD | Sequence[Record]", order: int = 10
) -> Broadcast:
    """Build and broadcast the static index once for a whole stream."""
    return sc.broadcast(build_static_index(reference, order))


def probe_static(tree: STRTree, predicate: STPredicate, st: STObject) -> list[Record]:
    """The reference records *st* matches: the one stream-static probe.

    Queries *tree* with ``predicate.candidate_region`` of the record's
    envelope and keeps the entries for which
    ``predicate.evaluate(st, ref_st)`` holds.
    """
    region = predicate.candidate_region(st.geo.envelope)
    return [ref for ref in tree.query(region) if predicate.evaluate(st, ref[0])]


def stream_static_join(batch_rdd: RDD, index: Broadcast, predicate: STPredicate) -> RDD:
    """Join one micro-batch against a broadcast static index.

    Returns ``RDD[((stream_st, stream_v), (static_st, static_v))]`` --
    one pair per matching combination, the same contract as
    :func:`repro.core.join.spatial_join`.  Each record is probed
    through :func:`probe_static`.

    The predicate is oriented like :func:`repro.core.join.spatial_join`:
    ``evaluate(stream_item, static_item)``, with the static-side
    temporal relaxation of :func:`relax_static`.
    """
    predicate = relax_static(predicate)

    def join_partition(it: Iterator[Record]) -> Iterator[tuple]:
        tree: STRTree = index.value
        heartbeat = Heartbeat(every=256)
        for st, value in it:
            heartbeat.beat()
            for ref in probe_static(tree, predicate, st):
                yield ((st, value), ref)

    return batch_rdd.map_partitions(join_partition).set_name("stream.join_static")

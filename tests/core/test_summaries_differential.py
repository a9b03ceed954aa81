"""Differential test of partition pruning: every mode against brute force.

Pruning reads :func:`repro.core.summaries.partition_summaries` of the
partitioned RDD, so it has to stay lossless whatever the partitioner
was built from.  One property draws points plus overhanging polygons
(timed and untimed, non-dyadic coordinates and times), a partitioner of
every family built from the data / other data / a sample, and queries
that graze a member in space and time, and compares filter (in every
indexing mode), kNN and join with the brute-force oracle; the summaries
must cover every member.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicates import (
    CONTAINED_BY,
    CONTAINS,
    INTERSECTS,
    within_distance_predicate,
)
from repro.core.spatial_rdd import IndexedSpatialRDD, spatial
from repro.core.stobject import STObject
from repro.core.summaries import partition_summaries
from repro.index import INDEX_MODES
from repro.partitioners import (
    BSPartitioner,
    GridPartitioner,
    SpatioTemporalPartitioner,
    TemporalRangePartitioner,
)
from repro.spark.context import SparkContext
from repro.temporal import Interval

SPATIAL_KINDS = {
    "grid": lambda keys: GridPartitioner(keys, 3),
    "bsp": lambda keys: BSPartitioner(keys, max_cost_per_partition=4),
}
TIMED_KINDS = ("temporal", "spatio-temporal")
#: Handle method -> the predicate it evaluates.
OPERATORS = {"intersects": INTERSECTS, "contains": CONTAINS, "contained_by": CONTAINED_BY}

#: A small universe in thirds (dense enough for near misses), times in sevenths.
thirds = st.integers(0, 90).map(lambda n: n / 3)
sevenths = st.integers(0, 700).map(lambda n: n / 7)


def rectangle(x0, y0, x1, y1):
    x0, x1 = sorted((x0, x1))
    y0, y1 = sorted((y0, y1))
    return f"POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"


@st.composite
def times(draw, required):
    shape = draw(st.sampled_from(("instant", "interval") + (() if required else ("none",))))
    if shape == "none":
        return None
    start = draw(sevenths)
    return start if shape == "instant" else Interval(start, start + draw(sevenths) / 3)


@st.composite
def keys(draw, timed):
    x, y = draw(thirds), draw(thirds)
    if draw(st.booleans()):  # up to 20 wide: sticks out of any cell
        wkt = rectangle(x, y, x + draw(st.integers(1, 60)) / 3, y + draw(st.integers(1, 9)) / 3)
    else:
        wkt = f"POINT ({x} {y})"
    return STObject(wkt, draw(times(timed)))


@st.composite
def queries(draw, data):
    """A query that grazes a member: on (or a third off) a corner of its
    envelope, at (or a seventh off) its time -- where pruning decides."""
    anchor = draw(st.sampled_from(data))
    env = anchor.geo.envelope
    off = st.sampled_from((-1 / 3, 0.0, 1 / 3))
    x = draw(st.sampled_from((env.min_x, env.max_x))) + draw(off)
    y = draw(st.sampled_from((env.min_y, env.max_y))) + draw(off)
    if draw(st.booleans()):  # towards either side of the corner
        side = st.sampled_from((-10.0, -0.5, 0.5, 10.0))
        wkt = rectangle(x, y, x + draw(side), y + draw(side))
    else:
        wkt = f"POINT ({x} {y})"
    time = draw(times(required=False))
    if anchor.time is not None and draw(st.booleans()):
        edge = draw(st.sampled_from((anchor.time.start, anchor.time.end)))
        time = edge + draw(st.sampled_from((-1 / 7, 0.0, 1 / 7)))
    operator = draw(st.sampled_from((*OPERATORS, "within_distance")))
    return STObject(wkt, time), operator, draw(st.integers(0, 30)) / 10


@st.composite
def cases(draw):
    kind = draw(st.sampled_from((*SPATIAL_KINDS, *TIMED_KINDS)))
    timed = kind in TIMED_KINDS  # temporal partitioners reject untimed keys
    data = draw(st.lists(keys(timed), min_size=1, max_size=24))
    source = draw(st.sampled_from(("data", "other", "sample")))
    if source == "other":
        built_from = draw(st.lists(keys(timed), min_size=1, max_size=12))
    else:
        built_from = data if source == "data" else data[::3]
    if kind in SPATIAL_KINDS:
        partitioner = SPATIAL_KINDS[kind](built_from)
    else:
        partitioner = TemporalRangePartitioner(built_from, 3)
        if kind == "spatio-temporal":
            partitioner = SpatioTemporalPartitioner(
                GridPartitioner(built_from, 2), partitioner
            )
    asked = draw(st.lists(queries(data), min_size=2, max_size=2))
    return data, partitioner, asked, draw(st.integers(1, 3))


@pytest.fixture(scope="module")
def context():
    sc = SparkContext("summaries-differential", parallelism=2, executor="sequential")
    yield sc
    sc.stop()


def handles_for(context, rdd):
    """One query handle per indexing mode over *rdd*."""
    handles = {"none": spatial(rdd)}
    for mode in INDEX_MODES:
        handles[f"live:{mode}"] = spatial(rdd).live_index(order=3, mode=mode)
    handles["persistent"] = indexed = spatial(rdd).index(order=3)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "index")
        indexed.save(path)
        handles["reloaded"] = reloaded = IndexedSpatialRDD.load(context, path)
        reloaded.tree_rdd.count()  # read the parts while they exist
    return handles


def check(context, data, partitioner, asked, k):
    """Filter in every mode, kNN and join against brute force."""
    rows = [(key, i) for i, key in enumerate(data)]
    rdd = context.parallelize(rows, 3).partition_by(partitioner)

    summaries = partition_summaries(rdd)
    members = rdd.map_partitions_with_index(
        lambda split, it: ((split, kv[0]) for kv in it)
    ).collect()
    assert sum(s.count for s in summaries) == len(data)
    for pid, key in members:
        assert summaries[pid].envelope.contains(key.geo.envelope)
        if key.time is not None:
            assert summaries[pid].t_lo <= key.time.start
            assert key.time.end <= summaries[pid].t_hi

    handles = handles_for(context, rdd)
    for query, operator, distance in asked:
        if operator == "within_distance":
            predicate, args = within_distance_predicate(distance), (query, distance)
        else:
            predicate, args = OPERATORS[operator], (query,)
        expected = sorted(i for key, i in rows if predicate.evaluate(key, query))
        for mode, handle in handles.items():
            filtered = getattr(handle, operator)(*args).collect()
            assert sorted(v for _k, v in filtered) == expected, mode

        distances = sorted(key.geo.distance(query.geo) for key in data)[:k]
        for mode in ("none", "persistent", "reloaded"):
            nearest = handles[mode].knn(query, k)
            assert [d for d, _kv in nearest] == distances, mode

        probes = context.parallelize([(query, "q"), (data[0], "first")], 2)
        joined = spatial(probes).join(rdd, predicate).collect()
        assert sorted((left[1], right[1]) for left, right in joined) == sorted(
            (name, i)
            for probe, name in ((query, "q"), (data[0], "first"))
            for key, i in rows
            if predicate.evaluate(probe, key)
        )


@given(cases())
@settings(max_examples=40, deadline=None)
def test_pruned_operators_equal_brute_force(context, case):
    check(context, *case)


def point(x, y, time=None):
    return STObject(f"POINT ({x} {y})", time)


def _query_starts_before_the_partition_does():
    data = [point(0, 1 / 3, 1 / 7)] + [point(0, 0, 0.0)] * 4
    query = STObject(rectangle(-1 / 3, -29 / 3, 1 / 6, 1 / 3), Interval(0.0, 1 / 7))
    return data, GridPartitioner(data, 3), [(query, "intersects", 0.0)], 1


def _query_touches_the_extent_on_its_edge():
    data = [point(0, 0, 0.0)]
    return data, GridPartitioner(data, 3), [(point(0, 0, 0.0), "intersects", 0.0)], 1


def _second_neighbour_sits_in_the_other_partition():
    data = [point(0, 0), point(0, 2 / 3, 0.0)] + [point(1 / 3, 0, 0.0)] * 3
    partitioner = BSPartitioner(data, max_cost_per_partition=4)
    return data, partitioner, [(point(-1 / 3, -1 / 3, 0.0), "intersects", 0.0)], 2


def _probe_two_ulps_beside_the_polygon():
    data = [
        STObject(rectangle(0, 0, 15.333333333333332, 0.3333333333333333)),
        point(15.333333333333334, 0.3333333333333333),
    ]
    probe = point(15.333333333333334, 0)
    return data, GridPartitioner(data, 3), [(probe, "within_distance", 0.0)], 1


@pytest.mark.parametrize(
    "case",
    [
        _query_starts_before_the_partition_does,
        _query_touches_the_extent_on_its_edge,
        _second_neighbour_sits_in_the_other_partition,
        _probe_two_ulps_beside_the_polygon,
    ],
)
def test_shrunk_failures_of_broken_pruning_rules(context, case):
    """Each is what the property shrank to with one pruning rule broken
    (overlap tested on the query's start only; open bounds in space; a
    kNN bound one unit too tight), or a refinement that accepted a pair
    the envelope test rejects (a point two ulps outside a polygon at
    distance 0) -- kept so every run has them."""
    check(context, *case())

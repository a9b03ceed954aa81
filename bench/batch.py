"""The four batch workloads: closed loop, one client.

Every operation goes through the program's public API on a
``SparkContext(executor="threads", parallelism=4)`` -- the library
default -- with chaos and the program's own tracer off.  Each workload
fixes its record count, operation rate and query pool as constants
(calibrated once on the 2-core reference host); ``--scale`` multiplies
record counts only, for the report-only sweep.

Set-up (``setup_s``) is everything up to a queryable handle: generate,
write the event file, load it through ``repro.io.readers``, partition,
cache or build/save/re-load the index.
"""

from __future__ import annotations

import math
import os
import random
from types import SimpleNamespace

import gen
from harness import WARMUP_SHARE, Measured, spark_counters, timed_loop

from repro import INTERSECTS, GridPartitioner, SparkContext, STObject, spatial
from repro.core.clustering.dbscan import NOISE, local_dbscan
from repro.core.spatial_rdd import IndexedSpatialRDD
from repro.io.readers import load_event_file, write_event_file
from repro.planner import QueryPlanner

#: Share of range/kNN/planned queries checked against a brute-force scan,
#: and the most a run checks (the scan is O(points) per query).
VERIFY_SHARE = 0.05
VERIFY_MOST = 250

#: Never time fewer operations than this, however short ``--seconds`` is.
THROUGHPUT_MIN_OPS = 10


def counters_between(after_setup: dict, before: dict, after: dict) -> dict[str, float]:
    """Set-up plus timed-section counts (the warm-up in between is dropped)."""
    return {k: after_setup[k] + after[k] - before[k] for k in after}


class ClosedLoopWorkload:
    """Shared timed loop: a frozen list of operations, one at a time."""

    name = ""
    why = ""
    #: Operations per second of ``--seconds`` (frozen; sets the op count).
    ops_per_second = 1.0
    #: Share of the untraced operation count a traced run executes.
    traced_share = 0.5

    def operations(self, inputs, count: int) -> list:
        """The first *count* operations of the workload's fixed sequence."""
        pool = inputs.ops
        return [pool[i % len(pool)] for i in range(count)]

    def execute(self, state, op):
        raise NotImplementedError

    def measure(self, state, inputs, seconds, ctx) -> Measured:
        count = max(THROUGHPUT_MIN_OPS, round(self.ops_per_second * seconds))
        warm = max(1, round(count * WARMUP_SHARE))
        ops = self.operations(inputs, warm + count)
        sc = state.sc
        after_setup = spark_counters(sc)
        ctx.discard_spans()
        for op in ops[:warm]:
            self.execute(state, op)
        self.begin_timed(state)
        before = spark_counters(sc)
        timed = ops[warm:]
        loop = timed_loop(count, lambda i: self.execute(state, timed[i]), seconds, ctx)
        done = len(loop.series.latencies)
        counters = counters_between(after_setup, before, spark_counters(sc))
        counters["io_records_read"] = state.records_read
        counters.update(self.extra_counters(state, inputs, done))
        return Measured(
            timed=loop.series,
            wall=loop.wall,
            attempted=done,
            failed=loop.failed,
            truncated=loop.truncated,
            counters=counters,
            detail={"operations": done},
            results=list(zip(timed, loop.results)),
        )

    def begin_timed(self, state) -> None:
        """Reset whatever the workload itself counts (warm-up is over)."""

    def extra_counters(self, state, inputs, done: int) -> dict[str, float]:
        return {}

    def close(self, state) -> None:
        state.sc.stop()


def load_points(sc: SparkContext, rows, workdir: str):
    """Event rows -> file -> ``RDD[(STObject, (id, category))]`` (cached),
    and how many records the program read."""
    path = os.path.join(workdir, "events.txt")
    write_event_file(rows, path)
    points = load_event_file(sc, path).persist()
    return points, points.count()


def sample_indices(seed: int, n: int) -> list[int]:
    """The seeded 5% (at most 250) of operation indices that get a reference check."""
    rng = random.Random(seed * 7919 + n)
    k = min(VERIFY_MOST, max(5, round(n * VERIFY_SHARE)))
    return sorted(rng.sample(range(n), min(n, k)))


# ---------------------------------------------------------------------------


class RangeKnnIndexed(ClosedLoopWorkload):
    name = "range_knn_indexed"
    why = (
        "tiny per-query work on a prebuilt persistent index: extent pruning, "
        "job/task launch and the tree probe are the whole cost (scheduler and probe-only)"
    )
    ops_per_second = 7500.0
    traced_share = 0.4

    POINTS = 16_000
    TIME_SPAN = 10_000.0
    POOL = 1200
    HALF_WIDTH = 4.0  # a handful of points per box: refinement stays a minority
    INTERVAL_SHARE = 0.05
    K = 10

    def generate(self, seed: int, scale: float, seconds: float):
        rng = random.Random(seed)
        centres = gen.cluster_centres(rng)
        n = max(200, round(self.POINTS * scale))
        rows, coords = gen.clustered_rows(rng, n, centres, 40.0, self.TIME_SPAN)
        ops = []
        width = self.TIME_SPAN * self.INTERVAL_SHARE
        for _ in range(self.POOL):
            # Boxes are anchored on a data point, so none is empty.
            x, y, t = coords[rng.randrange(n)]
            x += rng.uniform(-0.5, 0.5) * self.HALF_WIDTH
            y += rng.uniform(-0.5, 0.5) * self.HALF_WIDTH
            box = (x - self.HALF_WIDTH, y - self.HALF_WIDTH,
                   x + self.HALF_WIDTH, y + self.HALF_WIDTH)
            draw = rng.random()
            if draw < 0.4:
                # Timed data only matches a timed query (paper eqs. 1-3),
                # so the "spatial" range spans all of time.
                ops.append(("range", box, (0.0, self.TIME_SPAN)))
            elif draw < 0.8:
                t0 = min(max(0.0, t - rng.uniform(0.0, width)), self.TIME_SPAN - width)
                ops.append(("range_time", box, (t0, t0 + width)))
            else:
                ops.append(("knn", (x, y), None))
        return SimpleNamespace(
            rows=rows, coords=coords, ops=ops, seed=seed,
            digest=gen.digest(rows, ops),
        )

    def setup(self, inputs, ctx):
        workdir = ctx.dirs.new()
        sc = SparkContext("bench-range-knn", parallelism=4, executor="threads")
        points, records_read = load_points(sc, inputs.rows, workdir)
        partitioner = GridPartitioner.from_rdd(points, 4)
        index = spatial(points).index(order=10, partitioner=partitioner)
        index_dir = os.path.join(workdir, "index")
        index.save(index_dir)
        loaded = IndexedSpatialRDD.load(sc, index_dir)
        loaded.tree_rdd.count()  # materialize the re-loaded trees
        queries = {}
        for op in inputs.ops:
            kind, shape, time = op
            if kind == "knn":
                queries[op] = STObject(gen.point_wkt(*shape))
            else:
                queries[op] = STObject(gen.box_wkt(*shape), time[0], time[1])
        sizes = loaded.tree_rdd.map(len).collect()
        skew = max(sizes) * len(sizes) / sum(sizes)
        return SimpleNamespace(
            sc=sc, index=loaded, queries=queries, skew=skew, records_read=records_read
        )

    def execute(self, state, op):
        query = state.queries[op]
        if op[0] == "knn":
            return tuple(d for d, _kv in state.index.knn(query, self.K))
        return tuple(sorted(v[0] for _st, v in state.index.intersects(query).collect()))

    def extra_counters(self, state, inputs, done):
        return {"partition_skew": state.skew}

    def verify(self, state, inputs, measured):
        coords = inputs.coords
        wrong = 0
        picked = sample_indices(inputs.seed, len(measured.results))
        for i in picked:
            (kind, shape, time), got = measured.results[i]
            if kind == "knn":
                qx, qy = shape
                want = sorted(math.hypot(x - qx, y - qy) for x, y, _t in coords)[: self.K]
                ok = (
                    not isinstance(got, Exception)
                    and len(got) == len(want)
                    and all(abs(a - b) <= 1e-9 for a, b in zip(got, want))
                )
            else:
                x0, y0, x1, y1 = shape
                t0, t1 = time
                want = tuple(
                    pid
                    for pid, (x, y, t) in enumerate(coords)
                    if x0 <= x <= x1 and y0 <= y <= y1 and t0 <= t <= t1
                )
                ok = got == want
            wrong += not ok
        return len(picked), wrong, []


# ---------------------------------------------------------------------------


class JoinLive(ClosedLoopWorkload):
    name = "join_live"
    why = (
        "every join bulk-loads live trees over the cached points, probes them with "
        "each polygon and refines by point-in-polygon: index build + probe + geometry dominate"
    )
    ops_per_second = 7.0
    traced_share = 0.4

    POINTS = 10_000
    POLYGONS = 200

    def generate(self, seed: int, scale: float, seconds: float):
        rng = random.Random(seed)
        centres = gen.cluster_centres(rng)
        n = max(200, round(self.POINTS * scale))
        rows, coords = gen.clustered_rows(rng, n, centres, 40.0, 1000.0)
        rings = []
        for _ in range(self.POLYGONS):
            cx, cy = gen.clustered_point(rng, centres, 30.0)
            rings.append(gen.polygon_ring(rng, cx, cy, 10.0, 25.0))
        return SimpleNamespace(
            rows=rows, coords=coords, rings=rings, ops=[("join",)], seed=seed,
            digest=gen.digest(rows, rings),
        )

    def setup(self, inputs, ctx):
        workdir = ctx.dirs.new()
        sc = SparkContext("bench-join", parallelism=4, executor="threads")
        loaded, records_read = load_points(sc, inputs.rows, workdir)
        # Joins are spatial here: strip the event time so untimed
        # polygons can match (mixed timed/untimed pairs never do).
        points = loaded.map(lambda kv: (STObject(kv[0].geo), kv[1]))
        partitioner = GridPartitioner.from_rdd(points, 4)
        points = points.partition_by(partitioner).persist()
        points.count()
        polygons = sc.parallelize(
            [(STObject(gen.ring_wkt(ring)), j) for j, ring in enumerate(inputs.rings)], 4
        ).persist()
        polygons.count()
        skew = partitioner.imbalance(points.keys().collect())
        return SimpleNamespace(
            sc=sc, points=points, polygons=polygons, skew=skew, records_read=records_read
        )

    def execute(self, state, op):
        # The polygons probe live trees built over the point partitions.
        pairs = spatial(state.polygons).join(state.points, INTERSECTS).collect()
        return len(pairs), pair_checksum((left[1], right[1][0]) for left, right in pairs)

    def extra_counters(self, state, inputs, done):
        pairs = state.polygons.num_partitions * state.points.num_partitions
        return {"partition_skew": state.skew, "join_pairs_total": pairs * done}

    def verify(self, state, inputs, measured):
        # Nested loop: a bounding-box pre-test in plain arithmetic, then
        # the exact predicate on the survivors.
        polygons = state.polygons.collect()
        points = [(st, value[0]) for st, value in state.points.collect()]
        want = []
        for poly, j in polygons:
            env = poly.geo.envelope
            x0, y0, x1, y1 = env.min_x, env.min_y, env.max_x, env.max_y
            for st, pid in points:
                p = st.geo
                if x0 <= p.x <= x1 and y0 <= p.y <= y1 and INTERSECTS.evaluate(poly, st):
                    want.append((j, pid))
        want_key = (len(want), pair_checksum(want))
        wrong = sum(got != want_key for _op, got in measured.results)
        return len(measured.results), wrong, [f"join pairs per join: {len(want)}"]


def pair_checksum(pairs) -> int:
    """An order-independent digest of ``(polygon id, point id)`` pairs."""
    return sum((j * 1_000_003 + pid) * 2_654_435_761 % (1 << 61) for j, pid in pairs)


# ---------------------------------------------------------------------------


class DbscanShuffle(ClosedLoopWorkload):
    name = "dbscan_shuffle"
    why = (
        "eps-border replication and cluster merge go through the hash shuffle with "
        "dozens of tasks per run: shuffle and task count, not index or predicate, set the time"
    )
    ops_per_second = 4.0
    traced_share = 0.5

    POINTS = 4_000
    EPS = 12.0
    MIN_PTS = 5
    GRID = 5

    def generate(self, seed: int, scale: float, seconds: float):
        rng = random.Random(seed)
        centres = gen.cluster_centres(rng)
        n = max(200, round(self.POINTS * scale))
        rows, coords = gen.clustered_rows(rng, n, centres, 40.0, 1000.0)
        return SimpleNamespace(
            rows=rows, coords=coords, ops=[("dbscan",)], seed=seed,
            digest=gen.digest(rows),
        )

    def setup(self, inputs, ctx):
        workdir = ctx.dirs.new()
        sc = SparkContext("bench-dbscan", parallelism=4, executor="threads")
        points, records_read = load_points(sc, inputs.rows, workdir)
        # A 5x5 grid gives ~100 tasks per run: replication across 25
        # cell borders and the merge go through the shuffle.
        partitioner = GridPartitioner.from_rdd(points, self.GRID)
        skew = partitioner.imbalance(points.keys().collect())
        return SimpleNamespace(
            sc=sc, points=points, partitioner=partitioner, skew=skew, first=None,
            records_read=records_read,
        )

    def extra_counters(self, state, inputs, done):
        return {"partition_skew": state.skew}

    def execute(self, state, op):
        labelled = (
            spatial(state.points)
            .cluster(self.EPS, self.MIN_PTS, state.partitioner)
            .collect()
        )
        labels = {value[0]: label for _st, (value, label) in labelled}
        # Keeping every run's 4k-entry dict alive would grow the heap the
        # program's collector walks; the program is deterministic, so
        # runs after the first keep a fingerprint unless they differ.
        key = hash(tuple(sorted(labels.items())))
        if state.first is None:
            state.first = (key, labels)
        return key if key == state.first[0] else labels

    def verify(self, state, inputs, measured):
        xy = [(x, y) for x, y, _t in inputs.coords]
        ref_labels, ref_core = local_dbscan(xy, self.EPS, self.MIN_PTS)
        first_key, first_labels = state.first
        first_ok = same_clustering(xy, self.EPS, ref_labels, ref_core, first_labels)
        wrong = 0
        for _op, got in measured.results:
            if isinstance(got, Exception):
                ok = False
            elif got == first_key:
                ok = first_ok
            else:
                ok = same_clustering(xy, self.EPS, ref_labels, ref_core, got)
            wrong += not ok
        clusters = len({label for label in ref_labels if label != NOISE})
        return len(measured.results), wrong, [f"clusters: {clusters}"]


def same_clustering(xy, eps, ref_labels, ref_core, got: dict[int, int]) -> bool:
    """Equal up to renaming, allowing DBSCAN's border-point tie-break.

    Noise sets must match and core points must be partitioned the same
    way; a border point may sit in either of two clusters it touches,
    so it only has to carry the (renamed) label of some core point
    within ``eps``.
    """
    if len(got) != len(ref_labels):
        return False
    rename: dict[int, int] = {}
    used: set[int] = set()
    for pid, (ref, core) in enumerate(zip(ref_labels, ref_core)):
        label = got[pid]
        if (ref == NOISE) != (label == NOISE):
            return False
        if not core:
            continue
        if ref not in rename:
            if label in used:
                return False
            rename[ref] = label
            used.add(label)
        if rename[ref] != label:
            return False
    cores = [pid for pid, core in enumerate(ref_core) if core]
    for pid, (ref, core) in enumerate(zip(ref_labels, ref_core)):
        if core or ref == NOISE:
            continue
        x, y = xy[pid]
        label = got[pid]
        if not any(
            got[c] == label and math.hypot(xy[c][0] - x, xy[c][1] - y) <= eps
            for c in cores
        ):
            return False
    return True


# ---------------------------------------------------------------------------


class StHistoryPlanned(ClosedLoopWorkload):
    name = "st_history_planned"
    why = (
        "spatially broad, temporally selective queries on unpartitioned history: the planner, "
        "its statistics pass and the time-sliced forest / 3D tree do the work"
    )
    ops_per_second = 10.0
    traced_share = 0.5

    POINTS = 16_000
    TIME_SPAN = 100_000.0
    POOL = 200
    BOX_SIDE = 850.0  # ~72% of the area: broad enough that a time-aware index pays
    WINDOW_SHARE = 0.01

    def generate(self, seed: int, scale: float, seconds: float):
        rng = random.Random(seed)
        n = max(200, round(self.POINTS * scale))
        rows, coords = gen.uniform_rows(rng, n, self.TIME_SPAN)
        # Each event lasts 1..20 time units, fixed by its id.
        spans = [(x, y, t, t + 1.0 + (i % 20)) for i, (x, y, t) in enumerate(coords)]
        width = self.TIME_SPAN * self.WINDOW_SHARE
        ops = []
        for _ in range(self.POOL):
            x0 = rng.uniform(0.0, gen.EXTENT - self.BOX_SIDE)
            y0 = rng.uniform(0.0, gen.EXTENT - self.BOX_SIDE)
            t0 = rng.uniform(0.0, self.TIME_SPAN - width)
            ops.append(
                ("planned", (x0, y0, x0 + self.BOX_SIDE, y0 + self.BOX_SIDE), (t0, t0 + width))
            )
        return SimpleNamespace(
            rows=rows, spans=spans, ops=ops, seed=seed, digest=gen.digest(rows, ops)
        )

    def setup(self, inputs, ctx):
        workdir = ctx.dirs.new()
        sc = SparkContext("bench-history", parallelism=4, executor="threads")
        instants, records_read = load_points(sc, inputs.rows, workdir)
        history = instants.map(
            lambda kv: (
                STObject(kv[0].geo, kv[0].time.start, kv[0].time.start + 1.0 + (kv[1][0] % 20)),
                kv[1],
            )
        ).persist()
        history.count()
        queries = {
            op: STObject(gen.box_wkt(*op[1]), op[2][0], op[2][1]) for op in inputs.ops
        }
        return SimpleNamespace(
            sc=sc, history=history, queries=queries, planner=QueryPlanner(sc),
            estimated=0.0, strategies={}, records_read=records_read,
        )

    def execute(self, state, op):
        # filter_planned() with the default cost model always scans a
        # one-shot query (an index build never amortizes over a single
        # use), so the workload asks the same planner which *index* to
        # use -- the route a caller holding an indexed handle takes.
        query = state.queries[op]
        plan = state.planner.plan_filter(
            state.history, query, INTERSECTS, require_index=True
        )
        state.estimated += plan.estimate.candidates
        state.strategies[plan.strategy] = state.strategies.get(plan.strategy, 0) + 1
        rows = state.planner.execute(state.history, query, INTERSECTS, plan).collect()
        return tuple(sorted(value[0] for _st, value in rows))

    def begin_timed(self, state):
        state.estimated = 0.0
        state.strategies = {}

    def measure(self, state, inputs, seconds, ctx):
        measured = super().measure(state, inputs, seconds, ctx)
        measured.detail["strategies"] = dict(state.strategies)
        return measured

    def extra_counters(self, state, inputs, done):
        return {"planner_estimated_candidates": state.estimated}

    def verify(self, state, inputs, measured):
        wrong = 0
        picked = sample_indices(inputs.seed, len(measured.results))
        for i in picked:
            (_kind, (x0, y0, x1, y1), (t0, t1)), got = measured.results[i]
            want = tuple(
                pid
                for pid, (x, y, s, e) in enumerate(inputs.spans)
                if x0 <= x <= x1 and y0 <= y <= y1 and s <= t1 and e >= t0
            )
            wrong += got != want
        return len(picked), wrong, []

"""Integration: the paper's Figure-2 workflow and end-to-end pipelines.

Figure 2: raw data -> spatial partitioning -> optional indexing ->
store to HDFS <-> load from HDFS -> query execution.
"""

import pytest

from repro.core.spatial_rdd import IndexedSpatialRDD, spatial
from repro.core.stobject import STObject
from repro.io.datagen import event_rows, timed_stobjects, world_events
from repro.io.readers import load_event_file, write_event_file
from repro.partitioners.bsp import BSPartitioner
from repro.spark.context import SparkContext


class TestFigure2Workflow:
    def test_full_round_trip(self, sc, tmp_path):
        # raw data on "HDFS"
        points = world_events(400, seed=91)
        rows = event_rows(points, time_range=(0, 10_000), seed=91)
        raw_path = str(tmp_path / "raw.csv")
        write_event_file(rows, raw_path)

        # load -> pre-process -> spatially partition -> index
        events = load_event_file(sc, raw_path, num_slices=4)
        bsp = BSPartitioner.from_rdd(events, max_cost_per_partition=80)
        indexed = spatial(events).index(order=8, partitioner=bsp)

        # store the index, and use it in the SAME program (no extra run)
        index_path = str(tmp_path / "index")
        indexed.save(index_path)
        query = STObject(
            "POLYGON ((50 450, 300 450, 300 950, 50 950, 50 450))", 0, 10_000
        )
        first_run = sorted(v[0] for _k, v in indexed.containedBy(query).collect())

        # ...then reload it from "another program" and query again
        with SparkContext("program-2", executor="sequential") as other:
            reloaded = IndexedSpatialRDD.load(other, index_path)
            second_run = sorted(
                v[0] for _k, v in reloaded.containedBy(query).collect()
            )

        expected = sorted(
            event_id
            for event_id, _cat, time, wkt in rows
            if STObject(wkt, time).contained_by(query)
        )
        assert first_run == expected
        assert second_run == expected

    def test_reloaded_index_prunes_partitions(self, sc, tmp_path):
        events = sc.parallelize(
            [
                (o, i)
                for i, o in enumerate(
                    timed_stobjects(world_events(400, seed=92), seed=92)
                )
            ],
            4,
        )
        bsp = BSPartitioner.from_rdd(events, max_cost_per_partition=60)
        indexed = spatial(events).index(order=8, partitioner=bsp)
        path = str(tmp_path / "idx")
        indexed.save(path)

        reloaded = IndexedSpatialRDD.load(sc, path)
        tiny = STObject("POLYGON ((60 470, 90 470, 90 500, 60 500, 60 470))", 0, 10**9)
        sc.metrics.reset()
        reloaded.intersects(tiny).collect()
        assert sc.metrics.partitions_pruned > 0


class TestEndToEndAnalysis:
    def test_filter_join_cluster_pipeline(self, sc):
        """A realistic analysis: restrict events to a region & window,
        join with points of interest, then cluster the matches."""
        events = sc.parallelize(
            [
                (o, i)
                for i, o in enumerate(
                    timed_stobjects(world_events(600, seed=93), seed=93)
                )
            ],
            6,
        )
        bsp = BSPartitioner.from_rdd(events, max_cost_per_partition=100)
        partitioned = events.partition_by(bsp).persist()

        region = STObject(
            "POLYGON ((50 450, 320 450, 320 960, 50 960, 50 450))",
            (0, 2_000_000),
        )
        in_region = partitioned.liveIndex(order=8).intersect(region)
        count_region = in_region.count()
        assert 0 < count_region < 600

        pois = sc.parallelize(
            [
                (STObject(p), f"poi-{j}")
                for j, p in enumerate(world_events(20, seed=94))
            ],
            2,
        )
        near = spatial(in_region).join(
            pois, __import__("repro.core.predicates", fromlist=["x"]).within_distance_predicate(60.0)
        )
        spatially_near_mixed_time = sum(
            1
            for ek, _ev in in_region.collect()
            for pk, _pv in pois.collect()
            if ek.geo.distance(pk.geo) <= 60.0
        )
        # events are timed, POIs are not: even though spatial near-pairs
        # exist, the combined semantics (eqs. 1-3) excludes mixed pairs.
        assert spatially_near_mixed_time > 0
        assert near.count() == 0

        # drop the temporal component to make the join meaningful
        spatial_only = in_region.map(lambda kv: (STObject(kv[0].geo), kv[1]))
        near2 = spatial(spatial_only).join(
            pois,
            __import__("repro.core.predicates", fromlist=["x"]).within_distance_predicate(60.0),
        )
        brute2 = sum(
            1
            for ek, _ev in spatial_only.collect()
            for pk, _pv in pois.collect()
            if ek.geo.distance(pk.geo) <= 60.0
        )
        assert near2.count() == brute2

        clustered = spatial_only.cluster(eps=25.0, min_pts=4)
        labels = [label for _k, (_v, label) in clustered.collect()]
        assert len(labels) == count_region

    def test_metrics_tell_the_pruning_story(self, sc):
        events = sc.parallelize(
            [
                (o, i)
                for i, o in enumerate(
                    timed_stobjects(world_events(500, seed=95), seed=95)
                )
            ],
            5,
        )
        bsp = BSPartitioner.from_rdd(events, max_cost_per_partition=60)
        partitioned = events.partition_by(bsp).persist()
        partitioned.count()

        tiny = STObject("POLYGON ((60 470, 100 470, 100 520, 60 520, 60 470))", 0, 10**9)
        # The first query on freshly partitioned data also measures the
        # partitions (one task each, once); every later one only runs
        # the partitions the query can touch.
        sc.metrics.reset()
        partitioned.intersect(tiny).count()
        first_run = sc.metrics.tasks_launched
        sc.metrics.reset()
        with_pruning = partitioned.intersect(tiny).count()
        tasks_pruned_run = sc.metrics.tasks_launched
        assert first_run == partitioned.num_partitions + tasks_pruned_run

        sc.metrics.reset()
        from repro.core import filter as filter_ops
        from repro.core.predicates import INTERSECTS

        without = filter_ops.filter_no_index(
            partitioned, tiny, INTERSECTS, prune=False
        ).count()
        tasks_full_run = sc.metrics.tasks_launched

        assert with_pruning == without
        assert tasks_pruned_run < tasks_full_run

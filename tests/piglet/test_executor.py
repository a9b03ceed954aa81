"""Piglet end-to-end execution."""

import pytest

from repro.core.stobject import STObject
from repro.io.datagen import event_rows, uniform_points
from repro.io.readers import write_event_file
from repro.piglet import PigletRuntime, run_script
from repro.piglet.builtins import PigletRuntimeError
from repro.spark.errors import JobAbortedError


@pytest.fixture
def events_file(tmp_path):
    rows = event_rows(uniform_points(200, seed=81), time_range=(0, 1000), seed=81)
    path = tmp_path / "events.csv"
    write_event_file(rows, str(path))
    return str(path), rows


@pytest.fixture
def runtime(sc):
    return PigletRuntime(sc)


class TestLoad:
    def test_event_storage(self, runtime, events_file):
        path, rows = events_file
        rels = runtime.run(f"ev = LOAD '{path}' USING EventStorage();")
        assert rels["ev"].schema == ("id", "category", "time", "wkt")
        assert rels["ev"].rdd.count() == len(rows)

    def test_pigstorage_with_schema(self, runtime, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,alice,2.5\n2,bob,3.5\n")
        rels = runtime.run(
            f"r = LOAD '{path}' USING PigStorage(',') AS (id:int, name:chararray, score:double);"
        )
        assert rels["r"].rdd.collect() == [(1, "alice", 2.5), (2, "bob", 3.5)]

    def test_schemaless_load(self, runtime, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("a\nb\n")
        rels = runtime.run(f"r = LOAD '{path}';")
        assert rels["r"].schema == ("line",)
        assert rels["r"].rdd.collect() == [("a",), ("b",)]


class TestRelationalCore:
    @pytest.fixture
    def loaded(self, runtime, tmp_path):
        path = tmp_path / "people.csv"
        path.write_text("1,a,10\n2,b,20\n3,a,30\n4,c,40\n")
        runtime.run(
            f"p = LOAD '{path}' USING PigStorage(',') AS (id:int, grp:chararray, score:int);"
        )
        return runtime

    def test_foreach_projection_and_arithmetic(self, loaded):
        rels = loaded.run("o = FOREACH p GENERATE id, score * 2 AS double_score;")
        assert rels["o"].schema == ("id", "double_score")
        assert rels["o"].rdd.collect()[0] == (1, 20)

    def test_filter_comparison(self, loaded):
        rels = loaded.run("f = FILTER p BY score > 15 AND grp != 'c';")
        assert [r[0] for r in rels["f"].rdd.collect()] == [2, 3]

    def test_group_and_aggregates(self, loaded):
        rels = loaded.run(
            "g = GROUP p BY grp;"
            "s = FOREACH g GENERATE group, COUNT(p), SUM(p.score), AVG(p.score);"
        )
        rows = dict((r[0], r[1:]) for r in rels["s"].rdd.collect())
        assert rows["a"] == (2, 40, 20.0)
        assert rows["c"] == (1, 40, 40.0)

    def test_min_max_aggregates(self, loaded):
        rels = loaded.run(
            "g = GROUP p BY grp;"
            "m = FOREACH g GENERATE group, MIN(p.score), MAX(p.score);"
        )
        rows = dict((r[0], r[1:]) for r in rels["m"].rdd.collect())
        assert rows["a"] == (10, 30)

    def test_equijoin(self, loaded, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("a,Alpha\nb,Beta\n")
        rels = loaded.run(
            f"n = LOAD '{path}' USING PigStorage(',') AS (grp:chararray, label:chararray);"
            "j = JOIN p BY grp, n BY grp;"
        )
        rows = rels["j"].rdd.collect()
        assert len(rows) == 3  # groups a (2) and b (1)
        assert rels["j"].schema == ("id", "p_grp", "score", "n_grp", "label")

    def test_order_limit_distinct(self, loaded):
        rels = loaded.run(
            "o = ORDER p BY score DESC;"
            "top = LIMIT o 2;"
            "grps = FOREACH p GENERATE grp;"
            "u = DISTINCT grps;"
        )
        assert [r[0] for r in rels["top"].rdd.collect()] == [4, 3]
        assert sorted(r[0] for r in rels["u"].rdd.collect()) == ["a", "b", "c"]

    def test_union(self, loaded):
        rels = loaded.run("two = LIMIT p 2; four = UNION two, two;")
        assert rels["four"].rdd.count() == 4

    def test_positional_fields(self, loaded):
        rels = loaded.run("f = FILTER p BY $2 == 10;")
        assert rels["f"].rdd.collect() == [(1, "a", 10)]

    def test_unknown_field_raises(self, loaded):
        # The field lookup fails inside a task, so the scheduler aborts
        # the job; the abort message carries the Piglet error text.
        with pytest.raises(JobAbortedError, match="unknown field") as excinfo:
            loaded.run("bad = FOREACH p GENERATE nonexistent;").get
            loaded.relation("bad").rdd.collect()
        assert isinstance(excinfo.value.cause, PigletRuntimeError)

    def test_unknown_relation_raises(self, runtime):
        with pytest.raises(PigletRuntimeError, match="unknown relation"):
            runtime.run("x = FILTER nope BY 1 == 1;")


class TestSpatialPipeline:
    def test_full_event_pipeline(self, runtime, events_file):
        path, rows = events_file
        out = runtime.dump_to_string(
            f"""
            ev  = LOAD '{path}' USING EventStorage();
            st  = FOREACH ev GENERATE STOBJECT(wkt, time) AS obj, id, category;
            prt = SPATIAL_PARTITION st BY obj USING GRID(3);
            hit = FILTER prt BY CONTAINEDBY(obj, STOBJECT('POLYGON ((100 100, 600 100, 600 600, 100 600, 100 100))', 0, 1000));
            grp = GROUP hit BY category;
            cnt = FOREACH grp GENERATE group, COUNT(hit);
            DUMP cnt;
            """
        )
        query = STObject(
            "POLYGON ((100 100, 600 100, 600 600, 100 600, 100 100))", 0, 1000
        )
        expected: dict[str, int] = {}
        for event_id, category, time, wkt in rows:
            if STObject(wkt, time).contained_by(query):
                expected[category] = expected.get(category, 0) + 1
        for category, count in expected.items():
            assert f"({category},{count})" in out

    def test_spatial_filter_plan_equals_row_scan(self, runtime, events_file):
        path, _rows = events_file
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            st = FOREACH ev GENERATE STOBJECT(wkt, time) AS obj, id;
            fast_base = SPATIAL_PARTITION st BY obj USING BSP(50);
            fast = FILTER fast_base BY INTERSECTS(obj, STOBJECT('POLYGON ((0 0, 500 0, 500 500, 0 500, 0 0))', 0, 1000));
            slow = FILTER st BY INTERSECTS(obj, STOBJECT('POLYGON ((0 0, 500 0, 500 500, 0 500, 0 0))', 0, 1000));
            """
        )
        fast_ids = sorted(r[1] for r in runtime.relation("fast").rdd.collect())
        slow_ids = sorted(r[1] for r in runtime.relation("slow").rdd.collect())
        assert fast_ids == slow_ids
        assert len(fast_ids) > 0

    def test_liveindex_filter(self, runtime, events_file):
        path, _rows = events_file
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            st = FOREACH ev GENERATE STOBJECT(wkt, time) AS obj, id;
            idx = LIVEINDEX st BY obj ORDER 5;
            hit = FILTER idx BY CONTAINEDBY(obj, STOBJECT('POLYGON ((200 200, 800 200, 800 800, 200 800, 200 200))', 0, 1000));
            ref = FILTER st BY CONTAINEDBY(obj, STOBJECT('POLYGON ((200 200, 800 200, 800 800, 200 800, 200 200))', 0, 1000));
            """
        )
        assert sorted(r[1] for r in runtime.relation("hit").rdd.collect()) == sorted(
            r[1] for r in runtime.relation("ref").rdd.collect()
        )

    def test_spatial_self_join(self, runtime, events_file):
        path, rows = events_file
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            st = FOREACH ev GENERATE STOBJECT(wkt) AS obj, id;
            j = SPATIAL_JOIN st BY obj, st BY obj ON INTERSECTS;
            """
        )
        assert runtime.relation("j").rdd.count() == len(rows)

    def test_within_distance_join(self, runtime, events_file):
        path, rows = events_file
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            st = FOREACH ev GENERATE STOBJECT(wkt) AS obj, id;
            j = SPATIAL_JOIN st BY obj, st BY obj ON WITHINDISTANCE(30.0);
            """
        )
        count = runtime.relation("j").rdd.count()
        objs = [STObject(w) for _i, _c, _t, w in rows]
        expected = sum(
            1 for a in objs for b in objs if a.geo.distance(b.geo) <= 30.0
        )
        assert count == expected

    def test_knn_statement(self, runtime, events_file):
        path, rows = events_file
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            st = FOREACH ev GENERATE STOBJECT(wkt) AS obj, id;
            nn = KNN st BY obj QUERY STOBJECT('POINT (500 500)') K 5;
            """
        )
        rel = runtime.relation("nn")
        assert rel.schema[-1] == "knn_distance"
        got = rel.rdd.collect()
        assert len(got) == 5
        distances = [r[-1] for r in got]
        assert distances == sorted(distances)

    def test_cluster_statement(self, runtime, sc, tmp_path):
        from repro.io.datagen import clustered_points

        rows = event_rows(
            clustered_points(150, num_clusters=2, seed=82, noise_fraction=0.0),
            seed=82,
        )
        path = tmp_path / "clusters.csv"
        write_event_file(rows, str(path))
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            st = FOREACH ev GENERATE STOBJECT(wkt) AS obj, id;
            c = CLUSTER st BY obj USING DBSCAN(30.0, 4) AS label;
            """
        )
        rel = runtime.relation("c")
        assert rel.schema == ("obj", "id", "label")
        labels = {r[2] for r in rel.rdd.collect()}
        assert len(labels - {-1}) >= 2

    def test_cluster_over_an_empty_relation(self, runtime, events_file):
        path, _rows = events_file
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            st = FOREACH ev GENERATE STOBJECT(wkt) AS obj, id;
            nothing = FILTER st BY id < 0;
            c = CLUSTER nothing BY obj USING DBSCAN(30.0, 4) AS label;
            """
        )
        rel = runtime.relation("c")
        assert rel.schema == ("obj", "id", "label")
        assert rel.rdd.collect() == []

    def test_store_roundtrip(self, runtime, events_file, tmp_path, sc):
        path, _rows = events_file
        out = str(tmp_path / "stored")
        runtime.run(
            f"""
            ev = LOAD '{path}' USING EventStorage();
            ids = FOREACH ev GENERATE id;
            STORE ids INTO '{out}';
            """
        )
        stored = sorted(int(line.strip("()")) for line in sc.text_file(out).collect())
        assert stored == list(range(200))

    def test_describe_output(self, runtime, events_file):
        path, _rows = events_file
        out = runtime.dump_to_string(
            f"ev = LOAD '{path}' USING EventStorage(); DESCRIBE ev;"
        )
        assert "ev: (id, category, time, wkt)" in out

    def test_run_script_helper(self, sc, events_file):
        path, rows = events_file
        rels = run_script(sc, f"ev = LOAD '{path}' USING EventStorage();")
        assert rels["ev"].rdd.count() == len(rows)

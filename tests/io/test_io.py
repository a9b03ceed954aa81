"""Data generators and event readers."""

import pytest

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.io.datagen import (
    clustered_points,
    event_rows,
    random_polygons,
    timed_stobjects,
    uniform_points,
    world_events,
)
from repro.io.readers import (
    EventParseError,
    format_event_line,
    load_event_file,
    parse_event_line,
    write_event_file,
)


class TestGenerators:
    def test_uniform_within_bounds(self):
        bounds = Envelope(10, 20, 30, 40)
        for p in uniform_points(200, bounds, seed=1):
            assert bounds.contains_point(p.x, p.y)

    def test_deterministic_by_seed(self):
        assert uniform_points(50, seed=7) == uniform_points(50, seed=7)
        assert uniform_points(50, seed=7) != uniform_points(50, seed=8)

    def test_clustered_is_skewed(self):
        pts = clustered_points(2000, num_clusters=3, seed=2, noise_fraction=0.0)
        # count points per quadrant: clusters concentrate mass
        bounds = Envelope.of_points([(p.x, p.y) for p in pts])
        mid_x, mid_y = bounds.center()
        quadrants = [0, 0, 0, 0]
        for p in pts:
            quadrants[(p.x > mid_x) + 2 * (p.y > mid_y)] += 1
        assert max(quadrants) > 2 * min(quadrants) + 1

    def test_clustered_clamped_to_bounds(self):
        bounds = Envelope(0, 0, 100, 100)
        for p in clustered_points(500, bounds=bounds, seed=3):
            assert bounds.contains_point(p.x, p.y)

    def test_world_events_on_land_only(self):
        from repro.io.datagen import _LANDMASSES, DEFAULT_BOUNDS

        land = [
            Envelope(
                DEFAULT_BOUNDS.min_x + fx0 * DEFAULT_BOUNDS.width,
                DEFAULT_BOUNDS.min_y + fy0 * DEFAULT_BOUNDS.height,
                DEFAULT_BOUNDS.min_x + fx1 * DEFAULT_BOUNDS.width,
                DEFAULT_BOUNDS.min_y + fy1 * DEFAULT_BOUNDS.height,
            )
            for fx0, fy0, fx1, fy1 in _LANDMASSES
        ]
        for p in world_events(300, seed=4):
            assert any(mass.contains_point(p.x, p.y) for mass in land)

    def test_random_polygons_valid(self):
        for poly in random_polygons(50, seed=5):
            assert poly.area > 0
            assert not poly.is_empty

    def test_event_rows_schema(self):
        rows = event_rows(uniform_points(10, seed=6), time_range=(0, 100), seed=6)
        for i, (event_id, category, time, wkt) in enumerate(rows):
            assert event_id == i
            assert isinstance(category, str)
            assert 0 <= time <= 100
            assert wkt.startswith("POINT")

    def test_timed_stobjects_intervals(self):
        objs = list(
            timed_stobjects(uniform_points(100, seed=7), seed=7, interval_fraction=1.0)
        )
        from repro.temporal import Interval

        assert all(isinstance(o.time, Interval) for o in objs)

    def test_timed_stobjects_instants(self):
        objs = list(timed_stobjects(uniform_points(100, seed=8), seed=8))
        from repro.temporal import Instant

        assert all(isinstance(o.time, Instant) for o in objs)


class TestEventLines:
    def test_parse_roundtrip(self):
        row = (7, "accident", 123.5, "POINT (1 2)")
        assert parse_event_line(format_event_line(row)) == row

    def test_wkt_commas_survive(self):
        row = (1, "x", 5.0, "POLYGON ((0 0, 1 0, 1 1, 0 0))")
        assert parse_event_line(format_event_line(row))[3] == row[3]

    @pytest.mark.parametrize(
        "line, row",
        [
            (" 7 ; cat ;\t1.5 ; POINT (1 2) \n", (7, "cat", 1.5, "POINT (1 2)")),
            ("\x1c7\x1c;cat;\x1f2e3\x1f;POINT (1 2)", (7, "cat", 2000.0, "POINT (1 2)")),
            ("1_000;cat;1_0.5;POINT (1 2)", (1000, "cat", 10.5, "POINT (1 2)")),
        ],
    )
    def test_fields_read_as_stripped(self, line, row):
        assert parse_event_line(line) == row

    def test_bad_field_reported_stripped(self):
        with pytest.raises(EventParseError, match="bad time 'noon'"):
            parse_event_line("1;cat; noon ;POINT (0 0)")

    def test_custom_delimiter(self):
        line = format_event_line((1, "c", 2.0, "POINT (0 0)"), delimiter="|")
        assert parse_event_line(line, delimiter="|")[0] == 1

    @pytest.mark.parametrize(
        "bad",
        ["", "1;2;3", "x;cat;5;POINT (0 0)", "1;cat;noon;POINT (0 0)"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(EventParseError):
            parse_event_line(bad)


class TestLoadEventFile:
    def test_load_as_stobject_rdd(self, sc, tmp_path):
        rows = event_rows(uniform_points(50, seed=9), seed=9)
        path = tmp_path / "ev.csv"
        write_event_file(rows, str(path))
        events = load_event_file(sc, str(path))
        collected = events.collect()
        assert len(collected) == 50
        key, (event_id, category) = collected[0]
        assert isinstance(key, STObject)
        assert key.has_time
        assert isinstance(event_id, int)

    def test_blank_lines_skipped(self, sc, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("1;c;5;POINT (0 0)\n\n2;d;6;POINT (1 1)\n\n")
        assert load_event_file(sc, str(path)).count() == 2

    def test_skip_mode_drops_hostile_nesting(self, sc, tmp_path):
        # Deep nesting is a parse error like any other malformed WKT,
        # not a RecursionError that aborts the job.
        hostile = "GEOMETRYCOLLECTION (" * 600 + "POINT (0 0)" + ")" * 600
        path = tmp_path / "ev.csv"
        path.write_text(f"1;c;5;POINT (0 0)\n2;c;6;{hostile}\n3;d;7;POINT (1 1)\n")
        events = load_event_file(sc, str(path), on_error="skip").collect()
        assert [payload for _, payload in events] == [(1, "c"), (3, "d")]

    def test_partitioned_load(self, sc, tmp_path):
        rows = event_rows(uniform_points(100, seed=10), seed=10)
        path = tmp_path / "ev.csv"
        write_event_file(rows, str(path))
        events = load_event_file(sc, str(path), num_slices=4)
        assert events.num_partitions >= 2
        assert events.count() == 100

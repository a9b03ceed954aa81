"""The evaluation report generator (structure checks; the shape
assertions on Figure 4's bars live in benchmarks/)."""

import pytest

from repro.baselines import GeoSparkStyle
from repro.evaluation import report
from repro.geometry.point import Point
from repro.io.datagen import clustered_points


class TestReportPieces:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            report.generate_report("huge")

    def test_scales_are_ordered(self):
        assert report.SCALES["small"] < report.SCALES["medium"] < report.SCALES["large"]

    def test_streaming_section_accounts_for_every_record(self):
        blocked, degraded = report.streaming_drives()
        for metrics in (blocked, degraded):
            assert metrics["records_ingested"] == 80
            assert metrics["records_ingested"] == (
                metrics["records_processed"]
                + metrics["records_quarantined"]
                + metrics["records_failed"]
            )
        assert blocked["backpressure_waits"] > 0
        assert blocked["records_quarantined"] == 0
        assert degraded["records_quarantined"] == 1
        assert degraded["sink_breaker_opens"] >= 1
        assert degraded["windows_dead_lettered"] > 0
        text = report._streaming_robustness()
        assert "block + poison + failing sink" in text
        assert "windows dead-lettered" in text


class TestFigure4:
    def test_coincident_points_add_pairs(self, sc, monkeypatch):
        # Two of the 1,000,000 points figure4 draws at full scale
        # coincide, and the self-join returns n + 2 pairs; here two
        # pairs of points coincide, and every join returns n + 4.
        def with_duplicates(n, **kwargs):
            points = clustered_points(n - 3, **kwargs)
            return points + [Point(0.0, 1000.0)] * 2 + [points[0]]

        monkeypatch.setattr(report, "clustered_points", with_duplicates)
        bars = report.figure4(sc, 200, repeats=1)
        text = report.render_figure4(200, bars)
        assert "self-join on 200 clustered points" in text

    def test_geospark_na_is_measured(self, sc):
        bars = report.figure4(sc, 200, repeats=1)
        assert bars["GeoSpark", None] is None
        assert all(s > 0 for bar, s in bars.items() if bar != ("GeoSpark", None))
        assert "GeoSpark     | N/A " in report.render_figure4(200, bars)

    def test_geospark_join_that_runs_fails_the_figure(self, sc, monkeypatch):
        # A GeoSpark that joins without a partitioner is not the paper's
        # N/A bar: figure4 must refuse it rather than print a time.
        join = GeoSparkStyle.spatial_join

        def unpartitioned_grid(self, left, right, predicate, partitioning="grid", *args):
            return join(self, left, right, predicate, partitioning or "grid", *args)

        monkeypatch.setattr(GeoSparkStyle, "spatial_join", unpartitioned_grid)
        with pytest.raises(AssertionError, match="N/A"):
            report.figure4(sc, 200, repeats=1)

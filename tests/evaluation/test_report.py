"""The evaluation report generator (structure checks; timing lives in
benchmarks/)."""

import pytest

from repro.evaluation import report
from repro.geometry.point import Point
from repro.io.datagen import clustered_points


class TestReportPieces:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            report.generate_report("huge")

    def test_scales_are_ordered(self):
        assert (
            report.SCALES["small"]["join"]
            < report.SCALES["medium"]["join"]
            < report.SCALES["large"]["join"]
        )

    def test_partitioning_ablation_section(self, sc):
        text = report._partitioning_ablation(sc, 2_000)
        assert "grid 4x4" in text
        assert "cost-based BSP" in text
        assert "imbalance" in text

    def test_filter_section_runs(self, sc):
        text = report._filter_suite(sc, 1_000, repeats=1)
        assert "persistent index" in text
        assert text.count("s") > 0

    def test_knn_section_runs(self, sc):
        text = report._knn_suite(sc, 1_000, repeats=1)
        assert "full scan" in text
        assert "two-phase" in text

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
        text = report.figure4(sc, 200, repeats=1)
        assert "self-join on 200 clustered points" in text

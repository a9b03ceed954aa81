"""Smoke tests for the standalone scripts (examples and bench runners)."""

import subprocess
import sys

import pytest

REPO = __file__.rsplit("/tests/", 1)[0]


def run(args, timeout=240):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout
    )


class TestBenchRunners:
    def test_run_fig4_tiny(self):
        proc = run([f"{REPO}/benchmarks/run_fig4.py", "--points", "800", "--repeats", "1"])
        assert proc.returncode == 0, proc.stderr
        assert "Figure 4 reproduction" in proc.stdout
        assert "STARK" in proc.stdout
        assert "N/A" in proc.stdout  # GeoSpark's missing configuration

    def test_run_fig4_rejects_garbage(self):
        proc = run([f"{REPO}/benchmarks/run_fig4.py", "--points", "nope"])
        assert proc.returncode != 0


class TestExamples:
    def test_quickstart(self):
        proc = run([f"{REPO}/examples/quickstart.py"])
        assert proc.returncode == 0, proc.stderr
        assert "containedBy:" in proc.stdout
        # both index modes agree in the example's printout
        lines = [l for l in proc.stdout.splitlines() if "events" in l]
        assert len(lines) >= 2

    def test_quickstart_sequential_matches_default(self):
        # the listing's queries print the same under the default thread
        # pool and under the inline executor
        proc = run([f"{REPO}/examples/quickstart.py"])
        assert proc.returncode == 0, proc.stderr
        baseline = run([f"{REPO}/examples/quickstart.py", "--executor", "sequential"])
        assert baseline.returncode == 0, baseline.stderr
        assert proc.stdout == baseline.stdout

    def test_streaming_events(self):
        proc = run([f"{REPO}/examples/streaming_events.py"])
        assert proc.returncode == 0, proc.stderr
        assert "hotspots per closed window:" in proc.stdout
        assert "cluster 0:" in proc.stdout  # the seeded harbour hotspot
        assert "'batches_run': 6" in proc.stdout

    def test_streaming_cep(self):
        proc = run([f"{REPO}/examples/streaming_cep.py"])
        assert proc.returncode == 0, proc.stderr
        fired = [line.split()[0] for line in proc.stdout.splitlines() if "@POINT" in line]
        assert fired.count("depot-visit") == 1  # v1 through the depot
        assert fired.count("convoy") == 2  # v1 and v3 bunched near (80, 80)
        assert fired.count("lost-heartbeat") == 3  # every track ends silent
        assert "matches emitted: 6" in proc.stdout

    def test_workflow_persistence(self):
        proc = run([f"{REPO}/examples/workflow_persistence.py"])
        assert proc.returncode == 0, proc.stderr
        assert "round trip successful" in proc.stdout

    @pytest.mark.parametrize(
        "script", ["piglet_pipeline", "clustering_hotspots"]
    )
    def test_other_examples(self, script):
        proc = run([f"{REPO}/examples/{script}.py"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

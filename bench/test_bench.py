"""Checks of the benchmark itself: ``python -m pytest bench -q``.

Tier-1 (``testpaths = ["tests"]``) does not collect this file.  The
smoke runs use ``--scale 0.02`` and one-second timed sections, so the
whole file stays well under a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (adds nothing to sys.path until workloads() is called)

WORKLOADS = run.workloads()

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from spans import Span, SpanRecorder, self_times, union_length  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCALE = 0.02
SECONDS = 1.0
DETERMINISTIC = [n for n in WORKLOADS if n != "stream_durable_paced"]
#: Counts the program itself does not repeat: two tasks that miss the
#: same cached right-side tree of a join both build it (and both look
#: it up), so builds and span totals can be off by a few.
RACY_COUNTS = {("join_live", "index.build_count"), ("join_live", "trace.spans")}


@pytest.fixture(scope="module")
def smoke():
    """One untraced and two traced tiny runs of every workload, each in a
    fresh process through ``run.child`` -- the path the command takes
    (pinned to one CPU), so the tests see what is measured."""
    rows = {}
    for name in WORKLOADS:
        rows[name] = {
            "untraced": run.child(name, 11, SECONDS, 0, SCALE),
            "traced": run.child(name, 11, SECONDS, 1, SCALE),
        }
        if name in DETERMINISTIC:
            rows[name]["traced_again"] = run.child(name, 11, SECONDS, 1, SCALE)
    return rows


def test_spec_lists_the_workloads_and_metrics_the_code_has():
    # The contract lists the workloads the driver gates; the command runs
    # those and the ungated one (run.UNGATED_WORKLOADS says why).
    assert run.workload_names(SPEC) == list(WORKLOADS)
    assert run.UNGATED_WORKLOADS == ("stream_durable_paced",)
    assert [m["name"] for m in SPEC["per_layer"]] == [m.name for m in layers.METRICS]
    # BENCHMARK.json carries the end-to-end metrics every workload reports
    # (failed_share travels as failed/attempted).  Its bounds are the
    # driver's rejection thresholds and may be wider than compare.py's,
    # which never pass the issue's tenth.
    universal = [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in harness.END_TO_END
        if m.workloads is None and m.name != "failed_share"
    ]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC["end_to_end"]] == universal
    bounds = {m.name: m.bound for m in harness.END_TO_END}
    assert all(bounds[m["name"]] <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(bounds) == 9 and max(bounds.values()) <= 0.10
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
    for metric, workload in harness.REPORT_ONLY:
        assert metric in [m.name for m in harness.END_TO_END] and workload in WORKLOADS


def test_every_named_metric_is_reported_with_its_unit(smoke):
    table = {m.name: m for m in harness.END_TO_END}
    for name, rows in smoke.items():
        untraced = rows["untraced"]["metrics"]
        for metric, (value, unit) in untraced.items():
            entry = table[metric]
            assert NAME.fullmatch(metric) and unit == entry.unit, (name, metric)
            assert entry.workloads is None or name in entry.workloads, (name, metric)
            assert isinstance(value, float)
            assert value > 0 or metric == "failed_share", (name, metric)
        for entry in SPEC["end_to_end"]:
            assert entry["name"] in untraced, (name, entry["name"])
        samples = rows["untraced"]["detail"]["samples"]
        assert ("latency_p95_ms" in untraced) == (
            samples >= harness.P95_MIN_SAMPLES and name in table["latency_p95_ms"].workloads
        ), name
        traced = rows["traced"]["metrics"]
        assert list(traced) == [m["name"] for m in SPEC["per_layer"]], name
        for entry in SPEC["per_layer"]:
            assert traced[entry["name"]][1] == entry["unit"], (name, entry["name"])
    paced = smoke["stream_durable_paced"]["untraced"]["metrics"]
    assert {"emit_lag_p50_ms", "recovery_s"} <= set(paced)


def test_no_operation_fails_at_smoke_scale(smoke):
    for name, rows in smoke.items():
        for kind in ("untraced", "traced"):
            assert rows[kind]["failed"] == 0, (name, kind, rows[kind]["detail"]["notes"])
            assert rows[kind]["attempted"] >= 1


def test_same_seed_same_digest_and_counts_other_seed_other_digest(smoke):
    units = {m.name: m.unit for m in layers.METRICS}
    differ = []
    for name in DETERMINISTIC:
        first, again = smoke[name]["traced"], smoke[name]["traced_again"]
        assert first["detail"]["input_digest"] == again["detail"]["input_digest"]
        for metric, (value, _unit) in first["metrics"].items():
            if units[metric] in ("count", "bytes") and (name, metric) not in RACY_COUNTS:
                if value != again["metrics"][metric][0]:
                    differ.append((name, metric, value, again["metrics"][metric][0]))
    assert differ == []
    for name, workload in WORKLOADS.items():
        other = workload.generate(12, SCALE, SECONDS).digest
        assert other != smoke[name]["untraced"]["detail"]["input_digest"], name


def test_spans_written_and_self_times_never_negative(smoke):
    for name in WORKLOADS:
        # The file on disk is the workload's latest traced run.
        latest = smoke[name].get("traced_again", smoke[name]["traced"])
        path = os.path.join(ROOT, latest["detail"]["trace_file"])
        with open(path) as f:
            trace = json.load(f)
        names = trace["names"]
        spans = [Span(r[0], r[1], names[r[2]], *r[3:]) for r in trace["spans"]]
        assert spans, name
        own = self_times(spans)
        assert min(own.values()) >= -1e-9, name
        # On the driver thread the timed root tiles the traced wall:
        # its self time plus what its children cover is its duration.
        root = next(s for s in spans if s.name == "bench.timed")
        kids = [(s.start, s.end) for s in spans if s.parent == root.id]
        covered = union_length(kids)
        wall = latest["detail"]["timed_wall_s"]
        assert own[root.id] + covered == pytest.approx(root.end - root.start, rel=1e-6)
        assert root.end - root.start == pytest.approx(wall, rel=0.02), name


def test_contract_command_prints_one_json_object_last():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "join_live", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert sorted(last["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for entry in last["metrics"].values():
        assert sorted(entry) == ["unit", "value"]


# -- the host-speed scaling ---------------------------------------------------------


def test_a_slow_spell_the_probe_saw_does_not_move_latency_or_rate():
    # 48 operations of 10 ms; the host runs at half speed during the
    # middle third and the probe, read before every operation, says so.
    quiet = harness.Series([0.010] * 48, [(i, 1.0) for i in range(48)])
    spell = harness.Series(
        [0.020 if 16 <= i < 32 else 0.010 for i in range(48)],
        [(i, 2.0 if 16 <= i < 32 else 1.0) for i in range(48)],
    )
    for series in (quiet, spell):
        assert series.latency_p50() == pytest.approx(0.010)
        assert series.rate() == pytest.approx(100.0)
    # A slowdown of the program, which the probe does not share, shows in full.
    slower = harness.Series([0.013] * 48, quiet.probes)
    assert slower.latency_p50() == pytest.approx(0.013)
    assert slower.rate() == pytest.approx(100.0 / 1.3)
    # Never read (a traced run): raw wall clock.
    assert harness.Series([0.02] * 8).latency_p50() == pytest.approx(0.02)
    # A slice the probe was not read in takes the section's reading.
    sparse = harness.Series([0.030] * 48, [(0, 1.5), (1, 1.5), (40, 1.5)])
    assert sparse.latency_p50() == pytest.approx(0.020)


def test_the_probe_reads_about_one_on_a_quiet_host_and_repeats():
    probe = harness.HostProbe()
    readings = [probe.read() for _ in range(50)]
    assert all(0.3 < r < 30.0 for r in readings)
    assert not probe.due(harness.clock())
    assert probe.due(harness.clock() + harness.HostProbe.EVERY_S)


# -- compare.py ------------------------------------------------------------------


def _report(**runs):
    return {"runs": {w: [{"metrics": m} for m in rows] for w, rows in runs.items()}}


def _row(p50, failed_share=0.0):
    return {
        "setup_s": (1.0, "s"), "throughput_per_s": (10.0, "1/s"),
        "latency_p50_ms": (p50, "ms"), "peak_rss_mb": (50.0, "MiB"),
        "failed_share": (failed_share, "ratio"),
    }


def test_compare_verdicts_and_what_fails_the_comparison():
    def verdicts(a, b):
        return {(r["workload"], r["metric"]): r["verdict"] for r in compare.compare(a, b)}

    steady = _report(join_live=[_row(100.0), _row(101.0), _row(99.0), _row(100.5)])
    slower = _report(join_live=[_row(120.0), _row(121.0), _row(119.0), _row(120.5)])
    noisy = _report(join_live=[_row(80.0), _row(100.0), _row(120.0), _row(140.0)])
    failing = _report(join_live=[_row(100.0, failed_share=0.01)])
    key = ("join_live", "latency_p50_ms")
    assert verdicts(steady, steady)[key] == "same"
    assert verdicts(steady, slower)[key] == "worse"
    assert verdicts(slower, steady)[key] == "better"
    assert verdicts(steady, noisy)[key] == "unresolved"
    assert verdicts(steady, failing)[("join_live", "failed_share")] == "worse"
    # A workload (or a metric) present on one side only is flagged, not skipped.
    assert verdicts(steady, _report(join_live=[]))[key] == "missing"
    assert verdicts(steady, _report(dbscan_shuffle=[_row(5.0)]))[key] == "missing"
    # join_live reports no p95 and no emit lag: those rows do not exist.
    assert ("join_live", "latency_p95_ms") not in verdicts(steady, steady)


# -- the span arithmetic, on a hand-built tree --------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    # A job on the driver (thread 1) with two tasks on pool threads that
    # overlap each other, one nested probe, and a child on the driver.
    spans = [
        Span(1, 0, "run_job[x]", 1, 1, 0.0, 10.0, None),
        Span(2, 1, "task-a", 2, 1, 1.0, 6.0, None),
        Span(3, 1, "task-b", 3, 1, 4.0, 9.0, None),
        Span(4, 2, "probe", 2, 1, 2.0, 3.0, None),
        Span(5, 1, "driver-side", 1, 1, 9.5, 9.75, None),
    ]
    own = self_times(spans)
    assert union_length([(1.0, 6.0), (4.0, 9.0), (9.5, 9.75)]) == pytest.approx(8.25)
    assert own[1] == pytest.approx(10.0 - 8.25)  # not 10 - (5 + 5 + 0.25)
    assert own[2] == pytest.approx(5.0 - 1.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(1.0)
    assert sum(own[i] for i in (1, 5)) + union_length([(1.0, 9.0)]) == pytest.approx(10.0)


def test_children_are_clipped_to_their_parent():
    spans = [
        Span(1, 0, "parent", 1, 1, 2.0, 4.0, None),
        Span(2, 1, "early", 2, 1, 1.0, 2.5, None),
        Span(3, 1, "late", 3, 1, 3.5, 9.0, None),
    ]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_pool_thread_spans_parent_to_the_job_owner():
    import threading

    recorder = SpanRecorder()

    def task():
        pass

    traced_task = recorder.wrap_call(task, "task")

    def job():
        worker = threading.Thread(target=traced_task)
        worker.start()
        worker.join()
        traced_task()

    recorder.wrap_call(job, "run_job[x]", owns_job=True)()
    traced_task()  # no job in flight: a root
    spans = recorder.spans()
    job_span = next(s for s in spans if s.name == "run_job[x]")
    tasks = [s for s in spans if s.name == "task"]
    assert [s.parent for s in tasks] == [job_span.id, job_span.id, 0]
    assert len({s.thread for s in tasks}) == 2


# -- the wrapper table ----------------------------------------------------------


def test_install_wraps_every_target_and_restore_puts_every_original_back():
    bindings = [b for target in layers.TARGETS for b in target.where]
    before = {}
    for binding in bindings:
        owner, attribute = layers._resolve(binding)
        before[binding] = vars(owner)[attribute]
    recorder = SpanRecorder()
    missing = layers.install(recorder)
    try:
        assert missing == []
        for binding in bindings:
            owner, attribute = layers._resolve(binding)
            now = vars(owner)[attribute]
            now = getattr(now, "__func__", now)
            assert getattr(now, "__wrapped_by_bench__", False), binding
    finally:
        recorder.restore()
    for binding in bindings:
        owner, attribute = layers._resolve(binding)
        assert vars(owner)[attribute] is before[binding], binding


def test_every_layer_metric_names_its_technique():
    for metric in layers.METRICS:
        assert metric.technique in ("wrapper", "counter"), metric.name

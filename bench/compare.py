"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) that ``harness.END_TO_END``
says the workload reports: both medians, the ratio B/A with its base,
the metric's bound and a verdict:

``same``         B's median is within the bound of A's
``better``       B is better than A by more than the bound
``worse``        B is worse than A by more than the bound
``unresolved``   either file holds several runs of the pairing whose own
                 spread is wider than the bound, so no verdict is safe
``missing``      either file has no value for the pairing (a workload
                 that crashed, a metric that stopped being reported)
``report-only``  the pairing is listed in ``harness.REPORT_ONLY``

``failed_share`` has an absolute bound of zero: B is ``worse`` as soon as
any of its runs failed a larger share of its operations than A's worst.

The spread of several runs is the distance between their first and
third quartile over their median (with fewer than four runs: the
range over the median).  Exits non-zero when any row is ``worse``,
``unresolved`` or ``missing``.
"""

from __future__ import annotations

import json
import statistics
import sys

from harness import END_TO_END, REPORT_ONLY

VERDICTS = ("same", "better", "worse", "unresolved", "missing", "report-only")
FAILING = ("worse", "unresolved", "missing")


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return width / median if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The verdict for one pairing, B measured against A."""
    if not a or not b:
        return "missing"
    if bound == 0.0:  # absolute: failed_share
        return "worse" if max(b) > max(a) else "better" if max(b) < max(a) else "same"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / base
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def metric_values(report: dict, workload: str, metric: str) -> list[float]:
    rows = report["runs"].get(workload, [])
    return [row["metrics"][metric][0] for row in rows if metric in row["metrics"]]


def compare(a: dict, b: dict) -> list[dict]:
    workloads = list(dict.fromkeys([*a["runs"], *b["runs"]]))
    rows = []
    for workload in workloads:
        for metric in END_TO_END:
            if metric.workloads is not None and workload not in metric.workloads:
                continue
            va = metric_values(a, workload, metric.name)
            vb = metric_values(b, workload, metric.name)
            if (metric.name, workload) in REPORT_ONLY:
                outcome = "report-only"
            else:
                outcome = verdict(va, vb, metric.better, metric.bound)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a": statistics.median(va) if va else None,
                    "b": statistics.median(vb) if vb else None,
                    "bound": metric.bound,
                    "spread_a": spread(va),
                    "spread_b": spread(vb),
                    "verdict": outcome,
                }
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    rows = compare(a, b)
    print(f"{'workload':<22s} {'metric':<18s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread A/B':>13s}  verdict")
    for r in rows:
        if r["a"] is None or r["b"] is None:
            print(f"{r['workload']:<22s} {r['metric']:<18s} {'-':>12s} {'-':>12s}  {r['verdict']}")
            continue
        ratio = f"{r['b'] / r['a']:>7.3f}" if r["a"] else f"{'-':>7s}"
        print(
            f"{r['workload']:<22s} {r['metric']:<18s} {r['a']:>12.5g} {r['b']:>12.5g} "
            f"{ratio} {r['bound']:>6.2f} "
            f"{r['spread_a']:>6.3f}/{r['spread_b']:<6.3f}  {r['verdict']}  "
            f"({r['unit']}; base A = {r['a']:.5g})"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in VERDICTS}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if any(counts[v] for v in FAILING) else 0


if __name__ == "__main__":
    sys.exit(main())

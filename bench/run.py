"""The one benchmark command for the STARK reproduction.

Two ways to call it, both from the repository root::

    python3 bench/run.py                       # every workload, one table
    python3 bench/run.py --traced              # ... plus the per-layer run
    python3 bench/run.py --workload join_live --seed 7 --seconds 8 --trace 0

The second form is the driver's contract (see ``BENCHMARK.json``): one
workload, one run, and the last line of standard output is a JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  The first form runs that command once per workload in
a fresh child process, one at a time, and prints and stores the rows.

The benchmark adds ``src/`` to the import path itself, so no
``PYTHONPATH`` is needed; without the program's sources it exits
non-zero before printing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1704
SWEEP_SCALES = (0.25, 0.5, 1.0, 2.0)
SWEEP_WORKLOADS = ("join_live", "dbscan_shuffle", "stream_sliding_drain")
#: Run, checked, printed and compared like the others, but not listed in
#: ``BENCHMARK.json``, whose runs the driver gates: its batch latency
#: and drain rate wait on two or three fsyncs per micro-batch, and the
#: shared host's disk answers 2-3x slower for a minute at a time
#: (README, "The disk"), which no reading of the CPU corrects.  Two such
#: runs in ten put the quartile distance past any bound the contract
#: allows (measured: 31% on ``latency_p50_ms``, 23% on ``throughput_per_s``).
UNGATED_WORKLOADS = ("stream_durable_paced",)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_names(spec: dict) -> list[str]:
    """Every workload the command runs: the contract's, then the ungated."""
    return [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS)


def workloads() -> dict:
    """Name -> workload object (imports the program; needs ``src/``)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: the program's sources are missing ({SRC}/repro)")
    sys.path.insert(0, SRC)
    import batch
    import streams

    found = (
        batch.RangeKnnIndexed(),
        batch.JoinLive(),
        batch.DbscanShuffle(),
        batch.StHistoryPlanned(),
        streams.StreamSlidingDrain(),
        streams.StreamDurablePaced(),
    )
    return {w.name: w for w in found}


def pin_to_one_cpu() -> None:
    """Keep the measured process on one of the CPUs it may use.

    This is the benchmark's doing, not the library's, and it is what
    makes two runs of one commit comparable on the 2-core host
    (measurements in the README, "A shared, noisy host").  The program's
    default executor is a pool of four GIL-bound threads.  Spread over
    two virtual cores every hand-over of the lock is a cross-core
    wake-up, and the same set-up takes 0.3 s or 0.8 s depending on where
    the scheduler put the threads -- a coin tossed once per process.
    Only one thread runs Python at a time anyway, so one CPU takes no
    parallel speed-up away from ``threads``; it does hide the overlap of
    code that releases the lock, which a change that adds such code has
    to measure on a workload of its own.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args, spec: dict) -> int:
    """The contract form: one workload, one run, one JSON line."""
    pin_to_one_cpu()
    import harness

    workload = workloads()[args.workload]
    runner = harness.run_traced if args.trace else harness.run_untraced
    row = runner(workload, args.seed, args.seconds, args.scale)
    row["detail"]["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    print_row(args.workload, row, sys.stderr if args.quiet else sys.stdout)
    if args.detail_to:
        with open(args.detail_to, "w") as f:
            json.dump(row, f)
    # The contract's line carries the metrics BENCHMARK.json names: the
    # ones every workload reports.  The others are in the table above.
    named = spec["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": row["failed"] == 0,
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metrics": {
                    m["name"]: dict(zip(("value", "unit"), row["metrics"][m["name"]]))
                    for m in named
                },
            }
        )
    )
    return 0


def print_row(name: str, row: dict, out) -> None:
    print(f"== {name}: attempted {row['attempted']}, failed {row['failed']}", file=out)
    for metric, (value, unit) in row["metrics"].items():
        print(f"   {metric:<46s} {value:>14.6g} {unit}", file=out)
    for key, value in row["detail"].items():
        print(f"   . {key}: {value}", file=out)


def child(name: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    """Run one workload in a fresh child process and read its row back."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    detail = os.path.join(HERE, "out", f"row-{name}-{os.getpid()}.json")
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale), "--quiet", "--detail-to", detail,
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: workload {name} exited with {done.returncode}")
    try:
        with open(detail) as f:
            return json.load(f)
    finally:
        os.remove(detail)


def host_record(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:  # no git here; the rows are still worth having
        commit = ""
    return {
        "cpus": os.cpu_count(),
        "cpus_per_workload_process": 1,  # pin_to_one_cpu()
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "seed": seed,
        "seconds": seconds,
    }


def run_all(args, spec: dict) -> int:
    """Every workload, each in its own child process, one at a time."""
    names = workload_names(spec)
    report = {"host": host_record(args.seed, args.seconds), "runs": {n: [] for n in names}}
    if args.traced:
        report["traced"] = {}
    failed_any = False
    for repeat in range(args.repeat):
        for name in names:
            row = child(name, args.seed, args.seconds, 0, args.scale)
            report["runs"][name].append(row)
            print_row(f"{name} [run {repeat + 1}/{args.repeat}]", row, sys.stdout)
            failed_any |= row["failed"] > 0
    if args.traced:
        for name in names:
            row = child(name, args.seed, args.seconds, 1, args.scale)
            untraced = report["runs"][name][-1]["detail"]
            per_op = untraced["timed_wall_s"] / untraced["samples"]
            row["detail"]["trace_overhead_ratio"] = row["detail"]["per_op_wall_s"] / per_op
            report["traced"][name] = row
            print_row(f"{name} [traced]", row, sys.stdout)
            failed_any |= row["failed"] > 0
    out = args.out or os.path.join(HERE, "out", f"results-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print(f"results written to {os.path.relpath(out, ROOT)}")
    return 1 if failed_any else 0


def run_sweep(args) -> int:
    """Report-only: size -> latency_p50_ms, so cost classes show."""
    print(f"{'workload':<24s} {'scale':>6s} {'latency_p50_ms':>16s} {'throughput_per_s':>18s}")
    for name in SWEEP_WORKLOADS:
        for scale in SWEEP_SCALES:
            row = child(name, args.seed, args.seconds, 0, scale)
            metrics = row["metrics"]
            print(f"{name:<24s} {scale:>6.2f} {metrics['latency_p50_ms'][0]:>16.3f} "
                  f"{metrics['throughput_per_s'][0]:>18.2f}")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads form: also make the traced run of each")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on record counts (report-only; 1.0 is the gated size)")
    parser.add_argument("--sweep", action="store_true",
                        help="report-only: scales 0.25/0.5/1/2 on three workloads")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads form: untraced runs per workload")
    parser.add_argument("--out", help="all-workloads form: where to store the rows")
    parser.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail-to", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, spec)
    workloads()  # fail early, and without output, when src/ is missing
    if args.sweep:
        return run_sweep(args)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())

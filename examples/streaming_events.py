#!/usr/bin/env python3
"""Streaming: micro-batched events, stream-static join, windowed hotspots.

The streaming face of the paper's event-processing scenario: timed
events arrive in micro-batches through a queue source, every batch is
joined against a fixed set of district polygons (a broadcast R-tree),
and event-time windows of 10 time units run DBSCAN to surface emerging
hotspots.  Batches are driven synchronously with ``run_batch`` so the
output is deterministic.

Run: ``python examples/streaming_events.py [--executor sequential|threads]``
"""

import argparse
import random

from repro import STObject, SparkContext
from repro.streaming import StreamingContext

DISTRICTS = [
    (STObject("POLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))"), "old-town"),
    (STObject("POLYGON ((50 0, 100 0, 100 50, 50 50, 50 0))"), "harbour"),
    (STObject("POLYGON ((0 50, 100 50, 100 100, 0 100, 0 50))"), "north"),
]


def make_batch(rng: random.Random, base_time: float) -> list:
    """One micro-batch: a dense cluster near the harbour plus noise."""
    records = []
    for i in range(12):
        x, y = 70 + rng.uniform(-4, 4), 20 + rng.uniform(-4, 4)
        t = base_time + rng.uniform(0, 4)
        records.append((STObject(f"POINT ({x} {y})", t), ("cluster", i)))
    for i in range(6):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        t = base_time + rng.uniform(0, 4)
        records.append((STObject(f"POINT ({x} {y})", t), ("noise", i)))
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--executor",
        default="threads",
        choices=("sequential", "threads"),
        help="task execution backend",
    )
    args = parser.parse_args()
    rng = random.Random(7)

    with SparkContext("streaming-events", executor=args.executor) as sc:
        ssc = StreamingContext(sc, batch_interval=0.05)
        source, events = ssc.queue_stream()

        # per-batch stream-static join: which district is each event in?
        per_district = events.join_static(DISTRICTS).map(
            lambda pair: pair[1][1]  # the matched district name
        )
        district_counts = per_district.collect_batches()

        # event-time windows of 10 time units, DBSCAN hotspot summaries
        hotspots = events.window(length=10.0).hotspots(eps=6.0, min_pts=5)

        for batch in range(6):
            source.push(make_batch(rng, base_time=batch * 5.0))
            ssc.run_batch()
        ssc.stop()  # flushes the still-open window

        print("events per district, per batch:")
        for batch_id, names in district_counts.results():
            tally = {}
            for name in names:
                tally[name] = tally.get(name, 0) + 1
            print(f"  batch {batch_id}: {dict(sorted(tally.items()))}")

        print("\nhotspots per closed window:")
        for window, clusters in hotspots.results():
            for label, size, (cx, cy) in clusters:
                print(
                    f"  [{window.start:5.1f}, {window.end:5.1f})  "
                    f"cluster {label}: {size} events around ({cx:.1f}, {cy:.1f})"
                )

        print(f"\nmetrics: {ssc.metrics.snapshot()}")


if __name__ == "__main__":
    main()

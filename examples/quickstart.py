#!/usr/bin/env python3
"""Quickstart: the paper's usage example, end to end.

Builds the event RDD exactly as in section 2.3 of the paper -- an input
with schema ``(id, category, time, wkt)`` is pre-processed into
``RDD[(STObject, (id, category))]`` -- then runs the two queries from
the listing: ``containedBy`` on the raw RDD and ``intersect`` on a
live-indexed RDD.

Run: ``python examples/quickstart.py [--executor sequential|threads]``
"""

import argparse

from repro import STObject, SparkContext
from repro.io.datagen import event_rows, uniform_points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--executor",
        default="threads",
        choices=("sequential", "threads"),
        help="task execution backend",
    )
    args = parser.parse_args()

    with SparkContext("quickstart", executor=args.executor) as sc:
        # --- pre-processing: rows with schema (id, category, time, wkt) ---
        rows = event_rows(
            uniform_points(5_000, seed=42), time_range=(0, 1_000), seed=43
        )
        raw_input = sc.parallelize(rows, 8)

        # the paper's listing:
        #   val events = rawInput.map { case (id, ctgry, time, wkt) =>
        #       ( STObject(wkt, time), (id, ctgry) ) }
        events = raw_input.map(
            lambda row: (STObject(row[3], row[2]), (row[0], row[1]))
        )

        #   val qry = STObject("POLYGON((...))", begin, end)
        qry = STObject(
            "POLYGON ((100 100, 600 100, 600 600, 100 600, 100 100))", 0, 500
        )

        #   val contain = events.containedBy(qry)
        contain = events.containedBy(qry)
        print(f"containedBy: {contain.count()} events inside the window")

        #   val intersect = events.liveIndex(order = 5).intersect(qry)
        intersect = events.liveIndex(order=5).intersect(qry)
        print(f"intersect (live index, order 5): {intersect.count()} events")

        print("\nfirst three matches:")
        for st_object, (event_id, category) in contain.take(3):
            print(f"  #{event_id:4d} [{category:9s}] {st_object}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Streaming CEP: geofence entry/exit sequences and missing heartbeats.

Vehicles send timed position heartbeats; the CEP layer watches for two
situations the per-window aggregates cannot express:

- ``depot-visit``: a vehicle *enters* the depot geofence and later
  *exits* it within 30 time units -- a two-step ``sequence`` rule with
  ``entered``/``exited`` spatial transition guards, grouped per
  vehicle;
- ``lost-heartbeat``: a vehicle goes silent -- each heartbeat arms an
  ``absence`` trigger expecting the *next* heartbeat of the same
  vehicle within 12 time units, and silence past the deadline fires an
  alert;
- ``convoy``: three events within distance 8 of each other inside 10
  time units, any vehicles -- the proximity ``sequence`` from the
  paper's motivation, via ``within_distance``.

Batches are driven synchronously with ``run_batch`` so the output is
deterministic.

Run: ``python examples/streaming_cep.py [--executor sequential|threads]``
"""

import argparse

from repro import STObject, SparkContext
from repro.streaming import StreamingContext, absence, sequence, step

DEPOT = "POLYGON ((40 40, 60 40, 60 60, 40 60, 40 40))"

#: (vehicle, t, x, y) position heartbeats.  Vehicle "v1" crosses the
#: depot; "v2" stays outside and falls silent after t=20; "v3" and "v1"
#: bunch up near (80, 80) around t=30.
TRACK = [
    ("v1", 2.0, 10.0, 50.0),
    ("v2", 3.0, 80.0, 20.0),
    ("v1", 8.0, 50.0, 50.0),   # v1 inside the depot -> entry
    ("v2", 12.0, 82.0, 22.0),
    ("v1", 15.0, 70.0, 50.0),  # v1 outside again -> exit, depot-visit fires
    ("v2", 20.0, 84.0, 24.0),  # v2's last heartbeat -> lost-heartbeat fires
    ("v1", 24.0, 76.0, 76.0),
    ("v3", 28.0, 80.0, 80.0),
    ("v1", 30.0, 82.0, 78.0),  # three nearby events -> convoy fires
    ("v1", 36.0, 90.0, 70.0),
    ("v3", 38.0, 85.0, 85.0),
]


def heartbeat(vehicle: str, t: float, x: float, y: float):
    """One stream record: a timed point plus its (vehicle, tag) value."""
    return (STObject(f"POINT ({x} {y})", t), (vehicle, "hb"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--executor",
        default="threads",
        choices=("sequential", "threads"),
        help="task execution backend",
    )
    args = parser.parse_args()

    with SparkContext("streaming-cep", executor=args.executor) as sc:
        ssc = StreamingContext(sc, batch_interval=0.05)
        source, events = ssc.queue_stream()

        per_vehicle = lambda st, value: value[0]  # noqa: E731
        depot_visit = sequence(
            "depot-visit",
            steps=[step(entered=DEPOT), step(exited=DEPOT)],
            within=30.0,
            group_by=per_vehicle,
        )
        lost_heartbeat = absence(
            "lost-heartbeat",
            expect=step(category="hb"),
            within=12.0,
            group_by=per_vehicle,
        )
        convoy = sequence(
            "convoy",
            steps=[step(), step(within_distance=8.0), step(within_distance=8.0)],
            within=10.0,
        )

        patterns = events.patterns(depot_visit, lost_heartbeat, convoy)
        matches = patterns.matches()

        # Three heartbeats per micro-batch, in time order.
        for i in range(0, len(TRACK), 3):
            source.push([heartbeat(*row) for row in TRACK[i : i + 3]])
            ssc.run_batch()
        ssc.stop()  # flush: remaining absence deadlines resolve

        print("matches, in emission order:")
        for rule_name, match in matches.results():
            who = match.group if match.group is not None else "(any)"
            span = f"[{match.start:5.1f}, {match.end:5.1f}]"
            points = ", ".join(
                f"{value[0]}@{st.geo.wkt()}" for st, value in match.events
            )
            print(f"  {rule_name:15s} {who!s:6s} {span}  {points}")

        print(f"\nmatches emitted: {ssc.metrics.matches_emitted}")


if __name__ == "__main__":
    main()

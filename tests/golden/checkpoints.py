"""Golden format-3 checkpoints: the pipelines, and the script that wrote them.

Each pipeline runs ``CRASH_AT`` of its ``BATCHES`` batches with a
checkpoint directory and stops without a flush, as a killed process
would.  The directory (checkpoint epochs plus the write-ahead log tail)
and the sinks the stopped run had emitted are kept under
``tests/golden/<pipeline>/``; ``tests/streaming/test_golden_checkpoints.py``
restores each on the current build, replays the rest of the stream and
holds the union to an uninterrupted run.

The checked-in files were written by the build that still held its
records in a grid of cells (``continuous()`` defaulting to an 8x8 grid
over the given universe).  To write them again with the build on the
import path, from the root of a checkout::

    PYTHONPATH=src python tests/golden/checkpoints.py [OUT_DIR]
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

from repro.core.stobject import STObject
from repro.geometry.envelope import Envelope
from repro.spark.context import SparkContext
from repro.streaming import StreamingContext
from repro.streaming.cep import absence, count, sequence, step
from repro.temporal import Interval

BATCHES = 8
CRASH_AT = 5
TIMES = [float(b) for b in range(BATCHES)]
UNIVERSE = Envelope(0.0, 0.0, 50.0, 50.0)
RANGE_QUERY = STObject("POLYGON ((5 5, 30 8, 26 30, 8 24, 5 5))")
KNN_QUERY = STObject("POINT (20 20)")
DEPOT = STObject("POLYGON ((0 0, 25 0, 25 25, 0 25, 0 0))")
HERE = os.path.dirname(os.path.abspath(__file__))


def make_batches() -> list[list]:
    """Eight batches of points on integer coordinates (tied kNN
    distances), out of order in time; every fourth record is an interval."""
    rng = random.Random(57)
    batches = []
    for b in range(BATCHES):
        rows = []
        for i in range(6):
            t = b + rng.uniform(-1.5, 1.0)
            time = Interval(t, t + rng.uniform(0.5, 3.0)) if i % 4 == 0 else t
            wkt = f"POINT ({rng.randrange(40)} {rng.randrange(40)})"
            rows.append((STObject(wkt, time), [b * 6 + i, i % 3]))
        batches.append(rows)
    return batches


def vehicle(_st, value):
    return value[1]


def declare_continuous(sc, batches, ck):
    """``continuous()`` with a universe, a range and a kNN query."""
    ssc = StreamingContext(sc, checkpoint_dir=ck, checkpoint_interval=2)
    _source, events = ssc.queue_stream(batches)
    windows = events.continuous(length=4.0, slide=2.0, lateness=1.0, universe=UNIVERSE)
    return ssc, {"range": windows.range(RANGE_QUERY), "knn": windows.knn(KNN_QUERY, 3)}


def declare_patterns(sc, batches, ck):
    """``patterns()`` with a sequence, an absence and a count rule."""
    ssc = StreamingContext(sc, checkpoint_dir=ck, checkpoint_interval=2)
    _source, events = ssc.queue_stream(batches)
    stream = events.patterns(
        sequence("enter", steps=[step(), step(inside=DEPOT)], within=3.0, group_by=vehicle),
        absence("silent", expect=step(), within=2.5, group_by=vehicle),
        count("busy", step(inside=DEPOT), within=4.0, threshold=3),
        lateness=1.0,
    )
    return ssc, {"matches": stream.matches()}


PIPELINES = {"continuous": declare_continuous, "patterns": declare_patterns}


def canon(sinks) -> dict:
    """Sink results as JSON-ready lists, keyed by sink name."""
    out = {}
    for name, sink in sinks.items():
        if name == "matches":
            out[name] = [
                [m.seq, m.rule, m.group, [v for _st, v in m.events], m.start, m.end, m.value]
                for _rule, m in sink.results()
            ]
        elif name == "range":
            out[name] = [[w.start, w.end, [v for _st, v in r]] for w, r in sink.results()]
        else:
            out[name] = [[w.start, w.end, [[d, v] for d, (_st, v) in r]] for w, r in sink.results()]
    return json.loads(json.dumps(out))


def make_sc() -> SparkContext:
    return SparkContext("golden", parallelism=2, executor="sequential", retry_backoff=0.0)


def write(out_dir: str) -> None:
    """Write every pipeline's stopped-run checkpoint directory and sinks."""
    for name, declare in PIPELINES.items():
        target = os.path.join(out_dir, name)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        with make_sc() as sc:
            ssc, sinks = declare(sc, make_batches(), os.path.join(target, "ck"))
            ssc.run_batches(CRASH_AT, batch_times=TIMES[:CRASH_AT])
            ssc.checkpoint_manager.close()
        with open(os.path.join(target, "emitted.json"), "w") as fh:
            json.dump(canon(sinks), fh, sort_keys=True)


if __name__ == "__main__":
    write(sys.argv[1] if len(sys.argv) > 1 else HERE)

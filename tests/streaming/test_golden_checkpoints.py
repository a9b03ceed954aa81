"""Checked-in format-3 checkpoints restore and replay on this build.

``tests/golden/`` holds, per pipeline, a checkpoint directory a stopped
run left behind (epochs plus the write-ahead log tail) and the sinks
that run had emitted; :mod:`tests.golden.checkpoints` declares the
pipelines and wrote them.  Restored here, each replays its log tail and
the rest of the stream: what it emits shares no window (no match) with
what the stopped run emitted, and the two together equal an
uninterrupted run on this build.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil

import pytest

from repro.streaming.recovery import SNAPSHOT_FORMAT
from tests.golden import checkpoints as golden


def uninterrupted(declare) -> dict:
    with golden.make_sc() as sc:
        ssc, sinks = declare(sc, golden.make_batches(), None)
        ssc.run_batches(golden.BATCHES, batch_times=golden.TIMES)
        ssc.stop()
    return golden.canon(sinks)


@pytest.mark.parametrize("name", sorted(golden.PIPELINES))
def test_a_golden_checkpoint_restores_and_replays_exactly(tmp_path, name):
    source = os.path.join(golden.HERE, name)
    ck = str(tmp_path / "ck")
    shutil.copytree(os.path.join(source, "ck"), ck)
    epochs = sorted(d for d in os.listdir(ck) if d.startswith("checkpoint-"))
    with open(os.path.join(ck, epochs[-1], "state.pkl"), "rb") as fh:
        assert pickle.load(fh)["format"] == SNAPSHOT_FORMAT == 3
    with open(os.path.join(source, "emitted.json")) as fh:
        stopped = json.load(fh)

    declare = golden.PIPELINES[name]
    with golden.make_sc() as sc:
        ssc, sinks = declare(sc, golden.make_batches(), ck)
        report = ssc.restore()
        assert report.epoch == len(epochs)
        assert report.batches_replayed > 0
        assert report.resumed_batch_id == golden.CRASH_AT
        ssc.run_batches(
            golden.BATCHES - golden.CRASH_AT, batch_times=golden.TIMES[golden.CRASH_AT :]
        )
        ssc.stop()
    resumed = golden.canon(sinks)

    want = uninterrupted(declare)
    for sink, results in want.items():
        assert results, (name, sink)
        got = stopped[sink] + resumed[sink]
        if sink == "matches":
            assert sorted(got) == results, (name, sink)  # by emission ordinal
        else:
            # One emission per window, ascending: none re-emitted or lost.
            assert sorted(got, key=lambda row: (row[0], row[1])) == results, (name, sink)
    assert stopped["matches" if name == "patterns" else "range"]

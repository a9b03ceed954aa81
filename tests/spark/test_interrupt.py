"""Interruption mid-job must leave the context clean and reusable.

KeyboardInterrupt is the canonical "operator hits Ctrl-C" event: it is a
BaseException, so the retry machinery must *not* swallow it, and the
context must come back usable -- no half-published cache blocks, no
poisoned shuffle outputs -- because recomputation from lineage is the
recovery story for everything.
"""

import pytest

from repro.spark.context import Metrics, SparkContext


@pytest.fixture(params=["sequential", "threads"])
def ctx(request):
    context = SparkContext(
        f"interrupt-{request.param}",
        parallelism=4,
        executor=request.param,
        retry_backoff=0.0,
    )
    yield context
    context.stop()


def _interrupt_once(state):
    """A map function that raises KeyboardInterrupt exactly once."""

    def fn(x):
        if x == 5 and not state["fired"]:
            state["fired"] = True
            raise KeyboardInterrupt
        return x * 10

    return fn


class TestKeyboardInterrupt:
    def test_interrupt_propagates_and_context_stays_usable(self, ctx):
        state = {"fired": False}
        rdd = ctx.parallelize(range(8), 4).map(_interrupt_once(state))
        with pytest.raises(KeyboardInterrupt):
            rdd.collect()
        assert state["fired"]
        # Not treated as a task failure: no retry budget consumed.
        assert ctx.metrics.tasks_retried == 0
        # The same lineage re-runs cleanly.
        assert sorted(rdd.collect()) == [x * 10 for x in range(8)]

    def test_interrupt_in_a_one_task_job(self, ctx):
        # One split takes the inline transport under either executor.
        ctx.enable_tracing()
        state = {"fired": False}
        rdd = ctx.parallelize(range(8), 1).map(_interrupt_once(state))
        with pytest.raises(KeyboardInterrupt):
            rdd.collect()
        assert ctx.metrics.snapshot() == {
            **Metrics().snapshot(), "jobs_run": 1, "tasks_launched": 1,
        }
        spans = [(s.name, s.attrs) for s in ctx.tracer.root.walk() if s.kind in ("job", "task")]
        assert spans == [
            ("job", {"rdd": "MapPartitionsRDD[1]", "op": "MapPartitionsRDD", "tasks": 1}),
            ("task", {"split": 0, "records_in": 5}),
        ]
        assert rdd.collect() == [x * 10 for x in range(8)]

    def test_interrupt_does_not_half_publish_cache(self, ctx):
        state = {"fired": False}
        rdd = ctx.parallelize(range(8), 4).map(_interrupt_once(state)).persist()
        with pytest.raises(KeyboardInterrupt):
            rdd.collect()
        # The interrupted partition's block must be absent, not partial:
        # blocks publish only after the full partition materializes.
        cached = [ctx._cache.get(rdd.id, split) for split in range(4)]
        for block in cached:
            assert block is None or len(block) == 2
        assert sorted(rdd.collect()) == [x * 10 for x in range(8)]
        assert all(
            len(ctx._cache.get(rdd.id, split)) == 2 for split in range(4)
        )

    def test_interrupt_during_map_side_does_not_poison_shuffle(self, ctx):
        state = {"fired": False}
        pairs = (
            ctx.parallelize(range(8), 4)
            .map(_interrupt_once(state))
            .map(lambda x: (x % 3, x))
        )
        grouped = pairs.group_by_key()
        with pytest.raises(KeyboardInterrupt):
            grouped.collect()
        # The aborted map-side attempt commits nothing.  (Under the
        # thread pool a *sibling* reduce task may have re-run the map
        # side cleanly before cancellation reached it -- that published
        # output is complete, which the collect below verifies.)
        if ctx._executor_mode == "sequential":
            assert grouped._shuffle_id not in ctx._shuffle._outputs
        result = {k: sorted(v) for k, v in grouped.collect()}
        expected: dict = {}
        for x in range(8):
            expected.setdefault((x * 10) % 3, []).append(x * 10)
        assert result == {k: sorted(v) for k, v in expected.items()}

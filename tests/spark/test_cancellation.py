"""Unit tests for the cooperative-cancellation primitives."""

import random
import threading
import time

import pytest

from repro.core.clustering import local_dbscan
from repro.spark.cancellation import (
    KIND_ABORT,
    KIND_LOSER,
    KIND_TIMEOUT,
    CancelToken,
    Heartbeat,
    TaskCancelledError,
    cancellable_sleep,
    current_token,
    task_scope,
)


class TestCancelToken:
    def test_fresh_token_is_live(self):
        token = CancelToken()
        assert not token.cancelled
        token.check()  # no raise

    def test_cancel_sets_reason_and_kind(self):
        token = CancelToken()
        token.cancel("deadline hit", KIND_TIMEOUT)
        assert token.cancelled
        assert token.reason == "deadline hit"
        assert token.kind == KIND_TIMEOUT

    def test_cancel_is_idempotent_first_wins(self):
        token = CancelToken()
        token.cancel("first", KIND_TIMEOUT)
        token.cancel("second", KIND_ABORT)
        assert token.reason == "first"
        assert token.kind == KIND_TIMEOUT

    def test_check_raises_typed_error(self):
        token = CancelToken()
        token.cancel("lost the race", KIND_LOSER)
        with pytest.raises(TaskCancelledError) as err:
            token.check()
        assert err.value.kind == KIND_LOSER
        assert err.value.reason == "lost the race"

    def test_cancel_propagates_to_children(self):
        parent = CancelToken()
        child = CancelToken(parent=parent)
        grandchild = CancelToken(parent=child)
        parent.cancel("job aborted", KIND_ABORT)
        assert child.cancelled and child.kind == KIND_ABORT
        assert grandchild.cancelled and grandchild.reason == "job aborted"

    def test_child_of_cancelled_parent_starts_cancelled(self):
        parent = CancelToken()
        parent.cancel("too late", KIND_TIMEOUT)
        child = CancelToken(parent=parent)
        assert child.cancelled
        assert child.kind == KIND_TIMEOUT

    def test_child_cancel_does_not_touch_parent(self):
        parent = CancelToken()
        child = CancelToken(parent=parent)
        child.cancel()
        assert not parent.cancelled

    def test_wait_returns_true_on_cancel_from_other_thread(self):
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel)
        timer.start()
        try:
            start = time.perf_counter()
            assert token.wait(5.0) is True
            assert time.perf_counter() - start < 2.0
        finally:
            timer.cancel()

    def test_wait_times_out_when_live(self):
        assert CancelToken().wait(0.01) is False

    def test_wait_on_a_cancelled_token_returns_true_at_once(self):
        token = CancelToken()
        assert token.wait(0) is False  # the token now has something to block on
        threading.Timer(0.01, token.cancel).start()
        assert token.wait(5.0) is True
        start = time.perf_counter()
        assert token.wait(5.0) is True
        assert CancelToken(parent=token).wait(5.0) is True
        assert time.perf_counter() - start < 1.0
        never_waited = CancelToken()
        never_waited.cancel()
        assert never_waited.wait(5.0) is True
        assert never_waited._event is None  # nothing to block on was built

    @pytest.mark.parametrize("waited_before", [False, True], ids=["first_wait", "later_wait"])
    def test_cancel_from_another_thread_wakes_a_blocked_wait(self, waited_before):
        # The first wait builds the token's Event; a later one finds it
        # there.  A cancel must reach both, whichever side wins the race.
        for _ in range(200):
            token = CancelToken()
            if waited_before:
                assert token.wait(0) is False
            canceller = threading.Timer(0.001, token.cancel)
            canceller.start()
            start = time.perf_counter()
            assert token.wait(5.0) is True
            assert time.perf_counter() - start < 1.0
            canceller.join(5.0)

    def test_callback_added_after_cancel_fires_exactly_once(self):
        token = CancelToken()
        woke: list = []
        waiter = threading.Thread(target=lambda: woke.append(token.wait(5.0)), daemon=True)
        waiter.start()
        time.sleep(0.05)  # the waiter is blocked on the token by now
        token.cancel()
        fired: list = []
        token.add_callback(lambda: fired.append(True))
        token.cancel("again")
        waiter.join(1.0)
        assert fired == [True]
        assert not waiter.is_alive() and woke == [True]

    def test_callback_fires_on_cancel(self):
        token = CancelToken()
        fired = []
        token.add_callback(lambda: fired.append(True))
        assert not fired
        token.cancel()
        assert fired == [True]

    def test_callback_fires_immediately_when_already_cancelled(self):
        token = CancelToken()
        token.cancel()
        fired = []
        token.add_callback(lambda: fired.append(True))
        assert fired == [True]


class TestTaskScope:
    def test_installs_and_restores(self):
        assert current_token() is None
        token = CancelToken()
        with task_scope(token):
            assert current_token() is token
        assert current_token() is None

    def test_nested_scopes_restore_outer(self):
        outer, inner = CancelToken(), CancelToken()
        with task_scope(outer):
            with task_scope(inner):
                assert current_token() is inner
            assert current_token() is outer

    def test_restores_on_exception(self):
        token = CancelToken()
        with pytest.raises(RuntimeError):
            with task_scope(token):
                raise RuntimeError("boom")
        assert current_token() is None


class TestHeartbeat:
    def test_noop_outside_any_task(self):
        heartbeat = Heartbeat(every=2)
        for _ in range(100):
            heartbeat.beat()  # no token installed, never raises

    def test_raises_within_interval_after_cancel(self):
        token = CancelToken()
        with task_scope(token):
            heartbeat = Heartbeat(every=4)
            heartbeat.beat()
            token.cancel("stop now", KIND_ABORT)
            with pytest.raises(TaskCancelledError):
                for _ in range(4):
                    heartbeat.beat()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Heartbeat(every=3)
        with pytest.raises(ValueError):
            Heartbeat(every=0)

    def test_cancels_a_long_local_clustering(self):
        # One dense blob: the first seed's expansion reaches every point,
        # so only the expansion loop's beat can stop the run early.
        rng = random.Random(5)
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(3000)]
        token = CancelToken()
        token.cancel("deadline", KIND_ABORT)
        with task_scope(token), pytest.raises(TaskCancelledError):
            local_dbscan(points, 2.0, 3)
        assert local_dbscan(points, 2.0, 3)[0] == [0] * len(points)

    def test_captures_token_at_construction(self):
        token = CancelToken()
        with task_scope(token):
            heartbeat = Heartbeat(every=1)
        token.cancel()
        # Still bound to the captured token even outside the scope.
        with pytest.raises(TaskCancelledError):
            heartbeat.beat()


class TestCancellableWaits:
    def test_sleep_without_token_just_sleeps(self):
        start = time.perf_counter()
        cancellable_sleep(0.02)
        assert time.perf_counter() - start >= 0.015

    def test_sleep_wakes_and_raises_on_cancel(self):
        token = CancelToken()
        threading.Timer(0.05, token.cancel, args=("killed", KIND_ABORT)).start()
        start = time.perf_counter()
        with pytest.raises(TaskCancelledError):
            cancellable_sleep(10.0, token=token)
        assert time.perf_counter() - start < 5.0

    def test_sleep_completes_when_never_cancelled(self):
        cancellable_sleep(0.02, token=CancelToken())  # no raise

    def test_wait_cancelled_hits_limit_and_returns(self):
        start = time.perf_counter()
        cancellable_sleep(0.05, token=CancelToken())
        assert time.perf_counter() - start >= 0.04

    def test_wait_cancelled_raises_on_cancel(self):
        token = CancelToken()
        threading.Timer(0.05, token.cancel, args=("reaped", KIND_TIMEOUT)).start()
        with pytest.raises(TaskCancelledError) as err:
            cancellable_sleep(30.0, token=token)
        assert err.value.kind == KIND_TIMEOUT

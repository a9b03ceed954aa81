"""A kill-capable pool of spawned worker processes.

``concurrent.futures.ProcessPoolExecutor`` cannot kill one hung worker
without declaring the whole pool broken, and its shared result queue
can be corrupted by a mid-write death.  The scheduler's deadline and
abort machinery needs exactly that -- terminate *one* overdue worker,
synthesize the attempt's outcome, respawn, keep going -- so this module
implements a small pool with:

- one **duplex pipe per worker** (a kill can only ever lose that
  worker's in-flight message, never another's);
- a single **receiver thread** multiplexing all worker pipes with
  :func:`multiprocessing.connection.wait`, dispatching ``started`` /
  ``done`` callbacks and serving shuffle-block fetches;
- :meth:`ProcessPool.kill`: unqueue a pending task or terminate +
  respawn a running worker, synthesizing exactly one outcome per task
  (a ``finished`` flag arbitrates against a racing ``done``);
- **soft split affinity**: an idle worker whose index matches
  ``split % size`` is preferred, so re-runs of a persisted partition
  land on the worker that already cached it;
- per-worker **payload/broadcast dedup**: a job's task bytes ship once
  per (job, worker), a broadcast's bytes once per worker ever.

Workers start via the ``spawn`` method by default: the driver runs
scheduler threads, and ``fork`` would snapshot locks mid-flight.
``REPRO_PROC_START_METHOD`` overrides for experiments.  Workers are
daemonic -- a dying driver takes its pool with it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.spark.worker import worker_main


class WorkerCrashedError(RuntimeError):
    """A worker process died without delivering its task's outcome.

    Retryable: the scheduler treats it like any task failure and
    re-runs the attempt from lineage on a fresh worker.
    """


class _Worker:
    __slots__ = (
        "id", "process", "conn", "send_lock", "current",
        "payload_ids", "broadcast_ids", "retired",
    )

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.current: "_Task | None" = None
        self.payload_ids: set[int] = set()
        self.broadcast_ids: set[int] = set()
        #: Set (under the pool lock) the moment the pool gives up on
        #: this worker; arbitrates kill vs. EOF so death is handled once.
        self.retired = False


class _Task:
    """One submitted task attempt; doubles as the caller's handle."""

    __slots__ = (
        "task_id", "payload", "split", "meta",
        "on_start", "on_outcome", "worker", "finished",
    )

    def __init__(self, task_id, payload, split, meta, on_start, on_outcome) -> None:
        self.task_id = task_id
        self.payload = payload
        self.split = split
        self.meta = meta
        self.on_start = on_start
        self.on_outcome = on_outcome
        self.worker: _Worker | None = None
        #: Exactly-one-outcome flag, flipped under the pool lock by
        #: whichever of {done message, kill, worker death} gets there first.
        self.finished = False


class ProcessPool:
    """See the module docstring.  All public methods are thread-safe."""

    def __init__(
        self,
        size: int,
        config: dict,
        serve_blocks: Callable[[int, int], list],
        name: str = "repro",
    ) -> None:
        method = os.environ.get("REPRO_PROC_START_METHOD", "spawn")
        self._mp = multiprocessing.get_context(method)
        self._size = size
        self._config = config
        self._serve_blocks = serve_blocks
        self._name = name
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._graveyard: list = []  # conns of retired workers, closed by the receiver
        self._pending: deque[_Task] = deque()
        self._tasks: dict[int, _Task] = {}
        self._task_ids = itertools.count(1)
        self._stopped = False
        for worker_id in range(size):
            self._workers.append(self._spawn(worker_id))
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"{name}-pool-recv", daemon=True
        )
        self._receiver.start()

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, worker_id: int) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(worker_id, child_conn, self._config),
            name=f"{self._name}-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # our copy; lets EOF surface when the child dies
        return _Worker(worker_id, process, parent_conn)

    def _retire_locked(self, worker: _Worker) -> "_Worker":
        """Replace *worker* with a fresh process (pool lock held)."""
        worker.retired = True
        self._graveyard.append(worker.conn)
        replacement = self._spawn(worker.id)
        self._workers[self._workers.index(worker)] = replacement
        return replacement

    # -- submission ----------------------------------------------------------

    def submit(self, payload, split: int, meta: dict, on_start, on_outcome) -> _Task:
        """Queue one task attempt; callbacks fire from the receiver thread."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("process pool is shut down")
            task = _Task(
                next(self._task_ids), payload, split, meta, on_start, on_outcome
            )
            self._tasks[task.task_id] = task
            worker = self._pick_idle(split)
            if worker is None:
                self._pending.append(task)
                return task
            worker.current = task
            task.worker = worker
        self._transmit(worker, task)
        return task

    def _pick_idle(self, split: int) -> _Worker | None:
        preferred = self._workers[split % self._size]
        if preferred.current is None and not preferred.retired:
            return preferred
        for worker in self._workers:
            if worker.current is None and not worker.retired:
                return worker
        return None

    def _transmit(self, worker: _Worker, task: _Task) -> None:
        payload = task.payload
        try:
            with worker.send_lock:
                for bid, blob in payload.broadcasts.items():
                    if bid not in worker.broadcast_ids:
                        worker.conn.send(("broadcast", bid, blob))
                        worker.broadcast_ids.add(bid)
                if payload.payload_id not in worker.payload_ids:
                    worker.conn.send(("payload", payload.payload_id, payload.data))
                    worker.payload_ids.add(payload.payload_id)
                worker.conn.send(
                    ("task", task.task_id, payload.payload_id, task.split, task.meta)
                )
        except (OSError, ValueError, BrokenPipeError):
            self._worker_died(worker)

    # -- the receiver --------------------------------------------------------

    def _receive_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopped:
                    return
                while self._graveyard:
                    try:
                        self._graveyard.pop().close()
                    except OSError:
                        pass
                live = {w.conn: w for w in self._workers if not w.retired}
            if not live:
                time.sleep(0.05)
                continue
            try:
                ready = multiprocessing.connection.wait(list(live), timeout=0.1)
            except OSError:
                continue  # a conn closed under us (shutdown/kill race)
            for conn in ready:
                worker = live[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._worker_died(worker)
                    continue
                try:
                    self._dispatch(worker, msg)
                except Exception:
                    # A callback blew up; don't take the receiver down.
                    pass

    def _dispatch(self, worker: _Worker, msg: tuple) -> None:
        kind = msg[0]
        if kind == "started":
            task = self._tasks.get(msg[1])
            if task is not None and not task.finished:
                task.on_start()
            return
        if kind == "fetch":
            _, _task_id, shuffle_id, reduce_split = msg
            try:
                chunks = self._serve_blocks(shuffle_id, reduce_split)
                reply = ("blocks", shuffle_id, reduce_split, chunks)
            except Exception as exc:
                reply = ("blocks_error", shuffle_id, reduce_split, repr(exc))
            try:
                with worker.send_lock:
                    worker.conn.send(reply)
            except (OSError, ValueError, BrokenPipeError):
                self._worker_died(worker)
            return
        if kind == "done":
            _, task_id, ok, out = msg
            with self._lock:
                task = self._tasks.pop(task_id, None)
                if task is None or task.finished:
                    return
                task.finished = True
                worker.current = None
                follow_up = self._assign_pending_locked(worker)
            task.on_outcome(ok, out)
            if follow_up is not None:
                self._transmit(worker, follow_up)

    def _assign_pending_locked(self, worker: _Worker) -> _Task | None:
        if worker.retired or worker.current is not None or not self._pending:
            return None
        task = self._pending.popleft()
        worker.current = task
        task.worker = worker
        return task

    def _worker_died(self, worker: _Worker) -> None:
        with self._lock:
            if worker.retired or self._stopped:
                return
            task = worker.current
            worker.current = None
            replacement = self._retire_locked(worker)
            if task is not None:
                self._tasks.pop(task.task_id, None)
                if task.finished:
                    task = None
                else:
                    task.finished = True
            follow_up = self._assign_pending_locked(replacement)
        if task is not None:
            task.on_outcome(
                False,
                WorkerCrashedError(
                    f"worker {worker.id} (pid {worker.process.pid}) died while "
                    f"running split {task.split}"
                ),
            )
        if follow_up is not None:
            self._transmit(replacement, follow_up)

    # -- enforcement ---------------------------------------------------------

    def kill(self, task: _Task, error: BaseException) -> None:
        """Stop a task attempt *now*: unqueue it, or shoot its worker.

        The synthesized outcome is ``(False, error)``; a concurrently
        arriving ``done`` loses the ``finished`` race and is dropped.
        The killed worker's replacement inherits nothing -- payload and
        broadcast bytes re-ship on next use; its partition cache is
        lost, which is exactly the recompute-from-lineage contract.
        """
        process = None
        follow_up = None
        replacement = None
        with self._lock:
            if task.finished:
                return
            task.finished = True
            self._tasks.pop(task.task_id, None)
            if task.worker is None:
                try:
                    self._pending.remove(task)
                except ValueError:
                    pass
            else:
                worker = task.worker
                worker.current = None
                process = worker.process
                replacement = self._retire_locked(worker)
                follow_up = self._assign_pending_locked(replacement)
        if process is not None:
            process.terminate()
        task.on_outcome(False, error)
        if follow_up is not None and replacement is not None:
            self._transmit(replacement, follow_up)

    def release_payload(self, payload_id: int) -> None:
        """Tell every worker holding a job's payload bytes to drop them."""
        with self._lock:
            holders = [
                w
                for w in self._workers
                if not w.retired and payload_id in w.payload_ids
            ]
            for worker in holders:
                worker.payload_ids.discard(payload_id)
        for worker in holders:
            try:
                with worker.send_lock:
                    worker.conn.send(("drop", payload_id))
            except (OSError, ValueError, BrokenPipeError):
                pass

    # -- shutdown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the workers and release their queues (idempotent)."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            workers = list(self._workers)
            self._workers = []
            self._pending.clear()
            self._tasks.clear()
        for worker in workers:
            try:
                with worker.send_lock:
                    worker.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in workers:
            worker.process.terminate()
            try:
                worker.conn.close()
            except OSError:
                pass

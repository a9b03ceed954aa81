"""Task serialization for the process-pool executor.

The threads executor shares one address space, so a task is just a
Python callable.  The processes executor must *ship* each task -- the
target RDD's lineage plus the partition function -- to a worker
process, and almost every closure in the engine is a lambda or a local
function that the stdlib pickler refuses.  This module implements the
shipping format:

- **Dynamic functions** (lambdas, ``<locals>`` closures, ``__main__``
  functions) are serialized *by value*: the code object via
  :mod:`marshal`, the closure cell contents, the referenced globals
  (filtered to the names the code actually uses, including nested code
  objects) and the defaults.  Importable module-level functions keep
  pickling by reference, so engine code stays cheap to ship.
  Reconstruction is two-phase (skeleton function first, state applied
  after memoization) so recursive closures and self-referential
  globals round-trip.
- **Driver-resident objects** are replaced with persistent ids instead
  of being copied: the :class:`~repro.spark.context.SparkContext`
  itself (resolved to the worker's task context), :class:`Broadcast`
  (resolved against the worker's once-per-process broadcast store),
  :class:`Accumulator` (resolved to a delta-recording shim whose adds
  ship home with the task result) and tracers/injectors (resolved to
  the worker's per-task instances).
- **Shuffle boundaries** cut the lineage: a :class:`ShuffledRDD` is
  reduced to a shell carrying only its shuffle id and reduce-side
  state.  Its map-side parent lineage never ships -- workers fetch
  reduce buckets from the driver, which materializes every reachable
  shuffle *before* dispatching the job (see
  ``repro.spark.scheduler._ProcessJob``).

The contract this encodes for operator authors: everything a task
closes over must be picklable data, an importable callable, or one of
the driver-resident types above.  Side effects on captured objects do
**not** propagate back to the driver -- use accumulators.  A task that
violates the contract fails at submit time with a typed
:class:`TaskSerializationError`, never silently.
"""

from __future__ import annotations

import builtins
import importlib
import io
import itertools
import marshal
import pickle
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.spark.accumulator import Accumulator
from repro.spark.broadcast import Broadcast
from repro.spark.rdd import ShuffledRDD


class TaskSerializationError(RuntimeError):
    """A task (or broadcast value) could not be shipped to a worker.

    Raised at job-submit time on the driver -- before any task runs --
    so an unpicklable closure fails fast with the offending object
    named instead of surfacing as an opaque per-task crash.
    """


#: Payload ids are driver-global so workers can cache deserialized
#: (rdd, fn) pairs across the tasks of one job.
_payload_ids = itertools.count(1)


@dataclass
class TaskPayload:
    """One job's serialized task, shipped once per (job, worker)."""

    payload_id: int
    data: bytes
    #: broadcast id -> serialized value; shipped once per worker *process*.
    broadcasts: dict[int, bytes] = field(default_factory=dict)
    #: accumulator id -> driver-side object, for applying shipped deltas.
    accumulators: dict[int, Accumulator] = field(default_factory=dict)
    #: Shuffle ids reachable from the lineage; the driver materializes
    #: their map outputs before dispatch.
    shuffle_ids: tuple[int, ...] = ()


class _EmptyCell:
    """Sentinel *class* marking an unfilled closure cell (classes pickle
    by reference, so identity survives the trip)."""


def _referenced_names(code: types.CodeType) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _referenced_names(const)
    return names


def _importable(obj: Any) -> bool:
    """True when ``module.qualname`` resolves back to *obj* exactly."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or module == "__main__" or "<" in qualname:
        return False
    try:
        target: Any = sys.modules.get(module) or importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
    except Exception:
        return False
    return target is obj


def _make_skeleton_function(
    code_bytes: bytes, name: str, qualname: str, module: str, num_cells: int
):
    code = marshal.loads(code_bytes)
    fn_globals: dict[str, Any] = {"__builtins__": builtins, "__name__": module}
    closure = (
        tuple(types.CellType() for _ in range(num_cells)) if num_cells else None
    )
    fn = types.FunctionType(code, fn_globals, name, None, closure)
    fn.__qualname__ = qualname
    fn.__module__ = module
    return fn


def _apply_function_state(fn, state: dict) -> Any:
    fn.__globals__.update(state["globals"])
    fn.__defaults__ = state["defaults"]
    fn.__kwdefaults__ = state["kwdefaults"]
    closure = fn.__closure__ or ()
    for cell, contents in zip(closure, state["cells"]):
        if contents is not _EmptyCell:
            cell.cell_contents = contents
    return fn


def _reduce_dynamic_function(fn: types.FunctionType):
    code = fn.__code__
    cells: list[Any] = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(cell.cell_contents)
        except ValueError:  # not yet filled (recursive def in progress)
            cells.append(_EmptyCell)
    fn_globals = {
        name: fn.__globals__[name]
        for name in _referenced_names(code)
        if name in fn.__globals__
    }
    skeleton_args = (
        marshal.dumps(code),
        fn.__name__,
        fn.__qualname__,
        fn.__module__ or "__dynamic__",
        len(cells),
    )
    # Two-phase reduce: the skeleton memoizes before the state pickles,
    # so cells/globals referring back to the function resolve cleanly.
    state = {
        "globals": fn_globals,
        "defaults": fn.__defaults__,
        "kwdefaults": fn.__kwdefaults__,
        "cells": cells,
    }
    return (
        _make_skeleton_function,
        skeleton_args,
        state,
        None,
        None,
        _apply_function_state,
    )


def _restore_shuffled_rdd(
    context, cls, rdd_id, shuffle_id, partitioner, aggregator, cached, name
):
    rdd = cls.__new__(cls)
    rdd.context = context
    rdd.id = rdd_id
    rdd.parents = ()
    rdd.partitioner = partitioner
    rdd._cached = cached
    rdd.name = name
    rdd._aggregator = aggregator
    rdd._shuffle_id = shuffle_id
    return rdd


class TaskPickler(pickle.Pickler):
    """Pickler that knows the engine's driver-resident objects.

    While dumping it *collects* what the payload depends on: the
    broadcasts and accumulators it references and the shuffle ids whose
    map outputs the driver must materialize before dispatch.
    """

    def __init__(self, file, context) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._context = context
        self.shuffle_ids: set[int] = set()
        self.broadcasts: dict[int, Broadcast] = {}
        self.accumulators: dict[int, Accumulator] = {}

    def persistent_id(self, obj):
        """Replace context/broadcast/accumulator refs with stable ids."""
        if obj is self._context:
            return ("context",)
        if isinstance(obj, Broadcast):
            self.broadcasts[obj.id] = obj
            return ("broadcast", obj.id)
        if isinstance(obj, Accumulator):
            self.accumulators[obj.id] = obj
            return ("accumulator", obj.id)
        # Tracers and injectors are per-process runtime services; a task
        # that (indirectly) references them gets the worker's own.
        from repro.obs.tracer import NullTracer, Tracer

        if isinstance(obj, (Tracer, NullTracer)):
            return ("tracer",)
        from repro.chaos.injector import FaultInjector

        if isinstance(obj, FaultInjector):
            return ("injector",)
        return None

    def reducer_override(self, obj):
        """Serialize closures by value and cut lineage at shuffles."""
        if isinstance(obj, types.FunctionType) and not _importable(obj):
            return _reduce_dynamic_function(obj)
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if isinstance(obj, ShuffledRDD):
            # Cut the lineage at the shuffle boundary: the map side runs
            # driver-side, workers fetch buckets over their pipe.
            self.shuffle_ids.add(obj._shuffle_id)
            return (
                _restore_shuffled_rdd,
                (
                    obj.context,
                    type(obj),
                    obj.id,
                    obj._shuffle_id,
                    obj.partitioner,
                    obj._aggregator,
                    obj._cached,
                    obj.name,
                ),
            )
        return NotImplemented


class TaskUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent ids against a worker runtime."""

    def __init__(self, file, resolver: Callable[[tuple], Any]) -> None:
        super().__init__(file)
        self._resolver = resolver

    def persistent_load(self, pid):
        """Resolve a :meth:`TaskPickler.persistent_id` tag to the live object."""
        return self._resolver(pid)


def _dump(context, obj, what: str) -> tuple[bytes, TaskPickler]:
    buffer = io.BytesIO()
    pickler = TaskPickler(buffer, context)
    try:
        pickler.dump(obj)
    except TaskSerializationError:
        raise
    except Exception as exc:
        raise TaskSerializationError(
            f"cannot ship {what} to worker processes: "
            f"{type(exc).__name__}: {exc}.  Tasks under executor='processes' "
            "may only close over picklable data, importable callables, "
            "broadcasts and accumulators; side effects on captured objects "
            "do not propagate back (use an accumulator)."
        ) from exc
    return buffer.getvalue(), pickler


def serialize_task(context, rdd, fn) -> TaskPayload:
    """Pickle ``(rdd, fn)`` once for a whole job, with its dependencies."""
    label = f"{type(rdd).__name__}[{rdd.id}]"
    data, pickler = _dump(context, (rdd, fn), f"task for {label}")
    shuffle_ids = set(pickler.shuffle_ids)
    accumulators = dict(pickler.accumulators)
    pending = dict(pickler.broadcasts)
    blobs: dict[int, bytes] = {}
    while pending:
        bid, broadcast = pending.popitem()
        if bid in blobs:
            continue
        shipped = getattr(broadcast, "_shipped", None)
        if shipped is None:
            blob, vp = _dump(
                context, broadcast.value, f"broadcast {bid} for {label}"
            )
            shipped = (blob, set(vp.shuffle_ids), dict(vp.broadcasts), dict(vp.accumulators))
            broadcast._shipped = shipped
        blob, nested_shuffles, nested_broadcasts, nested_accumulators = shipped
        blobs[bid] = blob
        shuffle_ids |= nested_shuffles
        accumulators.update(nested_accumulators)
        for nested_id, nested in nested_broadcasts.items():
            if nested_id not in blobs:
                pending[nested_id] = nested
    return TaskPayload(
        payload_id=next(_payload_ids),
        data=data,
        broadcasts=blobs,
        accumulators=accumulators,
        shuffle_ids=tuple(sorted(shuffle_ids)),
    )


def deserialize(blob: bytes, resolver: Callable[[tuple], Any]):
    """Worker-side inverse of :func:`serialize_task` / broadcast dumps."""
    return TaskUnpickler(io.BytesIO(blob), resolver).load()

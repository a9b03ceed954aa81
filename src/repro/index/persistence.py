"""Persistent indexing: save per-partition index rows, reload them as trees.

Reproduces the paper's third indexing mode (section 2.2): an indexed
RDD -- one partition-local tree per partition -- is saved by one program
and loaded by another.  The paper writes the trees as binary objects,
because a JVM reads one back cheaply.  Here unpickling a tree's nodes
cost more than bulk-loading it again from its entries, so a saved index
*is* its entries: :func:`save_index` writes each partition's
``(STObject, V)`` rows in :meth:`~repro.index.rtree.STRTree.items` order
as the part-files, and the same rows again to ``_rows_copy``, the
recovery copy.  :class:`ResilientIndexRDD` bulk-loads each tree from its
rows in the saved mode and capacity; rebuilt from that order it is the
tree that was saved, so a reloaded index answers with the same lists.
The partitioner and the partition *summaries* are stored in
``_index_meta.pkl``, so a reloaded index prunes before opening a tree.

Loading degrades instead of dying on damage:

- a part that cannot be read (or a fault injected at the ``index.load``
  site) is read from the recovery copy: exact results, counted in
  ``metrics.index_fallbacks``, listed in the RDD's ``fallbacks`` and
  recorded as an ``index.fallback`` span;
- the metadata is a CRC32 of its pickle followed by the pickle; any
  damage degrades to an unpartitioned load (pruning disabled, trees
  built as ``spatial``, queries still exact).  Which files are read is
  decided by the directory's names alone, never by the metadata;
- a directory in the older tree layout holds pickled trees beside a
  ``_data`` sidecar of ``(Envelope, item)`` entry lists.  Its trees are
  never unpickled: every partition is read from ``_data``, as a fallback;
- when a part and its recovery data are both unreadable the load fails
  with a :class:`~repro.spark.storage.StorageError` naming the path;
- metadata naming a mode this version does not build (``temporal``, the
  time-sliced forest earlier versions saved) fails the load with a
  :class:`~repro.spark.storage.StorageError` naming the mode.

A loaded index lives where any persisted RDD's blocks live: in the
context's block cache, freed by ``unpersist()``.
"""

from __future__ import annotations

import os
import pickle
import zlib
from typing import TYPE_CHECKING, Iterator

from repro.index import INDEX_MODES, build_partition_index
from repro.index.rtree import DEFAULT_NODE_CAPACITY, STRTree
from repro.spark import storage
from repro.spark.rdd import RDD
from repro.spark.storage import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext

_META_FILE = "_index_meta.pkl"
#: The recovery copy: the same ``(STObject, V)`` rows as the parts.
_ROWS_COPY_DIR = "_rows_copy"
#: The tree layout's sidecar: per partition, one row of ``(Envelope,
#: item)`` entry lists, beside part-files of pickled trees.
_TREE_SIDECAR_DIR = "_data"


def save_index(
    indexed_rdd: RDD,
    path: str,
    partitioner=None,
    order: int | None = None,
    summaries: list | None = None,
    mode: str | None = None,
) -> None:
    """Persist an RDD of per-partition index trees as their rows, twice:
    the part-files and the ``_rows_copy`` recovery copy.  *order* (the
    node capacity), *mode* and the partition *summaries* go to the
    metadata."""
    rows = indexed_rdd.flat_map(lambda tree: tree.items())
    rows.save_as_object_file(path)
    rows.save_as_object_file(os.path.join(path, _ROWS_COPY_DIR))
    _write_meta(path, dict(partitioner=partitioner, order=order, mode=mode,
                           summaries=summaries))


def _write_meta(path: str, meta: dict) -> None:
    """Durably write *meta* as a little-endian CRC32 of its pickle,
    followed by the pickle itself."""
    blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    meta_path = os.path.join(path, _META_FILE)
    tmp = meta_path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(zlib.crc32(blob).to_bytes(4, "little"))
        f.write(blob)
    storage.durable_replace(tmp, meta_path)


def _read_meta(path: str) -> dict:
    """Read the metadata file; any damage raises :class:`StorageError`.

    The checksum guards the summaries and partitioner that prune whole
    partitions: a flipped byte that still unpickles must not drop real
    matches, so it is rejected like one that does not.
    """
    meta_path = os.path.join(path, _META_FILE)
    if not os.path.exists(meta_path):
        return {}
    try:
        with open(meta_path, "rb") as f:
            raw = f.read()
        blob = raw[4:]
        if zlib.crc32(blob) != int.from_bytes(raw[:4], "little"):
            raise StorageError("checksum mismatch")
        return pickle.loads(blob)
    except Exception as exc:
        raise StorageError(f"corrupt index metadata {meta_path!r}: {exc}") from exc


def _read_rows(part: str) -> list:
    """A rows part-file's ``(STObject, V)`` rows; :class:`StorageError`
    if it cannot be read or holds something else (such as trees)."""
    rows = storage.read_object_part(part)
    if type(rows) is not list or (rows and type(rows[0]) is not tuple):
        raise StorageError(f"index part {part!r} holds no (STObject, value) rows")
    return rows


def _read_tree_sidecar(part: str) -> list:
    """The items of a tree-layout ``_data`` part: its one row holds an
    ``(Envelope, item)`` entry list per tree."""
    (entry_lists,) = storage.read_object_part(part)
    return [item for entries in entry_lists for _env, item in entries]


class ResilientIndexRDD(RDD[STRTree]):
    """Reads a saved index's rows and bulk-loads one tree per partition,
    in the saved *mode* and capacity *order* (``spatial`` and the default
    capacity when none is recorded)."""

    def __init__(
        self,
        context,
        path: str,
        order: int | None = None,
        mode: str | None = None,
    ) -> None:
        super().__init__(context)
        self._path = path
        self._parts = storage._list_parts(path, ".pkl")
        self._order = order or DEFAULT_NODE_CAPACITY
        self._mode = mode or "spatial"
        sidecar = os.path.join(path, _TREE_SIDECAR_DIR)
        #: Whether the part-files hold pickled trees, which are never read.
        self._tree_layout = os.path.isdir(sidecar)
        #: ``(directory, reader)`` of the recovery data.
        self._recovery = (
            (sidecar, _read_tree_sidecar) if self._tree_layout
            else (os.path.join(path, _ROWS_COPY_DIR), _read_rows)
        )
        #: Splits that were read from recovery data, not from their part.
        self.fallbacks: list[int] = []

    @property
    def num_partitions(self) -> int:
        return len(self._parts)

    def compute(self, split: int) -> Iterator[STRTree]:
        part = os.path.join(self._path, self._parts[split])
        try:
            if self._tree_layout:
                raise StorageError(f"index part {part!r} holds a pickled tree")
            injector = self.context.fault_injector
            if injector is not None:
                injector.check("index.load", key=(part, split))
            rows = _read_rows(part)
        except Exception as exc:
            rows = self._recover(split, part, exc)
        return iter([build_partition_index(rows, self._order, self._mode)])

    def _recover(self, split: int, part: str, cause: Exception) -> list:
        """The partition's rows, read from its recovery data."""
        directory, read = self._recovery
        try:
            rows = read(os.path.join(directory, f"part-{split:05d}.pkl"))
        except Exception:
            # Missing or damaged too: nothing left to recover from.
            if isinstance(cause, StorageError):
                raise cause
            raise StorageError(
                f"unreadable index part {part!r} and no recovery data: {cause}"
            ) from cause
        self.context.metrics.index_fallbacks += 1
        self.fallbacks.append(split)
        tracer = self.context.tracer
        if tracer.enabled:
            with tracer.span("index.fallback", split=split, path=part, entries=len(rows)):
                pass
        return rows


def load_index(
    context: "SparkContext", path: str
) -> tuple[RDD, list | None, str | None]:
    """Load a persisted index: (trees, summaries, mode); the trees carry
    the partitioner they were laid out by.

    Damage is absorbed where possible: corrupt metadata degrades to an
    unpartitioned load with pruning disabled (recorded on the trace as
    ``index.meta_fallback`` and in ``metrics.index_fallbacks``), and
    unreadable parts are read from the recovery data (see
    :class:`ResilientIndexRDD`).  The summaries are ``None`` when the
    directory records none (or as many as it no longer has parts): they
    are an optimisation, and can always be measured again from the trees.
    An index saved in a mode this version does not build is refused here,
    with a :class:`StorageError` naming the mode, not at its first query.
    """
    try:
        meta = _read_meta(path)
    except StorageError:
        # Pruning metadata is an optimization; queries stay exact
        # without it, so a damaged meta file must not block the load.
        meta = {}
        context.metrics.index_fallbacks += 1
        if context.tracer.enabled:
            with context.tracer.span(
                "index.meta_fallback", path=os.path.join(path, _META_FILE)
            ):
                pass
    mode = meta.get("mode")
    if mode is not None and mode not in INDEX_MODES:
        raise StorageError(
            f"index {path!r} was saved in mode {mode!r}, which this version "
            f"cannot build; known: {INDEX_MODES}"
        )
    rdd = ResilientIndexRDD(context, path, order=meta.get("order"), mode=mode)
    rdd.partitioner = meta.get("partitioner")
    summaries = meta.get("summaries")
    if summaries is not None and len(summaries) != rdd.num_partitions:
        summaries = None  # stale metadata; pruning must stay conservative
    return rdd, summaries, mode

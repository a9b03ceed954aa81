"""Persistent indexing: save and reload per-partition R-trees.

Reproduces the paper's third indexing mode (section 2.2): an indexed
RDD -- an RDD whose elements are partition-local STR-trees -- is written
as binary objects ("using Spark's method to save binary objects") and
can be loaded by the same or another program without rebuilding.

The partitioner and the per-partition *summaries* (what each tree
covers in space and time) are stored alongside the trees, so a reloaded
index prunes whole partitions before a single tree is opened.

Fault model
-----------
A persisted index is the one artifact the paper's multi-program workflow
shares across runs, so loading degrades gracefully instead of dying on
damage:

- :func:`save_index` additionally writes a ``_data`` sidecar directory
  holding each partition's raw ``(envelope, item)`` entries;
- :class:`ResilientIndexRDD` reads tree part-files lazily and, when a
  part is truncated/corrupt (or a fault is injected at the
  ``index.load`` site), **rebuilds that partition's index live** from
  the sidecar, in the mode the metadata records -- exact query results,
  one partition's build cost.
  Each fallback is counted in ``metrics.index_fallbacks`` and recorded
  as an ``index.fallback`` span in the trace;
- ``_index_meta.pkl`` is written through
  :func:`~repro.spark.storage.durable_replace` behind a CRC32 of its
  pickled bytes; a missing file, a checksum mismatch or any failure to
  read it degrades to an unpartitioned load (pruning disabled, queries
  still exact) instead of raising or pruning on damaged summaries;
- only when a part is corrupt *and* no recovery data exists does the
  load fail, with a :class:`~repro.spark.storage.StorageError` naming
  the path (pre-sidecar layouts written by older versions);
- pickled tree parts have the shape of the kernel's node layout, so the
  metadata records :data:`INDEX_LAYOUT`.  A directory whose metadata
  names another layout -- or none, or is unreadable -- is never
  unpickled: every partition takes the sidecar rebuild above (the
  sidecar's ``(Envelope, item)`` rows do not depend on the layout), or
  fails with the same :class:`~repro.spark.storage.StorageError`.

A loaded index lives where any persisted RDD's blocks live: in the
context's block cache, freed by ``unpersist()``.
"""

from __future__ import annotations

import os
import pickle
import zlib
from typing import TYPE_CHECKING, Iterator

from repro.index import build_partition_index
from repro.index.rtree import DEFAULT_NODE_CAPACITY, STRTree
from repro.spark import storage
from repro.spark.rdd import RDD
from repro.spark.storage import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.context import SparkContext

_META_FILE = "_index_meta.pkl"
_DATA_DIR = "_data"

#: Version of the pickled tree layout; bump it with every change to the
#: shape of :mod:`repro.index.rtree`'s nodes or of a tree object.
#: 3 = an ``STRTree3D`` keeps its untimed entries in a second, 2D root;
#: 2 = ``_Node(leaf, rows)`` over float-tuple boxes (1, unrecorded, was
#: one ``Envelope`` per node).
INDEX_LAYOUT = 3


def save_index(
    indexed_rdd: RDD,
    path: str,
    partitioner=None,
    order: int | None = None,
    summaries: list | None = None,
    mode: str | None = None,
) -> None:
    """Persist an RDD of per-partition index trees plus its partitioner.

    Alongside the pickled trees, every partition's raw entries are
    written to a ``_data`` sidecar so a damaged tree part can be rebuilt
    live on load.  *order* (the tree's node capacity), the index *mode*
    and the partition *summaries* (one per partition) are stored in the
    metadata; the summaries power whole-partition pruning after a reload.
    """
    indexed_rdd.save_as_object_file(path)

    def extract_entries(trees: Iterator[STRTree]) -> Iterator[list]:
        # One row per partition: the entry lists of its trees, in order.
        yield [list(tree.iter_entries()) for tree in trees]

    indexed_rdd.map_partitions(extract_entries).save_as_object_file(
        os.path.join(path, _DATA_DIR)
    )
    _write_meta(
        path,
        {
            "partitioner": partitioner,
            "order": order,
            "mode": mode,
            "summaries": summaries,
            "layout": INDEX_LAYOUT,
        },
    )


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


class ResilientIndexRDD(RDD[STRTree]):
    """Reads persisted trees with per-partition live-rebuild fallback.

    Layout-compatible with plain ``object_file`` directories: without a
    ``_data`` sidecar it behaves like :class:`ObjectFileRDD` (corrupt
    parts raise :class:`StorageError`); with one, damaged partitions are
    rebuilt from their raw entries in the saved *mode* (``spatial`` when
    none is recorded).
    """

    def __init__(
        self,
        context,
        path: str,
        order: int | None = None,
        layout: int | None = None,
        mode: str | None = None,
    ) -> None:
        super().__init__(context)
        self._path = path
        self._parts = storage._list_parts(path, ".pkl")
        self._order = order or DEFAULT_NODE_CAPACITY
        self._mode = mode or "spatial"
        #: The layout version the directory's metadata declares.
        self._layout = layout
        data_dir = os.path.join(path, _DATA_DIR)
        self._data_dir = data_dir if os.path.isdir(data_dir) else None
        #: Splits that were rebuilt live instead of unpickled.
        self.fallbacks: list[int] = []

    @property
    def num_partitions(self) -> int:
        return len(self._parts)

    def compute(self, split: int) -> Iterator[STRTree]:
        part = os.path.join(self._path, self._parts[split])
        if self._layout != INDEX_LAYOUT:
            stale = StorageError(
                f"index part {part!r} has tree layout {self._layout!r}, "
                f"this version reads layout {INDEX_LAYOUT}"
            )
            return iter(self._rebuild_live(split, part, stale))
        try:
            injector = self.context.fault_injector
            if injector is not None:
                injector.check("index.load", key=(part, split))
            trees = storage.read_object_part(part)
        except Exception as exc:
            return iter(self._rebuild_live(split, part, exc))
        return iter(trees)

    def _rebuild_live(self, split: int, part: str, cause: Exception) -> list[STRTree]:
        """Build the partition's trees from the recovery sidecar."""
        entry_lists = self._load_recovery_entries(split)
        if entry_lists is None:
            if isinstance(cause, StorageError):
                raise cause
            raise StorageError(
                f"unreadable index part {part!r} and no recovery data: {cause}"
            ) from cause
        self.context.metrics.index_fallbacks += 1
        self.fallbacks.append(split)
        tracer = self.context.tracer
        if tracer.enabled:
            with tracer.span(
                "index.fallback",
                split=split,
                path=part,
                entries=sum(len(entries) for entries in entry_lists),
            ):
                return self._build_trees(entry_lists)
        return self._build_trees(entry_lists)

    def _build_trees(self, entry_lists: list[list]) -> list[STRTree]:
        return [
            build_partition_index(
                [item for _envelope, item in entries], self._order, self._mode
            )
            for entries in entry_lists
        ]

    def _load_recovery_entries(self, split: int) -> list[list] | None:
        """The sidecar's entry lists for *split*, or None if unavailable."""
        if self._data_dir is None:
            return None
        data_part = os.path.join(self._data_dir, f"part-{split:05d}.pkl")
        if not os.path.exists(data_part):
            return None
        try:
            rows = storage.read_object_part(data_part)
        except StorageError:
            return None  # sidecar damaged too; nothing left to recover from
        return rows[0] if rows else []


def load_index(
    context: "SparkContext", path: str
) -> tuple[RDD, list | None, str | None]:
    """Load a persisted index: (trees, summaries, mode); the trees carry
    the partitioner they were laid out by.

    Damage is absorbed where possible: corrupt metadata degrades to an
    unpartitioned load with pruning disabled (recorded on the trace as
    ``index.meta_fallback`` and in ``metrics.index_fallbacks``), and
    corrupt tree parts rebuild live per partition (see
    :class:`ResilientIndexRDD`).  The summaries are ``None`` when the
    directory records none (or as many as it no longer has parts): they
    are an optimisation, and can always be measured again from the trees.
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
    rdd = ResilientIndexRDD(
        context,
        path,
        order=meta.get("order"),
        layout=meta.get("layout"),
        mode=meta.get("mode"),
    )
    rdd.partitioner = meta.get("partitioner")
    summaries = meta.get("summaries")
    if summaries is not None and len(summaries) != rdd.num_partitions:
        summaries = None  # stale metadata; pruning must stay conservative
    return rdd, summaries, meta.get("mode")

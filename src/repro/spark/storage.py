r"""Object and text file storage -- the HDFS stand-in.

The paper's workflow (Fig. 2) stores partitioned/indexed RDDs as binary
objects on HDFS and reloads them in later programs.  Here a "file" is a
directory of ``part-NNNNN`` files, one per partition, written with
pickle.  Reading an object file restores the exact partitioning, which
is what makes persisted spatial indexes reusable.

Writes are atomic *and durable*, like a Hadoop output committer backed
by a real filesystem: part-files land in a ``path + "._tmp"`` staging
directory, every part, the ``_SUCCESS`` marker and the staging
directory itself are ``fsync``\ ed, and only then is the staging
directory committed with ``os.replace`` and the parent directory
``fsync``\ ed -- so a save that returned cannot vanish on power loss,
and a crashed or aborted save leaves nothing behind at ``path``.  Write
tasks are idempotent (a retried task rewrites its own part-file), and
corrupt part-files surface as :class:`StorageError` naming the
offending path rather than raw pickle internals.

The ``fsync`` calls all route through :func:`fsync_file` /
:func:`fsync_dir`, which consult an installable hook
(:func:`set_fsync_hook`): the chaos crash harness uses it to simulate a
process kill between any two fsyncs, which is how the checkpoint and
recovery layers prove their commit protocols ordered their barriers
correctly.
"""

from __future__ import annotations

import os
import pickle
import re
import shutil
import threading
from typing import Any, Callable, Iterator, TypeVar

from repro.spark.rdd import RDD

T = TypeVar("T")

_PART_RE = re.compile(r"^part-(\d{5})(\.pkl|\.txt)$")
_SUCCESS_MARKER = "_SUCCESS"
_TMP_SUFFIX = "._tmp"

#: Called as ``hook(label)`` immediately before every fsync this module
#: (and the layers built on it) performs; the chaos crash harness
#: installs a counter here that raises at a chosen ordinal.
_fsync_hook: Callable[[str], None] | None = None
_fsync_hook_lock = threading.Lock()


def set_fsync_hook(hook: Callable[[str], None] | None) -> Callable[[str], None] | None:
    """Install (or clear, with None) the pre-fsync hook; returns the old one.

    The hook runs with the label of the path about to be synced, before
    the actual ``os.fsync``.  Raising from the hook aborts the sync --
    the crash harness raises :class:`~repro.chaos.crash.SimulatedCrash`
    to model a kill at exactly that durability barrier.
    """
    global _fsync_hook
    with _fsync_hook_lock:
        previous = _fsync_hook
        _fsync_hook = hook
    return previous


def fsync_file(path: str) -> None:
    """Flush one file's contents to stable storage (hook-aware).

    Opens the file read-only and fsyncs the descriptor -- the pattern
    for files already closed by their writer.  Callers holding an open
    handle should instead ``flush()`` and fsync the handle's fileno
    (see ``_fsync_handle``); both routes honour the crash-harness hook.
    """
    hook = _fsync_hook
    if hook is not None:
        hook(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str) -> None:
    """Flush one directory's entries to stable storage (hook-aware).

    A rename is durable only once the directory that *names* the file
    is synced; committing a staging directory therefore fsyncs both the
    directory itself (its part-file entries) and, after the rename, the
    parent (the new name).
    """
    hook = _fsync_hook
    if hook is not None:
        hook(path + "/")
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_handle(fh, label: str) -> None:
    """Flush and fsync an open writable handle (hook-aware)."""
    hook = _fsync_hook
    if hook is not None:
        hook(label)
    fh.flush()
    os.fsync(fh.fileno())


def durable_replace(tmp: str, final: str) -> None:
    """Commit *tmp* to *final*: fsync tmp, ``os.replace``, fsync parent.

    The three-step commit protocol every atomic directory (or file)
    write in the system funnels through: contents first, then the
    atomic rename, then the parent directory entry -- after which the
    commit survives power loss.  ``os.replace`` rather than
    ``os.rename`` for cross-platform overwrite semantics.
    """
    if os.path.isdir(tmp):
        fsync_dir(tmp)
    else:
        fsync_file(tmp)
    os.replace(tmp, final)
    parent = os.path.dirname(os.path.abspath(final))
    fsync_dir(parent)


class StorageError(IOError):
    """Raised for malformed or incomplete stored RDD directories."""


def _part_name(split: int, suffix: str) -> str:
    return f"part-{split:05d}{suffix}"


def _list_parts(path: str, suffix: str) -> list[str]:
    if not os.path.isdir(path):
        raise StorageError(f"{path!r} is not a stored-RDD directory")
    if not os.path.exists(os.path.join(path, _SUCCESS_MARKER)):
        raise StorageError(f"{path!r} has no _SUCCESS marker (incomplete write?)")
    parts = sorted(
        name for name in os.listdir(path)
        if (m := _PART_RE.match(name)) and m.group(2) == suffix
    )
    if not parts:
        raise StorageError(f"{path!r} contains no {suffix} part-files")
    return parts


def _commit_write(rdd: RDD[T], path: str, write_partition) -> None:
    """Run the write job against a staging dir, then durably commit.

    ``write_partition(tmp_dir, split, it)`` writes (and fsyncs) one
    part-file into the staging directory.  The commit then fsyncs the
    ``_SUCCESS`` marker, the staging directory, replaces it into place
    and fsyncs the parent -- the full barrier sequence, so a save that
    returned survives power loss.  On any failure the staging directory
    is removed, so the target path stays untouched and a follow-up
    retry of the whole save starts clean.
    """
    if os.path.exists(path):
        raise StorageError(f"output path {path!r} already exists")
    tmp = path + _TMP_SUFFIX
    if os.path.exists(tmp):
        # Stale staging dir from a crashed writer; safe to discard.
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    try:
        # Drain through a job so every partition is written exactly once
        # per successful attempt (a retried task rewrites its own part).
        rdd.map_partitions_with_index(
            lambda split, it: write_partition(tmp, split, it)
        ).count()
        marker = os.path.join(tmp, _SUCCESS_MARKER)
        with open(marker, "w") as f:
            _fsync_handle(f, marker)
        durable_replace(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def save_object_file(rdd: RDD[T], path: str) -> None:
    """Write one pickle part-file per partition, then a success marker.

    Refuses to overwrite an existing directory, like Hadoop output
    committers do; partial output from a failed save is rolled back.
    """

    def write_partition(tmp: str, split: int, it: Iterator[T]):
        injector = rdd.context.fault_injector
        if injector is not None:
            injector.check("storage.write", key=(path, split))
        part = os.path.join(tmp, _part_name(split, ".pkl"))
        with open(part, "wb") as f:
            pickle.dump(list(it), f, protocol=pickle.HIGHEST_PROTOCOL)
            _fsync_handle(f, part)
        return iter(())

    _commit_write(rdd, path, write_partition)


def save_text_file(rdd: RDD[T], path: str) -> None:
    """Write ``str(element)`` lines, one part-file per partition."""

    def write_partition(tmp: str, split: int, it: Iterator[T]):
        injector = rdd.context.fault_injector
        if injector is not None:
            injector.check("storage.write", key=(path, split))
        part = os.path.join(tmp, _part_name(split, ".txt"))
        with open(part, "w") as f:
            for row in it:
                f.write(str(row))
                f.write("\n")
            _fsync_handle(f, part)
        return iter(())

    _commit_write(rdd, path, write_partition)


def read_object_part(part: str) -> list:
    """Unpickle one part-file, mapping corruption to :class:`StorageError`.

    A damaged pickle can raise almost anything from deep inside the
    pickle module -- ``UnpicklingError``, ``EOFError``, but also
    ``AttributeError`` or ``ModuleNotFoundError`` for a name that does
    not resolve, ``UnicodeDecodeError``, ``ValueError`` -- so every
    exception the load raises reaches callers (and their retry loops)
    as one typed error naming the path.  The file is read whole first:
    a damaged length field is then checked against the bytes there are,
    instead of sizing a read from the file.
    """
    with open(part, "rb") as f:
        blob = f.read()
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise StorageError(f"corrupt part-file {part!r}: {exc!r}") from exc


class ObjectFileRDD(RDD[Any]):
    """Reads a ``save_object_file`` directory; one part-file per partition."""

    def __init__(self, context, path: str) -> None:
        super().__init__(context)
        self._path = path
        self._parts = _list_parts(path, ".pkl")

    @property
    def num_partitions(self) -> int:
        return len(self._parts)

    def compute(self, split: int) -> Iterator[Any]:
        part = os.path.join(self._path, self._parts[split])
        injector = self.context.fault_injector
        if injector is not None:
            injector.check("storage.read", key=(part, split))
        return iter(read_object_part(part))


class TextFileRDD(RDD[str]):
    """Reads a plain text file (or part-file directory) as lines.

    A single file is sliced into ``num_slices`` byte ranges aligned to
    line boundaries; a directory contributes one partition per part.
    """

    def __init__(self, context, path: str, num_slices: int) -> None:
        super().__init__(context)
        if num_slices < 1:
            raise ValueError("need at least 1 slice")
        self._splits: list[tuple[str, int, int]] = []
        if os.path.isdir(path):
            for name in _list_parts(path, ".txt"):
                full = os.path.join(path, name)
                self._splits.append((full, 0, os.path.getsize(full)))
        else:
            size = os.path.getsize(path)
            step = max(1, size // num_slices)
            offsets = list(range(0, size, step))[:num_slices]
            for i, start in enumerate(offsets):
                end = offsets[i + 1] if i + 1 < len(offsets) else size
                self._splits.append((path, start, end))

    @property
    def num_partitions(self) -> int:
        return max(1, len(self._splits))

    def compute(self, split: int) -> Iterator[str]:
        if not self._splits:
            return iter(())
        path, start, end = self._splits[split]
        injector = self.context.fault_injector
        if injector is not None:
            injector.check("storage.read", key=(path, split))
        return self._read_range(path, start, end)

    @staticmethod
    def _read_range(path: str, start: int, end: int) -> Iterator[str]:
        # Hadoop-style split semantics: a split owns every line that
        # *starts* within [start, end); the first split also owns the
        # file's first line.
        with open(path, "rb") as f:
            if start > 0:
                f.seek(start - 1)
                f.readline()  # skip the partial line owned by the previous split
            while f.tell() < end:
                line = f.readline()
                if not line:
                    break
                yield line.decode("utf-8").rstrip("\n")


def object_file_rdd(context, path: str) -> RDD[Any]:
    """An RDD over pickle part-files written by :func:`save_object_file`."""
    return ObjectFileRDD(context, path)


def text_file_rdd(context, path: str, num_slices: int) -> RDD[str]:
    """An RDD of lines from a text file or directory of part-files."""
    return TextFileRDD(context, path, num_slices)

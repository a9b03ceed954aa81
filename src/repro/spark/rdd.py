"""The RDD abstraction: lazy, partitioned, immutable collections.

An :class:`RDD` is a node in a lineage DAG.  Transformations build new
nodes without computing anything; actions walk the lineage and execute
one task per partition through the context's scheduler.  The subset
implemented here is the one STARK's operators, the baselines, Piglet
and the examples are written against.

Key-value functionality (``reduceByKey``, ``join``, ``partitionBy``,
...) is available on any RDD whose elements are 2-tuples, mirroring
Spark's implicit ``PairRDDFunctions`` conversion.
"""

from __future__ import annotations

import bisect
import itertools
import random
import weakref
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Iterable,
    Iterator,
    Optional,
    TypeVar,
)

from repro.spark.cache import collector_paused
from repro.spark.cancellation import Heartbeat, current_token
from repro.spark.partitioner import HashPartitioner, Partitioner

if TYPE_CHECKING:
    from repro.spark.context import SparkContext

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


class RDD(ABC, Generic[T]):
    """Base class for all RDDs.

    Subclasses implement :meth:`compute` (produce one partition's
    elements) and :attr:`num_partitions`.  Everything else -- the full
    transformation/action API, caching, lineage bookkeeping -- lives
    here.
    """

    def __init__(
        self,
        context: "SparkContext",
        parents: Iterable["RDD"] = (),
        partitioner: Optional[Partitioner] = None,
    ) -> None:
        self.context = context
        self.id = context._next_rdd_id()
        self.parents = tuple(parents)
        #: The partitioner that co-locates this RDD's keys, if any.
        #: Set for shuffled RDDs and preserved through ``mapValues`` &co.
        self.partitioner = partitioner
        self._cached = False
        self.name: str | None = None

    # -- subclass contract -------------------------------------------------

    @property
    @abstractmethod
    def num_partitions(self) -> int:
        """Number of partitions (a.k.a. splits)."""

    @abstractmethod
    def compute(self, split: int) -> Iterator[T]:
        """Produce the elements of partition *split*."""

    # -- caching -----------------------------------------------------------

    def persist(self) -> "RDD[T]":
        """Mark this RDD's partitions for in-memory caching.

        The first computation of each partition materializes it; later
        computations reuse the cached list.  Matches Spark's
        ``MEMORY_ONLY`` level (the only one a single process needs).
        The blocks live as long as this RDD object: once it is garbage-
        collected nothing can look them up again, so they are dropped --
        an operator that caches an intermediate RDD per call (the join's
        right-side trees, DBSCAN's local clusterings) releases it when
        its result goes away.
        """
        if not self._cached:
            self._cached = True
            weakref.finalize(self, self.context._cache.discard, self.id).atexit = False
        return self

    cache = persist

    def unpersist(self) -> "RDD[T]":
        """Drop this RDD's cached partitions, and every persisted RDD the
        driver memoized over them (its partition indexes)."""
        self._cached = False
        self.context._cache.evict_rdd(self.id)
        memo = self.__dict__.get("_driver_memo", {})
        for key in [k for k, v in memo.items() if isinstance(v, RDD)]:
            memo.pop(key).unpersist()
        return self

    def iterator(self, split: int) -> Iterator[T]:
        """Compute a partition, transparently consulting the cache.

        A persisted split is computed once, with the cyclic collector
        paused (:func:`~repro.spark.cache.collector_paused`): a
        concurrent reader waits for the one computing it (cancellably)
        and counts a hit.  If that compute raises, nothing is cached and
        a waiter computes the split itself.
        """
        if not self._cached:
            return self.compute(split)
        injector = self.context.fault_injector
        if injector is not None:
            # A lost cache block surfaces as a task failure; the retried
            # attempt recomputes the partition from lineage.
            injector.check("cache.get", key=(self.id, split))
        cache = self.context._cache
        while True:
            hit, computing = cache.claim(self.id, split)
            if hit is not None:
                self.context.metrics.cache_hits += 1
                if self.context.tracer.enabled:
                    # Attributes the hit to the consuming task's span.
                    self.context.tracer.add("cache_hits", 1)
                return iter(hit)
            if computing is None:
                break
            token = current_token()
            while not computing.wait(None if token is None else 0.05):
                token.check()
        try:
            with collector_paused():
                data = list(self.compute(split))
        except BaseException:
            cache.abandon(self.id, split)
            raise
        cache.put(self.id, split, data)
        return iter(data)

    def set_name(self, name: str) -> "RDD[T]":
        """Attach a debug name (shown in ``toDebugString``)."""
        self.name = name
        return self

    # -- narrow transformations ---------------------------------------------

    def map(self, fn: Callable[[T], U]) -> "RDD[U]":
        """Apply *fn* to every element."""
        return MapPartitionsRDD(self, lambda _split, it: map(fn, it))

    def filter(self, pred: Callable[[T], bool]) -> "RDD[T]":
        """Keep elements for which *pred* is true."""
        return MapPartitionsRDD(
            self, lambda _split, it: filter(pred, it), preserves_partitioning=True
        )

    def flat_map(self, fn: Callable[[T], Iterable[U]]) -> "RDD[U]":
        """Apply *fn* and flatten the results."""
        return MapPartitionsRDD(
            self, lambda _split, it: itertools.chain.from_iterable(map(fn, it))
        )

    def map_partitions(
        self,
        fn: Callable[[Iterator[T]], Iterable[U]],
        preserves_partitioning: bool = False,
    ) -> "RDD[U]":
        """Apply *fn* once per partition."""
        return MapPartitionsRDD(
            self, lambda _split, it: fn(it), preserves_partitioning
        )

    def map_partitions_with_index(
        self,
        fn: Callable[[int, Iterator[T]], Iterable[U]],
        preserves_partitioning: bool = False,
    ) -> "RDD[U]":
        """Like :meth:`map_partitions` but *fn* also receives the split id."""
        return MapPartitionsRDD(self, fn, preserves_partitioning)

    def glom(self) -> "RDD[list[T]]":
        """Turn each partition into a single list element."""
        return MapPartitionsRDD(self, lambda _split, it: iter([list(it)]))

    def key_by(self, fn: Callable[[T], K]) -> "RDD[tuple[K, T]]":
        """Pair every element with ``fn(element)`` as its key."""
        return self.map(lambda x: (fn(x), x))

    def zip_with_index(self) -> "RDD[tuple[T, int]]":
        """Pair every element with its global index (stable order)."""
        counts = self.context.run_job(self, lambda it: sum(1 for _ in it))
        offsets = [0]
        for c in counts[:-1]:
            offsets.append(offsets[-1] + c)

        def attach(split: int, it: Iterator[T]) -> Iterator[tuple[T, int]]:
            return ((x, offsets[split] + i) for i, x in enumerate(it))

        return MapPartitionsRDD(self, attach)

    def union(self, other: "RDD[T]") -> "RDD[T]":
        """Concatenate two RDDs (duplicates preserved, like Spark)."""
        return UnionRDD(self.context, [self, other])

    def cartesian(self, other: "RDD[U]") -> "RDD[tuple[T, U]]":
        """All pairs of elements from the two RDDs."""
        return CartesianRDD(self, other)

    def sample(
        self, fraction: float, seed: int = 17, with_replacement: bool = False
    ) -> "RDD[T]":
        """Bernoulli (or Poisson-ish) sample of roughly ``fraction`` of rows."""
        if fraction < 0:
            raise ValueError("fraction must be non-negative")

        def sampler(split: int, it: Iterator[T]) -> Iterator[T]:
            rng = random.Random(seed * 1_000_003 + split)
            if with_replacement:
                whole, rest = int(fraction), fraction - int(fraction)
                for x in it:
                    copies = whole + (1 if rng.random() < rest else 0)
                    for _ in range(copies):
                        yield x
            else:
                for x in it:
                    if rng.random() < fraction:
                        yield x

        return MapPartitionsRDD(self, sampler, preserves_partitioning=True)

    def distinct(self) -> "RDD[T]":
        """Remove duplicates (requires hashable elements)."""
        paired = self.map(lambda x: (x, None))
        return paired.reduce_by_key(lambda a, _b: a).keys()

    def sort_by(
        self,
        key_fn: Callable[[T], Any],
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD[T]":
        """Globally sort by ``key_fn`` using sampled range boundaries."""
        n_out = num_partitions or max(1, self.num_partitions)
        sample = self.map(key_fn).collect_sample(max(n_out * 20, 100))
        sample.sort()
        bounds = [
            sample[int(len(sample) * i / n_out)]
            for i in range(1, n_out)
        ] if sample else []

        part = _RangePartitioner(bounds, ascending)
        keyed = self.map(lambda x: (key_fn(x), x))
        shuffled = ShuffledRDD(keyed, part)

        def sort_partition(it: Iterator[tuple[Any, T]]) -> Iterator[tuple[Any, T]]:
            rows = sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            return iter(rows)

        return shuffled.map_partitions(sort_partition, True).values()

    def collect_sample(self, target: int) -> list[T]:
        """A cheap sample of up to roughly *target* elements (internal)."""
        total = self.count()
        if total == 0:
            return []
        fraction = min(1.0, target / total)
        sampled = self.sample(fraction).collect()
        return sampled if sampled else self.take(min(total, target))

    # -- pair-RDD transformations -------------------------------------------

    def keys(self) -> "RDD[Any]":
        """The first element of every (key, value) pair."""
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD[Any]":
        """The second element of every (key, value) pair."""
        return MapPartitionsRDD(
            self, lambda _split, it: (kv[1] for kv in it), preserves_partitioning=False
        )

    def map_values(self, fn: Callable[[V], U]) -> "RDD[tuple[K, U]]":
        """Transform values only; key partitioning is preserved."""
        return MapPartitionsRDD(
            self,
            lambda _split, it: ((k, fn(v)) for k, v in it),
            preserves_partitioning=True,
        )

    def flat_map_values(self, fn: Callable[[V], Iterable[U]]) -> "RDD[tuple[K, U]]":
        """Expand each value to zero or more, keeping its key and
        the key partitioning."""
        return MapPartitionsRDD(
            self,
            lambda _split, it: ((k, u) for k, v in it for u in fn(v)),
            preserves_partitioning=True,
        )

    def partition_by(self, partitioner: Partitioner) -> "RDD[tuple[K, V]]":
        """Redistribute (key, value) pairs according to *partitioner*.

        This is the method STARK's spatial partitioners are applied
        through.  A no-op (no shuffle) when the RDD already carries an
        equal partitioner.
        """
        if self.partitioner is not None and self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def combine_by_key(
        self,
        create_combiner: Callable[[V], U],
        merge_value: Callable[[U, V], U],
        merge_combiners: Callable[[U, U], U],
        partitioner: Partitioner | None = None,
    ) -> "RDD[tuple[K, U]]":
        """The general shuffle-based aggregation all others reduce to."""
        # Default reduce-side width follows the context's parallelism
        # (Spark's spark.default.parallelism), NOT the parent's partition
        # count: a fine-grained parent (e.g. a 64x64 tile join) must not
        # force thousands of reduce tasks on every downstream shuffle.
        part = partitioner or HashPartitioner(self.context.default_parallelism)
        return ShuffledRDD(
            self,
            part,
            aggregator=_Aggregator(create_combiner, merge_value, merge_combiners),
        )

    def reduce_by_key(
        self, fn: Callable[[V, V], V], partitioner: Partitioner | None = None
    ) -> "RDD[tuple[K, V]]":
        """Merge each key's values with an associative *fn* (shuffles)."""
        return self.combine_by_key(lambda v: v, fn, fn, partitioner)

    def group_by_key(
        self, partitioner: Partitioner | None = None
    ) -> "RDD[tuple[K, list[V]]]":
        """Collect each key's values into one list (shuffles)."""
        return self.combine_by_key(
            lambda v: [v],
            lambda acc, v: acc + [v],
            lambda a, b: a + b,
            partitioner,
        )

    def group_by(
        self, key_fn: Callable[[T], K], partitioner: Partitioner | None = None
    ) -> "RDD[tuple[K, list[T]]]":
        """Group elements by ``key_fn(element)`` (shuffles)."""
        return self.map(lambda x: (key_fn(x), x)).group_by_key(partitioner)

    def join(
        self, other: "RDD[tuple[K, U]]", partitioner: Partitioner | None = None
    ) -> "RDD[tuple[K, tuple[V, U]]]":
        """Inner equi-join on keys."""
        return self.cogroup(other, partitioner).flat_map_values(
            lambda pair: [(v, u) for v in pair[0] for u in pair[1]]
        )

    def cogroup(
        self, other: "RDD[tuple[K, U]]", partitioner: Partitioner | None = None
    ) -> "RDD[tuple[K, tuple[list[V], list[U]]]]":
        """Group both RDDs' values per key into a pair of lists."""
        part = partitioner or HashPartitioner(self.context.default_parallelism)
        left = self.map_values(lambda v: (0, v))
        right = other.map_values(lambda u: (1, u))
        tagged = left.union(right)

        def create(v: tuple[int, Any]) -> tuple[list, list]:
            groups: tuple[list, list] = ([], [])
            groups[v[0]].append(v[1])
            return groups

        def merge_value(acc: tuple[list, list], v: tuple[int, Any]):
            acc[v[0]].append(v[1])
            return acc

        def merge_combiners(a: tuple[list, list], b: tuple[list, list]):
            a[0].extend(b[0])
            a[1].extend(b[1])
            return a

        return tagged.combine_by_key(create, merge_value, merge_combiners, part)

    # -- actions -------------------------------------------------------------

    def collect(self) -> list[T]:
        """Materialize every element in partition order."""
        chunks = self.context.run_job(self, list)
        return [x for chunk in chunks for x in chunk]

    def count(self) -> int:
        """Number of elements."""
        return sum(self.context.run_job(self, lambda it: sum(1 for _ in it)))

    def take(self, n: int) -> list[T]:
        """The first *n* elements, computing as few partitions as possible.

        Each probed partition runs as a one-task job through the
        context's scheduler (like Spark's incremental ``take`` jobs), so
        job/task accounting, tracing and nested-job detection all see
        the same state as any other action.
        """
        if n <= 0:
            return []
        out: list[T] = []
        for split in range(self.num_partitions):
            needed = n - len(out)
            chunk = self.context.run_job(
                self,
                lambda it: list(itertools.islice(it, needed)),
                partitions=[split],
            )[0]
            out.extend(chunk)
            if len(out) >= n:
                break
        return out

    def foreach_partition(self, fn: Callable[[Iterator[T]], None]) -> None:
        """Run *fn* once per partition iterator for its side effects."""
        self.context.run_job(self, lambda it: fn(it))

    def save_as_object_file(self, path: str) -> None:
        """Write each partition as a pickle part-file under *path*.

        The stand-in for ``saveAsObjectFile`` to HDFS that STARK's
        persistent indexing relies on (paper section 2.2).
        """
        from repro.spark import storage

        storage.save_object_file(self, path)

    def save_as_text_file(self, path: str) -> None:
        """Write ``str(element)`` lines, one part-file per partition."""
        from repro.spark import storage

        storage.save_text_file(self, path)

    # -- introspection -------------------------------------------------------

    def to_debug_string(self, _indent: int = 0) -> str:
        """Render the lineage tree, one node per line."""
        label = f"({self.num_partitions}) {type(self).__name__}[{self.id}]"
        if self.name:
            label += f" {self.name}"
        lines = [" " * _indent + label]
        for parent in self.parents:
            lines.append(parent.to_debug_string(_indent + 2))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self.id}] ({self.num_partitions} partitions)"


# ---------------------------------------------------------------------------
# concrete RDDs
# ---------------------------------------------------------------------------


class ParallelCollectionRDD(RDD[T]):
    """An RDD over an in-memory sequence, sliced into N partitions."""

    def __init__(self, context, data: Iterable[T], num_slices: int) -> None:
        super().__init__(context)
        items = list(data)
        if num_slices < 1:
            raise ValueError("need at least 1 slice")
        self._slices: list[list[T]] = [[] for _ in range(num_slices)]
        # Contiguous slicing (like Spark) keeps input order stable.
        n = len(items)
        for i in range(num_slices):
            start = i * n // num_slices
            end = (i + 1) * n // num_slices
            self._slices[i] = items[start:end]

    @property
    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, split: int) -> Iterator[T]:
        return iter(self._slices[split])


class MapPartitionsRDD(RDD[U]):
    """Applies a function to each parent partition (narrow dependency)."""

    def __init__(
        self,
        parent: RDD[T],
        fn: Callable[[int, Iterator[T]], Iterable[U]],
        preserves_partitioning: bool = False,
    ) -> None:
        super().__init__(
            parent.context,
            [parent],
            partitioner=parent.partitioner if preserves_partitioning else None,
        )
        self._fn = fn

    @property
    def num_partitions(self) -> int:
        return self.parents[0].num_partitions

    def compute(self, split: int) -> Iterator[U]:
        return iter(self._fn(split, self.parents[0].iterator(split)))


class UnionRDD(RDD[T]):
    """Concatenation of several RDDs; partitions are stacked in order."""

    def __init__(self, context, rdds: list[RDD[T]]) -> None:
        super().__init__(context, rdds)
        self._offsets: list[tuple[RDD[T], int]] = [
            (rdd, split) for rdd in rdds for split in range(rdd.num_partitions)
        ]

    @property
    def num_partitions(self) -> int:
        return len(self._offsets)

    def compute(self, split: int) -> Iterator[T]:
        rdd, parent_split = self._offsets[split]
        return rdd.iterator(parent_split)


class CartesianRDD(RDD[tuple]):
    """All (left, right) element pairs; one task per partition pair."""

    def __init__(self, left: RDD, right: RDD) -> None:
        super().__init__(left.context, [left, right])
        self._left = left
        self._right = right

    @property
    def num_partitions(self) -> int:
        return self._left.num_partitions * self._right.num_partitions

    def compute(self, split: int) -> Iterator[tuple]:
        right_n = self._right.num_partitions
        left_split, right_split = divmod(split, right_n)
        left_rows = list(self._left.iterator(left_split))
        # n*m pairs per task; poll so a cancelled task stops promptly.
        heartbeat = Heartbeat(every=1024)
        for right_row in self._right.iterator(right_split):
            for left_row in left_rows:
                heartbeat.beat()
                yield (left_row, right_row)


class PartitionPruningRDD(RDD[T]):
    """Exposes only a subset of the parent's partitions.

    This is how STARK's operators skip partitions whose bounds/extent
    cannot contribute to a query: the pruned partitions are never
    computed at all.
    """

    def __init__(self, parent: RDD[T], partition_ids: Iterable[int]) -> None:
        super().__init__(parent.context, [parent])
        self._ids = sorted(set(partition_ids))
        for pid in self._ids:
            if not 0 <= pid < parent.num_partitions:
                raise IndexError(
                    f"partition {pid} out of range 0..{parent.num_partitions - 1}"
                )
        #: How many parent partitions this node hides (trace attribution).
        self.pruned_count = parent.num_partitions - len(self._ids)
        self.context.metrics.partitions_pruned += self.pruned_count
        if self.context.tracer.enabled and self.pruned_count:
            self.context.tracer.add("partitions_pruned", self.pruned_count)

    @property
    def num_partitions(self) -> int:
        return len(self._ids)

    def compute(self, split: int) -> Iterator[T]:
        return self.parents[0].iterator(self._ids[split])


class _Aggregator:
    """Map-side + reduce-side combine logic for :class:`ShuffledRDD`."""

    __slots__ = ("create_combiner", "merge_value", "merge_combiners")

    def __init__(self, create_combiner, merge_value, merge_combiners) -> None:
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners


class ShuffledRDD(RDD[tuple]):
    """A wide dependency: repartition (key, value) pairs by a partitioner.

    Map outputs are materialized once per shuffle through the context's
    shuffle manager and then served to reduce tasks, mirroring Spark's
    hash shuffle.  With an aggregator, values are combined map-side and
    merged reduce-side (``reduceByKey`` semantics); without one, raw
    pairs pass through (``partitionBy`` semantics).
    """

    def __init__(
        self,
        parent: RDD[tuple],
        partitioner: Partitioner,
        aggregator: _Aggregator | None = None,
    ) -> None:
        super().__init__(parent.context, [parent], partitioner=partitioner)
        self._aggregator = aggregator
        shuffle = parent.context._shuffle
        self._shuffle_id = shuffle.register(parent, partitioner, aggregator)
        # The registration (which pins the parent lineage) and the map
        # outputs are reachable through this RDD alone.
        weakref.finalize(self, shuffle.discard, self._shuffle_id).atexit = False

    @property
    def num_partitions(self) -> int:
        assert self.partitioner is not None
        return self.partitioner.num_partitions

    def compute(self, split: int) -> Iterator[tuple]:
        rows = self.context._shuffle.fetch(self._shuffle_id, split)
        if self._aggregator is None:
            return iter(rows)
        merged: dict = {}
        agg = self._aggregator
        for k, combined in rows:
            if k in merged:
                merged[k] = agg.merge_combiners(merged[k], combined)
            else:
                merged[k] = combined
        return iter(merged.items())


class _IdentityPartitioner(Partitioner):
    """Routes integer keys directly to partitions (internal)."""

    def __init__(self, num_partitions: int) -> None:
        self._n = num_partitions

    @property
    def num_partitions(self) -> int:
        return self._n

    def get_partition(self, key: int) -> int:
        return key % self._n


class _RangePartitioner(Partitioner):
    """Routes ordered keys to partitions by sampled boundaries (sortBy)."""

    def __init__(self, bounds: list, ascending: bool) -> None:
        self._bounds = bounds
        self._ascending = ascending

    @property
    def num_partitions(self) -> int:
        return len(self._bounds) + 1

    def get_partition(self, key) -> int:
        idx = bisect.bisect_right(self._bounds, key)
        if not self._ascending:
            idx = len(self._bounds) - idx
        return idx

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is _RangePartitioner
            and other._bounds == self._bounds
            and other._ascending == self._ascending
        )

    def __hash__(self) -> int:
        return hash((tuple(self._bounds), self._ascending))

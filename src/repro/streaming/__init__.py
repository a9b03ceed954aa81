"""Micro-batch spatio-temporal event streaming.

The event-processing layer of the reproduction: STARK runs its
operators over Spark Streaming's discretized-stream model, and this
package is that model over the local batch engine.  A
:class:`StreamingContext` wraps a :class:`~repro.spark.context.
SparkContext` and chops unbounded sources into micro-batches; each
batch flows through lazy :class:`DStream` transformation chains whose
spatial face (:class:`SpatialDStream`) carries the paper's predicate
filters, stream-static joins against a broadcast R-tree, and
event-time windows over which the batch kNN and DBSCAN operators run
unchanged.

There is one window state.  ``window()``, ``continuous()`` and
``patterns()`` all hold their records once each in a grid-keyed
:class:`KeyedStateStore`; :class:`KeyedWindowState` keeps the
watermark, lateness and late counters over it, a closing window is a
*view* over the store, and :class:`StateConsumer` (``window()`` and
``continuous()``) and :class:`CepConsumer` share one store-backed
consumer core (:mod:`repro.streaming.state`).

With a ``checkpoint_dir`` the stream is crash-recoverable: polled
batches are journaled to a CRC-framed write-ahead log before they touch
state, the full streaming state checkpoints atomically on a batch
cadence, and :meth:`StreamingContext.restore` resumes a freshly
declared pipeline by replaying the WAL tail -- with an emitted-window
ledger suppressing re-delivery of windows the crashed run already
emitted (:mod:`repro.streaming.checkpoint`,
:mod:`repro.streaming.recovery`).  Durable per-window sinks with
commit-marker dedup live in :mod:`repro.streaming.sinks`.

Under overload the bounded pending-batch queue blocks the poller
(``backpressure_waits``); failures that a sink or an operator actually
raises are contained: a sink's :class:`CircuitBreaker` routes
undeliverable windows to a durable dead-letter queue
(:mod:`repro.streaming.dlq`) that :func:`dlq_replay` drains once the
sink heals, and a poison record that crashes a transformation chain on
its own is quarantined there with provenance.

Patterns *across* events -- geofence entry/exit sequences, absent
heartbeats per region, windowed counts and aggregates with spatial
guards -- are the CEP layer (:mod:`repro.streaming.cep`): declarative
rules built with :func:`sequence` / :func:`absence` / :func:`count` /
:func:`aggregate` register through :meth:`SpatialDStream.patterns` and
match incrementally with their state in the same keyed store,
checkpointed and recovered like every other consumer.

Typical use::

    from repro.spark.context import SparkContext
    from repro.streaming import StreamingContext

    sc = SparkContext(parallelism=4)
    ssc = StreamingContext(sc, batch_interval=0.1)
    source, events = ssc.queue_stream()
    hotspots = events.window(length=10.0).hotspots(eps=1.0, min_pts=3)
    source.push(batch_of_records)
    ssc.run_batch(batch_time=0.0)
    ssc.stop()
"""

from repro.streaming.cep import (
    CepConsumer,
    EventPattern,
    Match,
    PatternStream,
    RuleError,
    absence,
    aggregate,
    brute_force_matches,
    count,
    sequence,
    step,
)
from repro.streaming.checkpoint import (
    CheckpointManager,
    WalCorruptionError,
    WalWriter,
    load_latest_checkpoint,
    read_wal,
)
from repro.streaming.context import (
    StreamingContext,
    StreamingError,
    StreamMetrics,
)
from repro.streaming.dlq import DeadLetterQueue, dlq_replay
from repro.streaming.recovery import RecoveryReport, build_snapshot
from repro.streaming.dstream import (
    ContinuousWindowedStream,
    DStream,
    Sink,
    SpatialDStream,
    SpatialWindowedStream,
    WindowedStream,
)
from repro.streaming.operators import (
    StaticPredicate,
    build_static_index,
    broadcast_static_index,
    relax_static,
    stream_static_join,
)
from repro.streaming.sinks import (
    CircuitBreaker,
    EventFileSink,
    WindowSink,
)
from repro.streaming.sources import (
    DirectorySource,
    GeneratorSource,
    QueueSource,
    StreamSource,
)
from repro.streaming.state import (
    CellState,
    ContinuousJoinStatic,
    ContinuousQuery,
    KeyedStateStore,
    KeyedWindowState,
    StateConsumer,
)
from repro.streaming.window import Window, WindowSpec, event_span

__all__ = [
    "StreamingContext",
    "StreamingError",
    "StreamMetrics",
    "DStream",
    "SpatialDStream",
    "WindowedStream",
    "SpatialWindowedStream",
    "ContinuousWindowedStream",
    "Sink",
    "CellState",
    "KeyedStateStore",
    "KeyedWindowState",
    "StateConsumer",
    "ContinuousQuery",
    "ContinuousJoinStatic",
    "Window",
    "WindowSpec",
    "event_span",
    "StreamSource",
    "QueueSource",
    "DirectorySource",
    "GeneratorSource",
    "StaticPredicate",
    "build_static_index",
    "broadcast_static_index",
    "relax_static",
    "stream_static_join",
    "CheckpointManager",
    "WalWriter",
    "WalCorruptionError",
    "read_wal",
    "load_latest_checkpoint",
    "RecoveryReport",
    "build_snapshot",
    "WindowSink",
    "EventFileSink",
    "CircuitBreaker",
    "DeadLetterQueue",
    "dlq_replay",
    "CepConsumer",
    "EventPattern",
    "Match",
    "PatternStream",
    "RuleError",
    "absence",
    "aggregate",
    "brute_force_matches",
    "count",
    "sequence",
    "step",
]

"""Timing helpers and the BSP budget shared by the benchmark suite and its
standalone runners."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


@dataclass
class BenchmarkResult:
    """One benchmark configuration's measurements."""

    label: str
    seconds: list[float] = field(default_factory=list)
    payload: Any = None

    @property
    def best(self) -> float:
        return min(self.seconds)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.seconds)


def time_call(
    fn: Callable[[], Any], repeats: int = 1, warmup: int = 0, label: str = ""
) -> BenchmarkResult:
    """Time ``fn()`` with optional warmup runs; keeps the last payload."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    result = BenchmarkResult(label=label or getattr(fn, "__name__", "call"))
    for _ in range(repeats):
        start = time.perf_counter()
        result.payload = fn()
        result.seconds.append(time.perf_counter() - start)
    return result


#: ``time_pair``'s samples per side, and the least time one sample lasts.
PAIR_SAMPLES = 5
PAIR_SAMPLE_S = 0.02


def time_pair(first: Callable[[], Any], second: Callable[[], Any]) -> tuple[float, float]:
    """The best per-call seconds of two callables, measured side by side.

    For comparing two timings of a few milliseconds each, where one
    best-of-3 per side lets a burst of host noise decide the order.
    Each sample repeats its callable until it lasts ``PAIR_SAMPLE_S``
    (the call count is fixed per side by a first run), the two sides'
    samples alternate so drift hits both alike, and each side keeps
    its best of ``PAIR_SAMPLES``.
    """
    calls = [_calls_per_sample(fn) for fn in (first, second)]
    best = [float("inf"), float("inf")]
    for _ in range(PAIR_SAMPLES):
        for side, fn in enumerate((first, second)):
            start = time.perf_counter()
            for _ in range(calls[side]):
                fn()
            best[side] = min(best[side], (time.perf_counter() - start) / calls[side])
    return best[0], best[1]


def _calls_per_sample(fn: Callable[[], Any]) -> int:
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-9)
    return max(1, math.ceil(PAIR_SAMPLE_S / once))


def bsp_budget(n: int) -> int:
    """The experiments' BSP cost budget for *n* records: a sixteenth of
    the data per partition, never below 64 (``max(64, n // 16)``)."""
    return max(64, n // 16)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned plain-text table (the benchmark report format)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

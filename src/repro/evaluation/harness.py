"""Timing helpers and the BSP budget shared by the benchmark suite and its
standalone runners."""

from __future__ import annotations

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

"""Human-readable rendering of a trace tree.

One line per span: indentation mirrors nesting, durations are printed
in the most readable unit, and attributes follow as ``key=value``
pairs.  A ``job`` line over a pruned RDD shows ``partitions_pruned``
directly, so a report of a filter/kNN run *is* the pruning story::

    knn 4.1ms strategy=two_phase k=3 partitions_pruned=21
      job 2.0ms op=knn.home tasks=1 partitions_pruned=15
        task 1.9ms split=0 records_in=57
      job 1.6ms op=knn.rest tasks=2 partitions_pruned=14
        task 0.8ms split=0 records_in=44
        task 0.7ms split=1 records_in=61
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Span, Tracer


def format_duration(seconds: float) -> str:
    """Render a duration with a unit matched to its magnitude."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attr(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(str(v) for v in value) + "]"
    return str(value)


def _is_troubled(span: "Span") -> bool:
    """Spans that failed, aborted, timed out, were cancelled or fell back."""
    return bool(
        span.attrs.get("failures")
        or span.attrs.get("aborted")
        or span.attrs.get("timeout")
        or span.attrs.get("cancelled")
        or span.name.endswith(".fallback")
    )


def render_span(span: "Span", indent: int = 0) -> list[str]:
    """Render one span and its subtree as indented text lines.

    Spans that failed, aborted, or degraded (task retries, job aborts,
    index fallbacks) are prefixed with ``!`` so a chaos run's trace
    shows its fault story at a glance.
    """
    attrs = " ".join(f"{k}={_format_attr(v)}" for k, v in span.attrs.items())
    marker = "! " if _is_troubled(span) else ""
    line = "  " * indent + f"{marker}{span.name} {format_duration(span.duration)}"
    if attrs:
        line += f" {attrs}"
    lines = [line]
    for child in span.children:
        lines.extend(render_span(child, indent + 1))
    return lines


def render_trace(tracer: "Tracer") -> str:
    """Render a tracer's whole tree (top-level spans, no synthetic root)."""
    lines: list[str] = []
    for top in tracer.root.children:
        lines.extend(render_span(top))
    return "\n".join(lines) if lines else "(no spans recorded)"

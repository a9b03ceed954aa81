"""Observability: execution tracing for jobs, shuffles, tasks and operators.

See :mod:`repro.obs.tracer` for the span model and
:mod:`repro.obs.report` for the text rendering.
"""

from repro.obs.report import (
    format_duration,
    render_span,
    render_trace,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "format_duration",
    "render_span",
    "render_trace",
]

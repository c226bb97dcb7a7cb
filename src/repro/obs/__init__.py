"""Unified observability: tracing, metrics export, profiling hooks.

The layer every other subsystem reports into:

- :class:`Tracer` / :class:`TraceSpan` — a hierarchical span tree
  (span ids, parent links, wall + CPU time, structured attributes)
  with JSONL export and a near-zero-overhead disabled path;
- :class:`MetricsRegistry` — counters, gauges, and exponential-bucket
  histograms; :meth:`MetricsRegistry.timed` records phase timings;
- :mod:`repro.obs.export` — JSONL and Prometheus text exposition
  exporters plus parsers (the round-trip the CI smoke validates);
- :class:`SamplingProfiler` — an opt-in periodic stack sampler;
- ``python -m repro.obs report trace.jsonl`` — render a recorded trace
  tree (optionally alongside an exported metrics file).

The trainer, evaluator, serving stack, and checkpoint manager all
accept an explicit ``tracer=``; when omitted they fall back to the
process-global tracer, which is **disabled by default** — enable it
with :func:`enable_tracing` (the ``--trace-out`` CLI flags do this).
A matching process-global :class:`MetricsRegistry` is always on: the
training loop, the evaluator and the serving stack record their phase
histograms (``trainer.*_seconds``, ``eval.*_seconds``,
``serve.*_seconds``) and counters into it.  For a per-run breakdown,
install a fresh registry with :func:`set_metrics` and print
``format_metrics_table(registry.snapshot())``.
"""

from __future__ import annotations

from typing import Optional

from .export import (
    atomic_write_text,
    parse_prometheus,
    read_trace,
    sanitize_metric_name,
    to_prometheus,
    validate_trace,
    write_metrics,
    write_metrics_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from .profiler import SamplingProfiler, profile
from .report import format_metrics_table, render_tree, trace_summary
from .spans import NOOP_SPAN, Tracer, TraceSpan, span_structure

_tracer = Tracer(enabled=False)
_metrics = MetricsRegistry()


def get_tracer() -> Tracer:
    """The process-global tracer (disabled unless enabled explicitly)."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-global tracer; returns the previous one."""
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous


def enable_tracing() -> Tracer:
    """Enable (and return) the process-global tracer."""
    _tracer.enabled = True
    return _tracer


def disable_tracing() -> Tracer:
    """Disable the process-global tracer (spans already recorded stay)."""
    _tracer.enabled = False
    return _tracer


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry (always live — a gauge set
    costs one lock + dict write, cheap enough to leave unconditional)."""
    return _metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the previous one."""
    global _metrics
    previous, _metrics = _metrics, registry
    return previous


def resolve_tracer(tracer: Optional[Tracer]) -> Tracer:
    """``tracer`` itself, or the process-global one when ``None``.

    The one-liner every instrumented component calls in ``__init__`` so
    explicit injection (tests) and ambient configuration (CLIs) share a
    code path.
    """
    return tracer if tracer is not None else _tracer


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SamplingProfiler",
    "TraceSpan",
    "Tracer",
    "atomic_write_text",
    "disable_tracing",
    "enable_tracing",
    "exponential_buckets",
    "format_metrics_table",
    "get_metrics",
    "get_tracer",
    "parse_prometheus",
    "profile",
    "read_trace",
    "render_tree",
    "resolve_tracer",
    "sanitize_metric_name",
    "set_metrics",
    "set_tracer",
    "span_structure",
    "to_prometheus",
    "trace_summary",
    "validate_trace",
    "write_metrics",
    "write_metrics_jsonl",
]

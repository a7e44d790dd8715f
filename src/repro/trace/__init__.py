"""Observability: hierarchical tracing spans, Chrome-trace export, and
cross-run bench trend tracking (DESIGN.md §7).

The three layers:

* :mod:`repro.trace.spans` — the :class:`Tracer` and the module-level
  :func:`span`/:func:`instant` call sites threaded through every engine
  (analyzer worklist, path enumeration, template compiles, kernel
  batches, sweep scenarios, service requests);
* :mod:`repro.trace.export` — Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto, the flat ``--trace-summary``
  aggregate, and the schema validator behind ``make service-smoke``;
* :mod:`repro.trace.trends` — the ``trend`` CLI subcommand's data
  layer: flattens every ``benchmarks/BENCH_*.json`` into one metric
  namespace and appends snapshots to ``BENCH_history.jsonl``.
"""

from .export import (
    SpanStats,
    aggregate_spans,
    chrome_trace_events,
    format_trace_summary,
    validate_trace,
    validate_trace_file,
    write_chrome_trace,
)
from .spans import (
    NULL_SCOPE,
    SpanRecord,
    Tracer,
    activate,
    current,
    disabled_site_cost,
    install,
    instant,
    span,
    uninstall,
)
from .trends import (
    HISTORY_FILE,
    TrendEntry,
    collect_metrics,
    flatten_numeric,
    format_trend_report,
    load_history,
    record_entry,
)

__all__ = [
    "HISTORY_FILE",
    "NULL_SCOPE",
    "SpanRecord",
    "SpanStats",
    "Tracer",
    "TrendEntry",
    "activate",
    "aggregate_spans",
    "chrome_trace_events",
    "collect_metrics",
    "current",
    "disabled_site_cost",
    "flatten_numeric",
    "format_trace_summary",
    "format_trend_report",
    "install",
    "instant",
    "load_history",
    "record_entry",
    "span",
    "uninstall",
    "validate_trace",
    "validate_trace_file",
    "write_chrome_trace",
]

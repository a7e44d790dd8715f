"""Observability: hierarchical tracing spans and Chrome-trace export
(DESIGN.md §7).

The two layers:

* :mod:`repro.trace.spans` — the :class:`Tracer` and the module-level
  :func:`span`/:func:`instant` call sites threaded through every engine
  (analyzer worklist, path enumeration, template compiles, kernel
  batches, sweep scenarios, service requests);
* :mod:`repro.trace.export` — Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto, the flat ``--trace-summary``
  aggregate, and the schema validator behind ``make service-smoke``.

Only a traced run writes or reads a trace, so :mod:`.export` loads on
first read of its names (DESIGN.md §8).
"""

from .._lazy import lazy_exports
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

__all__ = [
    "NULL_SCOPE",
    "SpanRecord",
    "SpanStats",
    "Tracer",
    "activate",
    "aggregate_spans",
    "chrome_trace_events",
    "current",
    "disabled_site_cost",
    "format_trace_summary",
    "install",
    "instant",
    "span",
    "uninstall",
    "validate_trace",
    "validate_trace_file",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, dict.fromkeys(
    ("SpanStats", "aggregate_spans", "chrome_trace_events",
     "format_trace_summary", "validate_trace", "validate_trace_file",
     "write_chrome_trace"), "export"))

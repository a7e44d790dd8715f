"""Benchmark harness: scenarios, comparison runner, table formatting."""

from .harness import (
    ComparisonRow,
    ErrorSummary,
    ModelEstimate,
    RuntimeRow,
    Scenario,
    model_delay,
    reference_delay,
    run_scenario,
    run_suite,
    runtime_comparison,
    summarize_errors,
    time_callable,
)
from .scenarios import cmos_scenarios, nmos_scenarios
from .tables import (
    format_comparison_table,
    format_error_summary,
    format_runtime_table,
    format_series,
)

__all__ = [
    "ComparisonRow",
    "ErrorSummary",
    "ModelEstimate",
    "RuntimeRow",
    "Scenario",
    "model_delay",
    "reference_delay",
    "run_scenario",
    "run_suite",
    "runtime_comparison",
    "summarize_errors",
    "time_callable",
    "cmos_scenarios",
    "nmos_scenarios",
    "format_comparison_table",
    "format_error_summary",
    "format_runtime_table",
    "format_series",
]

"""Batch scenario sweeps: many input vectors, one shared analyzer.

The subsystem behind the ``sweep`` CLI subcommand (see DESIGN.md §5b):
vector sources (:mod:`repro.batch.vectors`), the cache-sharing sweep
engine (:mod:`repro.batch.sweep`), and the summary/profile reports
(:mod:`repro.batch.report`).  The CLI parses ``--input`` tokens with
the vector grammar, so only :mod:`.vectors` loads with the package; the
engine and the reports load on first read of their names (DESIGN.md §8).
"""

from .._lazy import lazy_exports
from .vectors import (
    VECTOR_ORDERS,
    CartesianSweep,
    ExplicitVectors,
    RandomVectors,
    Vector,
    VectorSource,
    dump_vector_file,
    format_timing_token,
    format_vector_line,
    greedy_hamming_order,
    load_vector_file,
    order_vectors,
    pair_deltas,
    parse_timing_token,
    parse_vector_line,
    vector_delta,
)

__all__ = [
    "VECTOR_ORDERS",
    "CartesianSweep",
    "ExplicitVectors",
    "RandomVectors",
    "Vector",
    "VectorSource",
    "dump_vector_file",
    "format_timing_token",
    "format_vector_line",
    "greedy_hamming_order",
    "load_vector_file",
    "order_vectors",
    "pair_deltas",
    "parse_timing_token",
    "parse_vector_line",
    "vector_delta",
    "OrderStats",
    "ScenarioOutcome",
    "SweepResult",
    "run_scenarios",
    "run_sweep",
    "format_sweep_profile",
    "format_sweep_summary",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(("OrderStats", "ScenarioOutcome", "SweepResult",
                     "run_scenarios", "run_sweep"), "sweep"),
    **dict.fromkeys(("format_sweep_profile", "format_sweep_summary"),
                    "report"),
})

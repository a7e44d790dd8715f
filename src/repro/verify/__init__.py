"""Cross-engine conformance: differential fuzzing, metamorphic
invariants, and a failing-netlist shrinker.

The package closes the loop on the equivalence contracts the rest of the
repo asserts piecemeal (incremental == reference, delta == full sweep,
numpy ~= python kernel): it *generates* random switch-level netlists,
runs each through the whole engine-mode matrix,
compares every mode against its matched brute-force reference, layers
model-level metamorphic invariants on top, and delta-debugs any failure
down to a minimal ``.sim``/``.vec`` reproducer that ``repro verify
--replay`` re-runs.  See DESIGN.md §6.
"""

from .artifacts import emit_reproducer, load_reproducer
from .diff import Discrepancy, compare_outcomes
from .generate import FAMILIES, ConformanceCase, generate_case
from .invariants import check_invariants, check_tree_invariants
from .modes import (DEFAULT_MODE_NAMES, MODES, EngineMode, ModeOutcome,
                    default_modes, mode_from_name, parse_modes, run_mode)
from .runner import (CaseFailure, ConformanceConfig, ConformanceReport,
                     ConformanceRunner, check_case, format_verify_report)
from .shrink import shrink_case, subset_network

__all__ = [
    "FAMILIES",
    "ConformanceCase",
    "generate_case",
    "EngineMode",
    "ModeOutcome",
    "MODES",
    "DEFAULT_MODE_NAMES",
    "default_modes",
    "mode_from_name",
    "parse_modes",
    "run_mode",
    "Discrepancy",
    "compare_outcomes",
    "check_invariants",
    "check_tree_invariants",
    "ConformanceConfig",
    "ConformanceRunner",
    "ConformanceReport",
    "CaseFailure",
    "check_case",
    "format_verify_report",
    "shrink_case",
    "subset_network",
    "emit_reproducer",
    "load_reproducer",
]

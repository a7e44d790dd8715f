"""Cross-engine conformance: differential fuzzing, metamorphic
invariants, and a failing-netlist shrinker.

The package closes the loop on the equivalence contracts the rest of the
repo asserts piecemeal (delta == full sweep, any order == given order):
it *generates* random switch-level netlists, runs each through the whole
engine-mode matrix, compares every mode against the serial full-analysis
reference, layers invariants on top (the RC-tree kernel against its
O(N^2) scalar definition, and model-level metamorphic checks), and
delta-debugs any failure down to a minimal ``.sim``/``.vec`` reproducer
that ``repro verify --replay`` re-runs.  See DESIGN.md §6.
"""

from .artifacts import emit_reproducer, load_reproducer
from .diff import Discrepancy, compare_outcomes
from .generate import FAMILIES, ConformanceCase, generate_case
from .invariants import (check_invariants, check_kernel_invariant,
                         check_tree_invariants)
from .modes import (DEFAULT_MODE_NAMES, MODES, EngineMode, ModeOutcome,
                    default_modes, mode_from_name, parse_modes, run_mode)
from .runner import (CaseFailure, ConformanceConfig, ConformanceReport,
                     ConformanceRunner, check_case, format_verify_report,
                     replay_reproducer)
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
    "check_kernel_invariant",
    "check_tree_invariants",
    "ConformanceConfig",
    "ConformanceRunner",
    "ConformanceReport",
    "CaseFailure",
    "check_case",
    "format_verify_report",
    "replay_reproducer",
    "shrink_case",
    "subset_network",
    "emit_reproducer",
    "load_reproducer",
]

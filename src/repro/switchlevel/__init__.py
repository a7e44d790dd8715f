"""Switch-level (ternary, strength-based) logic simulation.

The timing engine reads only :class:`Logic`; the solver and the
simulator load on first read of their names (DESIGN.md §8).
"""

from .._lazy import lazy_exports
from .value import Logic, Strength, resolve

__all__ = [
    "Logic",
    "Strength",
    "resolve",
    "Conduction",
    "conduction_state",
    "solve_stage",
    "SimulationTrace",
    "SwitchSimulator",
    "exhaustive_truth_table",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(("Conduction", "conduction_state", "solve_stage"),
                    "solver"),
    **dict.fromkeys(("SimulationTrace", "SwitchSimulator",
                     "exhaustive_truth_table"), "simulator"),
})

"""RC-tree mathematics: Elmore delay, RPH bounds, exact step response,
compiled tree templates and the O(N) PRH kernel.

The exact step response (:mod:`.exact`) is the one part that needs
numpy; its names load on first read, so the timing engine never
imports it."""

from .._lazy import lazy_exports
from .tree import RCTree
from .elmore import TimeConstants, elmore_delay, lumped_time_constant, time_constants
from .bounds import DelayBounds, delay_bounds, delay_bounds_from_constants
from .kernel import StageConstants, compute_stage_constants
from .template import TreeTemplate

__all__ = [
    "RCTree",
    "StageConstants",
    "TimeConstants",
    "TreeTemplate",
    "compute_stage_constants",
    "elmore_delay",
    "lumped_time_constant",
    "time_constants",
    "DelayBounds",
    "delay_bounds",
    "delay_bounds_from_constants",
    "StepResponse",
    "exact_delay",
    "step_response",
]

#: Names that load numpy, resolved on first read (PEP 562).
__getattr__, __dir__ = lazy_exports(__name__, dict.fromkeys(
    ("StepResponse", "exact_delay", "step_response"), "exact"))

"""RC-tree mathematics: Elmore delay, RPH bounds, exact step response,
compiled tree templates and the O(N) PRH kernel."""

from .tree import RCTree
from .elmore import TimeConstants, elmore_delay, lumped_time_constant, time_constants
from .bounds import DelayBounds, delay_bounds, delay_bounds_from_constants
from .exact import StepResponse, exact_delay, step_response
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

"""RC-tree mathematics: Elmore delay, RPH bounds, exact step response,
compiled tree templates and the O(N) PRH kernel.

The exact step response (:mod:`.exact`) is the one part that needs
numpy; its names load on first read, so the timing engine never
imports it."""

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
_LAZY = {
    "StepResponse": "exact",
    "exact_delay": "exact",
    "step_response": "exact",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__),
                                      name)
    return value

"""The RC-tree model: Elmore delay plus Penfield-Rubinstein-Horowitz bounds.

The stage keeps its distributed structure: each device contributes its
static resistance as a tree edge, each node its capacitance.  The point
estimate is the Elmore delay ``T_D``; the reported ``lower``/``upper``
pair is the rigorous RPH bracket from :mod:`repro.rctree.bounds`.

Calibration note: the characterized static resistances are fitted so that
``R*C`` equals the measured 50% step delay of the reference stage, which
makes Elmore (not the 50%-threshold bracket midpoint) the consistent point
estimate — on a single-node stage it reproduces the reference exactly.
The RPH bracket is reported against the linear-RC idealization and is the
honest uncertainty band on distributed structures (pass chains), where the
model earns its keep over the lumped one.  ``point_estimate="midpoint"``
switches to the bracket midpoint for studies of the raw bounds.
"""

from __future__ import annotations

from ...rctree import delay_bounds_from_constants
from .base import DelayModel, StageDelay, StageRequest, default_step_slope_factor


class RCTreeModel(DelayModel):
    """Elmore + RPH bounds on the stage's RC tree."""

    name = "rc-tree"

    def __init__(self, threshold: float = 0.5,
                 point_estimate: str = "elmore"):
        if point_estimate not in ("midpoint", "elmore"):
            raise ValueError("point_estimate must be 'midpoint' or 'elmore'")
        self.threshold = threshold
        self.point_estimate = point_estimate

    def evaluate(self, request: StageRequest) -> StageDelay:
        constants = request.stage_constants()
        bounds = delay_bounds_from_constants(constants, self.threshold)
        if self.point_estimate == "midpoint":
            delay = bounds.midpoint()
        else:
            delay = constants.t_d
        slope = default_step_slope_factor() * max(constants.t_d, 1e-30)
        return StageDelay(
            delay=delay,
            output_slope=slope,
            lower=bounds.lower,
            upper=bounds.upper,
            model=self.name,
            details=(
                ("elmore", constants.t_d),
                ("t_p", constants.t_p),
                ("t_r", constants.t_r),
            ),
        )

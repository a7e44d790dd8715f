"""Common vocabulary of the delay models.

Every model in this package answers the same question the paper poses:

    *Given one stage — a resistive path from a source (rail or driven
    input) through transistor channels to a target node, with capacitance
    hanging off it — and the transition time ("slope") of the input event
    that fires it, when does the target cross the logic threshold, and how
    fast is its edge?*

The question is packaged as a :class:`StageRequest` (built by the timing
machinery in :mod:`repro.core.timing.paths`), and answered as a
:class:`StageDelay`.  Models differ only in how they use the request:

* :class:`~repro.core.models.lumped_rc.LumpedRCModel` — total R times
  total C;
* :class:`~repro.core.models.rc_tree_model.RCTreeModel` — Elmore delay
  with RPH bounds on the request's RC tree;
* :class:`~repro.core.models.slope.SlopeModel` — slope-ratio-dependent
  effective resistance with slope propagation (the paper's contribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ...errors import TimingError
from ...rctree import TimeConstants, TreeTemplate
from ...tech import DeviceKind, Technology, Transition


@dataclass(frozen=True)
class StageRequest:
    """One stage-delay question.

    Attributes
    ----------
    template:
        Compiled :class:`~repro.rctree.TreeTemplate` of the switching
        path's RC tree: rooted at the source (the rail or the driven
        input), edges carry *static* effective resistances for the
        requested transition, nodes carry the capacitance they must
        (dis)charge.  Side branches reachable through conducting devices
        are included — their capacitance loads the path.  The accessor
        methods below answer from the template's memoized kernel
        results.
    target:
        The output node whose crossing is asked about.
    transition:
        Direction of the output transition.
    trigger_kind:
        Device kind whose switching fires the stage (selects the slope
        table).  For pass-through propagation it is the first pass
        device's kind.
    input_slope:
        Full-swing-equivalent transition time of the firing input signal
        (seconds).  Zero means an ideal step.
    tech:
        The technology (supplies static resistances and slope tables).
    """

    template: TreeTemplate
    target: str
    transition: Transition
    trigger_kind: DeviceKind
    input_slope: float
    tech: Technology

    def __post_init__(self) -> None:
        if self.input_slope < 0:
            raise TimingError(f"negative input slope {self.input_slope!r}")
        if not self.template.contains(self.target):
            raise TimingError(
                f"target {self.target!r} is not in the request's RC tree"
            )

    def stage_constants(self) -> TimeConstants:
        """RPH time constants of the target node."""
        return self.template.constants_for(self.target)

    def path_resistance(self) -> float:
        """``R_ii`` from the source down to the target."""
        return self.template.path_resistance(self.target)

    def total_capacitance(self) -> float:
        """All capacitance hanging off the stage's tree."""
        return self.template.total_cap()


@dataclass(frozen=True)
class StageDelay:
    """One stage-delay answer.

    ``delay`` is the model's point estimate of the 50%-to-50% stage delay;
    ``output_slope`` is the full-swing-equivalent transition time of the
    output edge (what the next stage receives as its input slope).
    ``lower``/``upper`` are bounds when the model provides them (the
    RC-tree model reports the RPH bracket; point models repeat the
    estimate).
    """

    delay: float
    output_slope: float
    lower: float
    upper: float
    model: str
    details: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.output_slope < 0:
            raise TimingError("negative output slope")
        if not (self.lower <= self.upper + 1e-18):
            raise TimingError(
                f"inverted bounds: [{self.lower}, {self.upper}]"
            )


class DelayModel:
    """Interface implemented by the three models."""

    #: short identifier used in tables and reports
    name: str = "abstract"

    def evaluate(self, request: StageRequest) -> StageDelay:
        raise NotImplementedError

    def evaluate_many(self, requests: "List[StageRequest]"
                      ) -> "List[StageDelay]":
        """Answer a batch of stage questions (one result per request,
        in order).

        The analyzer's candidate loop hands every memo miss of a stage
        visit over in one call, so a model can amortize shared work
        across the batch; requests on one template already share its
        memoized kernel results, so the default sequential loop is the
        right implementation for all built-in models.
        """
        return [self.evaluate(request) for request in requests]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def default_step_slope_factor() -> float:
    """Output transition time of a single-pole RC stage driven by a step,
    as a multiple of its time constant: the 10-90% interval is ``ln 9`` of
    a tau, i.e. ``ln 9 / 0.8`` full-swing-equivalent."""
    import math

    return math.log(9.0) / 0.8

"""The engine-mode matrix: every way this library can compute arrivals.

An :class:`EngineMode` freezes one complete engine configuration —
a full analysis of every vector or dirty-cone delta re-analysis, and
the analysis order.  :func:`run_mode` executes one case under one mode
through the stock sweep engine (so the conformance runner exercises
exactly the code paths users hit) and reduces the result to a
comparable :class:`ModeOutcome`.

Every mode must be **bit-identical** to :data:`REFERENCE`, the serial
analysis of every vector in its given order, no delta — that is the
repo-wide equivalence contract of DESIGN.md §5b/§5e.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..batch import ExplicitVectors, run_sweep
from ..core.models import MODELS
from ..core.timing import (TimingAnalyzer, find_charge_sharing_hazards,
                           format_hazard_report)
from ..core.timing.analyzer import Arrival, Event
from ..errors import ReproError
from .generate import ConformanceCase

__all__ = ["EngineMode", "ModeOutcome", "MODES", "DEFAULT_MODE_NAMES",
           "REFERENCE", "default_modes", "parse_modes", "mode_from_name",
           "run_mode"]


@dataclass(frozen=True)
class EngineMode:
    """One frozen engine configuration."""

    name: str
    delta: bool = False
    order: str = "given"


#: The baseline every other mode is compared against.
REFERENCE = EngineMode(name="reference")

#: The stock matrix, in execution order.
MODES: Dict[str, EngineMode] = {
    mode.name: mode for mode in (
        REFERENCE,
        EngineMode(name="delta", delta=True),
        EngineMode(name="delta-greedy", delta=True, order="greedy"),
    )
}

DEFAULT_MODE_NAMES = tuple(MODES)


def default_modes() -> List[EngineMode]:
    return list(MODES.values())


def mode_from_name(name: str) -> EngineMode:
    """Resolve a registry mode name."""
    mode = MODES.get(name)
    if mode is None:
        raise ReproError(
            f"unknown engine mode {name!r}; choose from "
            f"{', '.join(MODES)} (or 'all')")
    return mode


def parse_modes(text: Optional[str]) -> List[EngineMode]:
    """CLI ``--modes`` value (comma-separated names, or ``all``); an
    empty list or a name given twice is refused."""
    if text is None or text.strip() == "all":
        return default_modes()
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ReproError(f"--modes {text!r} names no engine mode")
    for name in names:
        if names.count(name) > 1:
            raise ReproError(f"engine mode {name!r} given twice in --modes")
    return [mode_from_name(name) for name in names]


@dataclass
class ModeOutcome:
    """One case × mode execution, reduced to what comparisons need."""

    mode: EngineMode
    #: vector label -> the full arrival map of that vector's analysis
    arrivals: Dict[str, Mapping[Event, Arrival]]
    #: the charge-sharing hazard report of the case's network
    hazard_report: str
    #: vector label -> setup-check report (clocked cases only)
    setup_reports: Dict[str, str] = field(default_factory=dict)

    @property
    def labels(self) -> List[str]:
        return list(self.arrivals)


def _setup_report(case: ConformanceCase, result) -> str:
    from ..core.timing.clocking import setup_checks

    checks = setup_checks(case.network, result, case.clocks, case.schedule)
    return "\n".join(str(check) for check in checks)


def run_mode(case: ConformanceCase, mode: EngineMode,
             model_name: str = "slope") -> ModeOutcome:
    """Execute *case* under *mode* via the stock sweep engine."""
    model = MODELS[model_name]()
    analyzer = TimingAnalyzer(case.network, model=model)
    sweep = run_sweep(case.network, ExplicitVectors(list(case.vectors)),
                      analyzer=analyzer, delta=mode.delta,
                      order=mode.order)
    arrivals = {outcome.label: outcome.result.arrivals
                for outcome in sweep.outcomes}
    setup_reports = {}
    if case.clocks and case.schedule is not None:
        setup_reports = {outcome.label: _setup_report(case, outcome.result)
                         for outcome in sweep.outcomes}
    hazards = find_charge_sharing_hazards(case.network)
    return ModeOutcome(mode=mode, arrivals=arrivals,
                       hazard_report=format_hazard_report(hazards),
                       setup_reports=setup_reports)

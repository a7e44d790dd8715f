"""The engine-mode matrix: every way this library can compute arrivals.

An :class:`EngineMode` freezes one complete engine configuration —
incremental vs. brute-force reference, dirty-cone delta re-analysis,
analysis ordering, RC-tree kernel backend, slope quantization.
:func:`run_mode` executes one case under one mode through the stock
sweep engine (so the conformance runner exercises exactly the code paths
users hit) and reduces the result to a comparable :class:`ModeOutcome`.

Comparability rules (who must agree with whom, and how tightly):

* modes sharing a ``(kernel, slope_quantum)`` pair must be
  **bit-identical** to the brute-force reference of that pair
  (``incremental=False``, no delta) — that is the repo-wide
  equivalence contract of DESIGN.md §5b/§5e;
* the two kernels' references agree only to 1e-9 relative (different
  float evaluation order), mirroring ``tests/test_kernel_differential``;
* quantized modes are compared only against their matched quantized
  reference — quantization legitimately changes results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..batch import ExplicitVectors, run_sweep
from ..core.models import LumpedRCModel, RCTreeModel, SlopeModel
from ..core.timing import (TimingAnalyzer, find_charge_sharing_hazards,
                           format_hazard_report)
from ..core.timing.analyzer import Arrival, Event
from ..errors import ReproError
from .generate import ConformanceCase

__all__ = ["EngineMode", "ModeOutcome", "MODES", "DEFAULT_MODE_NAMES",
           "MODEL_FACTORIES", "default_modes", "parse_modes",
           "mode_from_name", "run_mode"]

#: Delay-model factories by CLI name (mirrors ``repro.cli.MODELS``).
MODEL_FACTORIES = {
    "lumped-rc": LumpedRCModel,
    "rc-tree": RCTreeModel,
    "slope": SlopeModel,
}


@dataclass(frozen=True)
class EngineMode:
    """One frozen engine configuration."""

    name: str
    incremental: bool = True
    delta: bool = False
    kernel: str = "numpy"
    slope_quantum: float = 0.0
    order: str = "given"

    @property
    def reference_key(self):
        """Modes sharing this key must agree bit-for-bit."""
        return (self.kernel, self.slope_quantum)

    @property
    def is_reference(self) -> bool:
        """True for a brute-force baseline configuration."""
        return (not self.incremental and not self.delta
                and self.order == "given")

    def reference(self) -> "EngineMode":
        """The matched brute-force baseline this mode must equal."""
        return EngineMode(name=reference_name(self.kernel,
                                              self.slope_quantum),
                          incremental=False, kernel=self.kernel,
                          slope_quantum=self.slope_quantum)


def reference_name(kernel: str, slope_quantum: float = 0.0) -> str:
    suffix = f",q={slope_quantum:g}" if slope_quantum else ""
    return f"reference[{kernel}{suffix}]"


#: The stock matrix, in execution order.
MODES: Dict[str, EngineMode] = {
    mode.name: mode for mode in (
        EngineMode(name="reference", incremental=False),
        EngineMode(name="incremental"),
        EngineMode(name="delta", delta=True),
        EngineMode(name="delta-greedy", delta=True, order="greedy"),
        EngineMode(name="python", kernel="python"),
        EngineMode(name="quantized", slope_quantum=0.05),
    )
}

DEFAULT_MODE_NAMES = tuple(MODES)


def default_modes() -> List[EngineMode]:
    return list(MODES.values())


def mode_from_name(name: str) -> EngineMode:
    """Resolve a mode name — registry entries plus the derived
    ``reference[kernel,q=…]`` baselines the runner synthesizes."""
    mode = MODES.get(name)
    if mode is not None:
        return mode
    if name.startswith("reference[") and name.endswith("]"):
        body = name[len("reference["):-1]
        kernel, _, quantum_text = body.partition(",q=")
        if kernel in ("numpy", "python"):
            try:
                quantum = float(quantum_text) if quantum_text else 0.0
            except ValueError:
                quantum = None
            if quantum is not None:
                return EngineMode(name=name, incremental=False,
                                  kernel=kernel, slope_quantum=quantum)
    raise ReproError(
        f"unknown engine mode {name!r}; choose from "
        f"{', '.join(MODES)} (or 'all')")


def parse_modes(text: Optional[str]) -> List[EngineMode]:
    """CLI ``--modes`` value (comma-separated names, or ``all``)."""
    if not text or text.strip() == "all":
        return default_modes()
    return [mode_from_name(part.strip()) for part in text.split(",")
            if part.strip()]


@dataclass
class ModeOutcome:
    """One case × mode execution, reduced to what comparisons need."""

    mode: EngineMode
    #: vector label -> the full arrival map of that vector's analysis
    arrivals: Dict[str, Dict[Event, Arrival]]
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
    model = MODEL_FACTORIES[model_name]()
    analyzer = TimingAnalyzer(case.network, model=model,
                              incremental=mode.incremental,
                              slope_quantum=mode.slope_quantum,
                              kernel=mode.kernel)
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

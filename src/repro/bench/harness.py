"""Model-versus-reference comparison harness.

A :class:`Scenario` bundles everything needed to measure one circuit both
ways: the netlist, the analog drive waveforms (for the reference
simulator), the timing-analyzer input specs, and which input/output edge
pair defines the delay.  :func:`run_scenario` produces a
:class:`ComparisonRow`; :func:`run_suite` maps a scenario list through all
three models, which is exactly how the T1/T2 tables are generated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analog import delay_between, simulate
from ..core.models import DelayModel, standard_models
from ..core.timing import InputSpec, TimingAnalyzer
from ..errors import AnalysisError
from ..netlist import Network
from ..switchlevel import Logic
from ..tech import Technology, Transition


@dataclass
class Scenario:
    """One measurable circuit + stimulus + observed edge."""

    name: str
    network: Network
    #: analog drives: node -> DriveWaveform / voltage
    drives: Mapping[str, object]
    #: timing-analyzer inputs: node -> InputSpec / time
    timing_inputs: Mapping[str, object]
    input_node: str
    input_edge: Transition
    output_node: str
    output_edge: Transition
    t_stop: float
    steps: int = 2500
    initial_conditions: Optional[Mapping[str, float]] = None
    #: sensitization states handed to the analyzer; computed automatically
    #: from the switch-level simulator when left None and auto_states is on
    states: Optional[Mapping[str, Logic]] = None
    initial_states: Optional[Mapping[str, Logic]] = None
    auto_states: bool = True
    notes: str = ""

    @property
    def tech(self) -> Technology:
        return self.network.tech


@dataclass
class ModelEstimate:
    model: str
    delay: float
    error: float  # signed fraction vs reference
    lower: Optional[float] = None
    upper: Optional[float] = None


@dataclass
class ComparisonRow:
    scenario: str
    reference: float
    estimates: List[ModelEstimate] = field(default_factory=list)

    def estimate(self, model_name: str) -> ModelEstimate:
        for est in self.estimates:
            if est.model == model_name:
                return est
        raise AnalysisError(f"no estimate for model {model_name!r}")


def reference_delay(scenario: Scenario) -> float:
    """Measure the scenario with the analog reference simulator."""
    result = simulate(
        scenario.network, scenario.drives, t_stop=scenario.t_stop,
        steps=scenario.steps,
        initial_conditions=scenario.initial_conditions,
    )
    return delay_between(
        result.waveform(scenario.input_node),
        result.waveform(scenario.output_node),
        scenario.tech.vdd,
        scenario.input_edge,
        scenario.output_edge,
    )


def scenario_states(scenario: Scenario) -> Tuple[Dict[str, Logic],
                                                 Dict[str, Logic]]:
    """Pre- and post-transition node states from the switch-level
    simulator — the sensitization data the timing analyzer prunes with
    (Crystal took the same information from esim or from the designer)."""
    from ..analog.sources import as_drive
    from ..switchlevel import SwitchSimulator

    vdd = scenario.tech.vdd

    def logic_of(voltage: float) -> Logic:
        return Logic.ONE if voltage >= 0.5 * vdd else Logic.ZERO

    overrides = {
        name: logic_of(value)
        for name, value in (scenario.initial_conditions or {}).items()
    }
    sim = SwitchSimulator(scenario.network, initial=overrides)
    for node, drive in scenario.drives.items():
        sim.set_input(node, logic_of(as_drive(drive).voltage(0.0)))
    sim.settle()
    pre = sim.values()
    for node, drive in scenario.drives.items():
        sim.set_input(node, logic_of(as_drive(drive).voltage(scenario.t_stop)))
    sim.settle()
    post = sim.values()
    return pre, post


def model_delay(scenario: Scenario, model: DelayModel) -> Tuple[float, object]:
    """Measure the scenario with one switch-level model."""
    states = scenario.states
    initial_states = scenario.initial_states
    if states is None and scenario.auto_states:
        initial_states, states = scenario_states(scenario)
    analyzer = TimingAnalyzer(scenario.network, model=model,
                              states=states, initial_states=initial_states)
    result = analyzer.analyze(scenario.timing_inputs)
    out = result.arrival(scenario.output_node, scenario.output_edge)
    start = result.arrival(scenario.input_node, scenario.input_edge)
    return out.time - start.time, out


def run_scenario(scenario: Scenario,
                 models: Optional[Sequence[DelayModel]] = None
                 ) -> ComparisonRow:
    """Reference + all models for one scenario."""
    if models is None:
        models = standard_models()
    reference = reference_delay(scenario)
    row = ComparisonRow(scenario=scenario.name, reference=reference)
    for model in models:
        delay, arrival = model_delay(scenario, model)
        stage = arrival.stage_delay
        row.estimates.append(ModelEstimate(
            model=model.name,
            delay=delay,
            error=(delay - reference) / reference if reference else math.inf,
            lower=stage.lower if stage else None,
            upper=stage.upper if stage else None,
        ))
    return row


def run_suite(scenarios: Sequence[Scenario],
              models: Optional[Sequence[DelayModel]] = None
              ) -> List[ComparisonRow]:
    return [run_scenario(s, models) for s in scenarios]


@dataclass
class ErrorSummary:
    """Aggregate statistics of one model over a suite (table T3)."""

    model: str
    mean_abs_error: float
    max_abs_error: float
    mean_signed_error: float
    rows: int


def summarize_errors(rows: Sequence[ComparisonRow]) -> List[ErrorSummary]:
    if not rows:
        return []
    by_model: Dict[str, List[float]] = {}
    for row in rows:
        for est in row.estimates:
            by_model.setdefault(est.model, []).append(est.error)
    summaries = []
    for model, errors in by_model.items():
        magnitudes = [abs(e) for e in errors]
        summaries.append(ErrorSummary(
            model=model,
            mean_abs_error=sum(magnitudes) / len(magnitudes),
            max_abs_error=max(magnitudes),
            mean_signed_error=sum(errors) / len(errors),
            rows=len(errors),
        ))
    return summaries


# ---------------------------------------------------------------------------
# Runtime comparison (table T4)
# ---------------------------------------------------------------------------

@dataclass
class RuntimeRow:
    circuit: str
    transistors: int
    analyzer_seconds: float
    simulator_seconds: Optional[float]  # None when too large to simulate

    @property
    def speedup(self) -> Optional[float]:
        if self.simulator_seconds is None or self.analyzer_seconds <= 0:
            return None
        return self.simulator_seconds / self.analyzer_seconds


def time_callable(fn: Callable[[], object], repeats: int = 1) -> float:
    best = math.inf
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def runtime_comparison(network: Network,
                       timing_inputs: Mapping[str, object],
                       drives: Optional[Mapping[str, object]] = None,
                       t_stop: float = 0.0,
                       model: Optional[DelayModel] = None,
                       simulate_reference: bool = True) -> RuntimeRow:
    """Wall-clock of one full timing analysis vs one transient run.

    Each timed run builds a fresh :class:`TimingAnalyzer` (cold caches) so
    the number reflects an end-to-end analysis, not a warm re-query.
    """
    analyzer_seconds = time_callable(
        lambda: TimingAnalyzer(network, model=model).analyze(timing_inputs))
    simulator_seconds = None
    if simulate_reference and drives is not None and t_stop > 0:
        simulator_seconds = time_callable(
            lambda: simulate(network, drives, t_stop=t_stop, steps=600))
    return RuntimeRow(
        circuit=network.name,
        transistors=len(network.transistors),
        analyzer_seconds=analyzer_seconds,
        simulator_seconds=simulator_seconds,
    )

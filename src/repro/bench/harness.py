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
    #: perf counters of the timed analysis (stage visits, model evals,
    #: cache hits, worklist traffic) — see :mod:`repro.perf`
    perf: Optional[Dict[str, int]] = None

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


@dataclass
class BatchRuntimeRow:
    """Shared-analyzer sweep vs N fresh analyzers over the same vectors.

    The acceptance number of the batching work: ``eval_ratio`` is how
    many times fewer delay-model evaluations per scenario the shared
    analyzer needs, and ``identical`` certifies the speedup changed no
    answer (per-scenario arrivals bit-identical).
    """

    circuit: str
    scenarios: int
    shared_seconds: float
    fresh_seconds: float
    shared_model_evals: int
    fresh_model_evals: int
    identical: bool
    #: batch-aggregate counters of the shared run (cache hit rate, …)
    shared_counters: Optional[Dict[str, int]] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.shared_seconds <= 0:
            return None
        return self.fresh_seconds / self.shared_seconds

    @property
    def eval_ratio(self) -> Optional[float]:
        """Fresh-per-scenario evals over shared-per-scenario evals."""
        if self.shared_model_evals <= 0:
            return math.inf if self.fresh_model_evals else None
        return self.fresh_model_evals / self.shared_model_evals

    @property
    def shared_evals_per_scenario(self) -> float:
        return self.shared_model_evals / max(self.scenarios, 1)

    @property
    def fresh_evals_per_scenario(self) -> float:
        return self.fresh_model_evals / max(self.scenarios, 1)


def _results_identical(shared, fresh) -> bool:
    if set(shared.arrivals) != set(fresh.arrivals):
        return False
    for event, arrival in shared.arrivals.items():
        other = fresh.arrivals[event]
        if (arrival.time != other.time or arrival.slope != other.slope
                or arrival.cause != other.cause):
            return False
    return True


def batch_runtime_comparison(network: Network,
                             vectors: Sequence[Mapping[str, object]],
                             model: Optional[DelayModel] = None
                             ) -> BatchRuntimeRow:
    """Measure one shared ``analyze_many()`` against N fresh analyzers.

    Both sides analyze the same vectors with the same model; the fresh
    side pays full path/RC/memo setup per scenario (the pre-batching
    workflow), the shared side pays it once.  Per-scenario arrivals are
    compared event by event (times, slopes, causal links) and any
    difference clears ``identical``.
    """
    shared_analyzer = TimingAnalyzer(network, model=model)
    start = time.perf_counter()
    shared_results = shared_analyzer.analyze_many(vectors)
    shared_seconds = time.perf_counter() - start

    fresh_results = []
    start = time.perf_counter()
    for inputs in vectors:
        fresh_results.append(
            TimingAnalyzer(network, model=model).analyze(inputs))
    fresh_seconds = time.perf_counter() - start

    identical = all(
        _results_identical(shared, fresh)
        for shared, fresh in zip(shared_results, fresh_results))
    shared_evals = sum(r.perf.get("model_evals")
                       for r in shared_results if r.perf)
    fresh_evals = sum(r.perf.get("model_evals")
                      for r in fresh_results if r.perf)
    return BatchRuntimeRow(
        circuit=network.name,
        scenarios=len(shared_results),
        shared_seconds=shared_seconds,
        fresh_seconds=fresh_seconds,
        shared_model_evals=shared_evals,
        fresh_model_evals=fresh_evals,
        identical=identical,
        shared_counters=dict(shared_analyzer.perf.counters),
    )


@dataclass
class DeltaSweepRow:
    """Dirty-cone delta sweep vs the full shared-analyzer batch.

    The acceptance number of the delta work: ``visit_ratio`` is how many
    times fewer stage visits per scenario delta re-analysis needs on the
    same (low input-delta) vector sequence, and ``identical`` certifies
    the skipped work changed no answer.
    """

    circuit: str
    scenarios: int
    delta_seconds: float
    full_seconds: float
    delta_stage_visits: int
    full_stage_visits: int
    identical: bool
    #: cumulative counters of the delta run (cone sizes, skips, reuse)
    delta_counters: Optional[Dict[str, int]] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.delta_seconds <= 0:
            return None
        return self.full_seconds / self.delta_seconds

    @property
    def visit_ratio(self) -> Optional[float]:
        """Full-batch stage visits over delta-sweep stage visits."""
        if self.delta_stage_visits <= 0:
            return math.inf if self.full_stage_visits else None
        return self.full_stage_visits / self.delta_stage_visits

    @property
    def skip_rate(self) -> Optional[float]:
        counters = self.delta_counters or {}
        cone = counters.get("cone_stages", 0)
        skipped = counters.get("stages_skipped", 0)
        seen = cone + skipped
        return (skipped / seen) if seen else None


def delta_sweep_comparison(network: Network,
                           vectors: Sequence[Mapping[str, object]],
                           model: Optional[DelayModel] = None
                           ) -> DeltaSweepRow:
    """Measure ``analyze_many(delta=True)`` against the full batch.

    Both sides share one warm analyzer apiece and see the vectors in the
    same order, so the only difference is dirty-cone re-analysis versus
    a full worklist per scenario — the ratio isolates the delta engine.
    Per-scenario arrivals are compared event by event (times, slopes,
    causal links) and any difference clears ``identical``.
    """
    full_analyzer = TimingAnalyzer(network, model=model)
    start = time.perf_counter()
    full_results = full_analyzer.analyze_many(vectors)
    full_seconds = time.perf_counter() - start

    delta_analyzer = TimingAnalyzer(network, model=model)
    start = time.perf_counter()
    delta_results = delta_analyzer.analyze_many(vectors, delta=True)
    delta_seconds = time.perf_counter() - start

    identical = all(
        _results_identical(delta, full)
        for delta, full in zip(delta_results, full_results))
    delta_visits = sum(r.perf.get("stage_visits")
                       for r in delta_results if r.perf)
    full_visits = sum(r.perf.get("stage_visits")
                      for r in full_results if r.perf)
    return DeltaSweepRow(
        circuit=network.name,
        scenarios=len(delta_results),
        delta_seconds=delta_seconds,
        full_seconds=full_seconds,
        delta_stage_visits=delta_visits,
        full_stage_visits=full_visits,
        identical=identical,
        delta_counters=dict(delta_analyzer.perf.counters),
    )


def runtime_comparison(network: Network,
                       timing_inputs: Mapping[str, object],
                       drives: Optional[Mapping[str, object]] = None,
                       t_stop: float = 0.0,
                       model: Optional[DelayModel] = None,
                       simulate_reference: bool = True) -> RuntimeRow:
    """Wall-clock of one full timing analysis vs one transient run.

    Each timed run builds a fresh :class:`TimingAnalyzer` (cold caches) so
    the number reflects an end-to-end analysis, not a warm re-query.  The
    perf counters of the last timed run ride along on the row.
    """
    last_perf: Dict[str, object] = {}

    def run_analyzer():
        result = TimingAnalyzer(network, model=model).analyze(timing_inputs)
        if result.perf is not None:
            last_perf.clear()
            last_perf.update(result.perf.counters)

    analyzer_seconds = time_callable(run_analyzer)
    simulator_seconds = None
    if simulate_reference and drives is not None and t_stop > 0:
        simulator_seconds = time_callable(
            lambda: simulate(network, drives, t_stop=t_stop, steps=600))
    return RuntimeRow(
        circuit=network.name,
        transistors=len(network.transistors),
        analyzer_seconds=analyzer_seconds,
        simulator_seconds=simulator_seconds,
        perf=dict(last_perf) or None,
    )


@dataclass
class TraceOverheadRow:
    """Cost of the tracing subsystem on one analysis workload.

    Two numbers matter (DESIGN.md §7):

    * ``disabled_overhead_est`` — the deterministic estimate of what the
      *disabled* span sites cost the untraced run: the number of span
      records an enabled run produces times the microbenchmarked
      per-site disabled cost, over the untraced wall time.  This is what
      the <2 % budget gates on — a wall-clock A/B at that scale would be
      pure timing noise.
    * ``enabled_overhead`` — the measured wall ratio of the traced run
      over the untraced run, recorded for the record (not gated: tracing
      is opt-in, so its cost only has to be acceptable, not invisible).
    """

    circuit: str
    scenarios: int
    off_seconds: float
    on_seconds: float
    #: span + instant records one traced run emits
    span_records: int
    #: microbenchmarked per-call cost of a disabled span site (seconds)
    site_cost: float

    @property
    def disabled_overhead_est(self) -> Optional[float]:
        if self.off_seconds <= 0:
            return None
        return self.span_records * self.site_cost / self.off_seconds

    @property
    def enabled_overhead(self) -> Optional[float]:
        if self.off_seconds <= 0:
            return None
        return self.on_seconds / self.off_seconds - 1.0


def trace_overhead_comparison(network: Network,
                              vectors: Sequence[Mapping[str, object]],
                              model: Optional[DelayModel] = None
                              ) -> TraceOverheadRow:
    """Measure one workload untraced, traced, and per-site.

    Both runs use a fresh analyzer apiece over the same vectors, so the
    only difference is whether a tracer is installed.  The untraced run
    goes first (and its span count comes from the traced run), so the
    estimate is conservative: cold-cache work lands on the untraced
    side.
    """
    from ..trace import spans as trace_spans

    assert trace_spans.current() is None, \
        "trace_overhead_comparison needs tracing off at entry"

    off_analyzer = TimingAnalyzer(network, model=model)
    start = time.perf_counter()
    off_analyzer.analyze_many(vectors)
    off_seconds = time.perf_counter() - start

    tracer = trace_spans.Tracer()
    on_analyzer = TimingAnalyzer(network, model=model)
    with trace_spans.activate(tracer):
        start = time.perf_counter()
        on_analyzer.analyze_many(vectors)
        on_seconds = time.perf_counter() - start

    site_cost = trace_spans.disabled_site_cost()
    return TraceOverheadRow(
        circuit=network.name,
        scenarios=len(vectors),
        off_seconds=off_seconds,
        on_seconds=on_seconds,
        span_records=len(tracer.records),
        site_cost=site_cost,
    )

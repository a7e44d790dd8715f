"""The scenario-sweep engine: N vectors, one shared analyzer.

Ousterhout's models exist to answer *many* timing questions per chip
orders of magnitude faster than circuit simulation; this module is the
many-questions part.  :func:`run_sweep` pushes every vector of a
:class:`~repro.batch.vectors.VectorSource` through **one**
:class:`~repro.core.timing.TimingAnalyzer`, so the path enumerations, RC
trees, candidate tables, and the delay-model memo built for the first
scenario are reused by all the rest — marginal model evaluations per
scenario approach zero (DESIGN.md §5b).  The results are bit-identical
to running each vector through a fresh analyzer; the differential tests
and ``tests/test_batch_sweep.py`` lock that equivalence down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.timing import InputSpec, TimingAnalyzer, TimingResult
from ..core.timing.analyzer import Arrival, Event
from ..errors import ReproError, SweepError
from ..netlist import Network
from ..perf import BatchPerf
from ..trace.spans import span as _trace_span
from .vectors import (ExplicitVectors, Vector, VectorSource, order_vectors,
                      pair_deltas)

__all__ = ["OrderStats", "ScenarioOutcome", "SweepResult", "run_sweep"]


@dataclass
class ScenarioOutcome:
    """One vector's analysis, reduced to what sweep reports need."""

    label: str
    vector: Vector
    result: TimingResult
    #: the latest event over the watched nodes (the scenario's headline)
    worst_event: Event
    worst_arrival: Arrival

    @property
    def worst_time(self) -> float:
        return self.worst_arrival.time


@dataclass(frozen=True)
class OrderStats:
    """How the sweep's analysis order looked to the delta engine."""

    #: the requested ordering ("given" / "gray" / "greedy")
    order: str
    #: whether scenarios ran through dirty-cone delta re-analysis
    delta: bool
    #: Hamming delta between consecutive *analyzed* vectors (index 0 is
    #: the cold start and reports 0)
    deltas: Tuple[int, ...] = ()

    @property
    def mean_delta(self) -> Optional[float]:
        """Mean inputs changed between consecutive analyzed vectors."""
        if len(self.deltas) < 2:
            return None
        return sum(self.deltas[1:]) / (len(self.deltas) - 1)

    @property
    def max_delta(self) -> int:
        return max(self.deltas[1:], default=0)


@dataclass
class SweepResult:
    """Complete output of one batch sweep."""

    network: Network
    model_name: str
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    #: per-scenario counters + cross-scenario aggregate (cache hit rate)
    batch_perf: BatchPerf = field(default_factory=BatchPerf)
    #: nodes the worst-arrival ranking was restricted to (None = all)
    watch: Optional[List[str]] = None
    #: analysis-order / delta-mode stats (None on pre-delta call paths)
    order_stats: Optional[OrderStats] = None

    def __len__(self) -> int:
        return len(self.outcomes)

    def outcome(self, label: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.label == label:
                return outcome
        raise SweepError(f"no scenario labeled {label!r} in this sweep")

    def worst(self) -> ScenarioOutcome:
        """The scenario with the latest watched arrival — the worst
        vector, the number a designer sizes the clock period against."""
        if not self.outcomes:
            raise SweepError("sweep produced no scenarios")
        return max(self.outcomes, key=lambda o: o.worst_time)

    def arrival_stats(self) -> "ArrivalStats":
        """Min/max/mean of the per-scenario worst arrivals."""
        if not self.outcomes:
            raise SweepError("sweep produced no scenarios")
        times = [outcome.worst_time for outcome in self.outcomes]
        return ArrivalStats(minimum=min(times), maximum=max(times),
                            mean=sum(times) / len(times),
                            scenarios=len(times))


@dataclass(frozen=True)
class ArrivalStats:
    minimum: float
    maximum: float
    mean: float
    scenarios: int

    @property
    def spread(self) -> float:
        return self.maximum - self.minimum


def _validate_vectors(analyzer: TimingAnalyzer,
                      vectors: List[Vector]) -> List[Dict[str, InputSpec]]:
    """Reject bad vectors before any analysis runs; return each vector's
    inputs as the analyzer normalized them, which it then analyzes
    without checking them again.

    Every input name must resolve to a real, non-supply node, every
    primary input must be covered, and every timing value must be finite
    with a non-negative slope — checked up front so a typo in one
    ``.vec`` line fails fast with the offending vector named, instead of
    surfacing as a deep engine error after other vectors were already
    analyzed.
    """
    labels: dict = {}
    normalized = []
    for position, vector in enumerate(vectors):
        previous = labels.get(vector.label)
        if previous is not None:
            raise SweepError(
                f"duplicate vector label {vector.label!r} (vectors "
                f"{previous} and {position} collide); labels key reports "
                "and lookups, so every vector needs its own")
        labels[vector.label] = position
        try:
            normalized.append(analyzer._normalize_inputs(vector.inputs))
        except ReproError as exc:
            raise SweepError(
                f"vector {vector.label!r}: {exc}") from exc
    return normalized


def run_sweep(network: Network,
              source: Union[VectorSource, Iterable[Vector]],
              watch: Optional[List[str]] = None,
              analyzer: Optional[TimingAnalyzer] = None,
              delta: bool = False,
              order: str = "given") -> SweepResult:
    """Run every vector of *source* through one shared analyzer.

    Pass an existing *analyzer* to extend a previous sweep with its
    caches already warm, or to choose its model and states (its network
    wins); otherwise a default ``TimingAnalyzer(network)`` is built.
    *watch* restricts the worst-arrival ranking to the named nodes (e.g.
    the outputs that matter).

    ``delta=True`` analyzes consecutive vectors through
    :meth:`~repro.core.timing.TimingAnalyzer.analyze_delta`: only the
    stages inside the changed inputs' dirty cone are re-evaluated, the
    rest keep their committed arrivals (bit-identical, see DESIGN.md
    §5e).  *order* reorders the **analysis** sequence to minimize those
    deltas — ``"gray"`` (cartesian sources; falls back to greedy
    elsewhere) or ``"greedy"`` nearest-neighbour Hamming ordering —
    while outcomes, labels, and reports stay in the source's original
    order.
    """
    if analyzer is None:
        analyzer = TimingAnalyzer(network)
    sweep = SweepResult(network=analyzer.network,
                        model_name=analyzer.model.name, watch=watch)
    vectors = list(source)
    if not vectors:
        raise SweepError("vector source produced no vectors")
    inputs = _validate_vectors(analyzer, vectors)

    permutation = order_vectors(vectors, order, source)
    ordered = [vectors[position] for position in permutation]
    sweep.order_stats = OrderStats(order=order, delta=delta,
                                   deltas=tuple(pair_deltas(ordered)))

    with _trace_span("sweep", vectors=len(vectors), delta=delta,
                     order=order):
        in_order = analyzer.analyze_many(
            [inputs[position] for position in permutation], delta=delta)
        results = [None] * len(vectors)
        for position, result in zip(permutation, in_order):
            results[position] = result
    for vector, result in zip(vectors, results):
        worst_event, worst_arrival = result.worst(nodes=watch)
        sweep.outcomes.append(ScenarioOutcome(
            label=vector.label, vector=vector, result=result,
            worst_event=worst_event, worst_arrival=worst_arrival))
        if result.perf is not None:
            sweep.batch_perf.add(vector.label, result.perf)
    return sweep


def run_scenarios(network: Network, scenarios: Iterable, **kwargs
                  ) -> SweepResult:
    """Convenience: sweep raw ``{node: spec}`` mappings (auto-labeled)."""
    return run_sweep(network, ExplicitVectors.from_mappings(scenarios),
                     **kwargs)

"""The static timing analyzer (the Crystal of the reproduction).

Incremental event-driven worst-case arrival propagation over the stage
graph:

1. every primary input contributes an initial event (rise and/or fall at a
   user-given time and slope);
2. whenever a node's arrival for some transition improves (gets *later*),
   the changed event is queued against every stage it triggers, on a
   priority worklist keyed by the arrival time — stages are therefore
   visited roughly in topological/temporal order, which makes most visits
   final on feed-forward logic;
3. a stage visit reads the stage's **candidate tables**, one per
   (target node, transition), built on first use: every (path, trigger)
   candidate in canonical order, with its trigger event and delay-memo
   key.  The first visit evaluates every candidate; later visits
   re-evaluate only those whose trigger event actually changed;
4. delay-model answers are memoized on the stage's isomorphism
   representative, ``(representative stage, target, transition, path,
   trigger kind, quantized slope)`` — isomorphic stages share one set of
   answers, and an upstream arrival whose *time* improved but whose
   *slope* did not re-uses the cached stage delay outright;
5. the process reaches a fixpoint because arrivals only ever increase; an
   iteration cap catches genuine timing loops.

The result records, for every (node, transition), the arrival time, the
propagated slope, and the causal link used — enough to reconstruct the
critical path stage by stage (:mod:`repro.core.timing.report`) — plus the
run's :class:`~repro.perf.PerfCounters` (stage visits, model evaluations,
cache hits, worklist traffic).

Ties are broken deterministically: when two candidates arrive within the
relative epsilon of each other, the one with the smaller canonical rank
(path enumeration order, then trigger order) wins, regardless of the order
in which the engine happened to discover them.  This makes the incremental
engine's output bit-identical to a brute-force full re-evaluation
(``incremental=False``), which the regression tests assert.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ...errors import TimingError
from ...netlist import Network
from ...netlist.stages import Stage
from ...perf import PerfCounters
from ...rctree import RCTree, TreeTemplate, kernel_available
from ...switchlevel import Logic
from ...tech import DeviceKind, Transition
from ...trace.spans import (
    NULL_SCOPE,
    current as _trace_current,
    instant as _trace_instant,
    span as _trace_span,
)
from ..models import DelayModel, SlopeModel, StageDelay
from .paths import (
    SensitizedPath,
    StageCaches,
    StateMap,
    Trigger,
    build_tree,
    compile_template,
    enumerate_paths,
)
from ..models.base import StageRequest
from .stage_graph import StageGraph
from .stage_iso import (
    build_maps,
    element_map,
    stage_signature,
    translate_paths,
)

#: Arrivals closer than this (relative to the largest magnitude seen) are
#: considered equal — stops slope jitter from causing endless revisits.
_RELATIVE_EPSILON = 1e-9

#: Deterministic iteration order of transitions (enum declaration order).
_TRANSITIONS: Tuple[Transition, ...] = tuple(Transition)

#: Canonical rank of a primary-input arrival: beats any computed candidate
#: of equal time (a stage never displaces the user's own input timing).
#: A computed candidate's rank is its position in its candidate table.
_PRIMARY_RANK = -1


@dataclass(frozen=True)
class Event:
    """A (node, transition) pair — the unit timing is attached to."""

    node: str
    transition: Transition

    def __post_init__(self) -> None:
        # Events key the arrival dicts on every hot engine operation;
        # computing the hash once here avoids re-running the enum's
        # Python-level __hash__ on every lookup.
        object.__setattr__(self, "_hash",
                           hash((self.node, self.transition)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # String hashes are salted per process: drop the cached hash so
        # an Event unpickled in another process recomputes it locally.
        return (self.node, self.transition)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "node", state[0])
        object.__setattr__(self, "transition", state[1])
        object.__setattr__(self, "_hash", hash((state[0], state[1])))

    def __str__(self) -> str:
        arrow = "↑" if self.transition is Transition.RISE else "↓"
        return f"{self.node}{arrow}"


@dataclass(frozen=True)
class InputSpec:
    """Timing of a primary input.

    ``None`` for an arrival disables that edge (e.g. a clock held low).
    ``slope`` is the full-swing transition time of the input's edges.
    """

    arrival_rise: Optional[float] = 0.0
    arrival_fall: Optional[float] = 0.0
    slope: float = 0.0

    def arrival(self, transition: Transition) -> Optional[float]:
        return (self.arrival_rise if transition is Transition.RISE
                else self.arrival_fall)


@dataclass
class Arrival:
    """Worst-case arrival of one event, with its causal link."""

    time: float
    slope: float
    cause: Optional[Event] = None
    stage_delay: Optional[StageDelay] = None
    path: Optional[SensitizedPath] = None
    trigger: Optional[Trigger] = None

    @property
    def is_primary(self) -> bool:
        return self.cause is None


@dataclass
class TimingResult:
    """Complete analysis output."""

    network: Network
    model_name: str
    arrivals: Dict[Event, Arrival]
    #: per-run observability: stage visits, model evals, cache hits, …
    perf: Optional[PerfCounters] = None

    def arrival(self, node: str, transition: Transition) -> Arrival:
        from ...errors import NetlistError
        try:
            name = self.network.node(node).name
        except NetlistError as exc:
            raise TimingError(str(exc)) from exc
        event = Event(name, transition)
        try:
            return self.arrivals[event]
        except KeyError:
            raise TimingError(
                f"no arrival computed for {event} (unreachable from the "
                "driven inputs?)"
            ) from None

    def has_arrival(self, node: str, transition: Transition) -> bool:
        return Event(self.network.node(node).name, transition) in self.arrivals

    def worst(self, nodes: Optional[List[str]] = None) -> Tuple[Event, Arrival]:
        """The latest event over *nodes* (default: every computed event)."""
        candidates = self.arrivals.items()
        if nodes is not None:
            wanted = {self.network.node(n).name for n in nodes}
            candidates = [(e, a) for e, a in candidates if e.node in wanted]
            if not candidates:
                raise TimingError("no arrivals for the requested nodes")
        if not self.arrivals:
            raise TimingError("analysis produced no arrivals")
        return max(candidates, key=lambda item: item[1].time)

    def critical_path(self, node: str,
                      transition: Transition) -> List[Tuple[Event, Arrival]]:
        """The causal chain ending at (node, transition), input first."""
        chain: List[Tuple[Event, Arrival]] = []
        event = Event(self.network.node(node).name, transition)
        guard = 0
        while True:
            arrival = self.arrivals.get(event)
            if arrival is None:
                raise TimingError(f"no arrival for {event}")
            chain.append((event, arrival))
            if arrival.cause is None:
                break
            event = arrival.cause
            guard += 1
            if guard > len(self.arrivals) + 1:
                raise TimingError("cycle in critical-path back-pointers")
        chain.reverse()
        return chain


class _Candidates:
    """The delay candidates of one (stage, target, transition).

    One entry per (path, trigger) pair in canonical order (path
    enumeration order, then trigger order), so an entry's position is its
    tie-break rank.  ``triggers`` holds each entry's interned trigger
    event and ``keys`` its delay-memo key, a small int naming (isomorphism
    representative, target, transition, path order, trigger kind) — so
    isomorphic stages share one ``keys`` tuple and one set of answers.
    """

    __slots__ = ("event", "paths", "triggers", "keys")

    def __init__(self, event: Event, paths: List[SensitizedPath],
                 triggers: Tuple[Event, ...], keys: Tuple[int, ...]):
        self.event = event
        self.paths = paths
        self.triggers = triggers
        self.keys = keys

    def locate(self, rank: int) -> Tuple[SensitizedPath, Trigger]:
        """The (path, trigger) pair of the entry at *rank*."""
        for path in self.paths:
            if rank < len(path.triggers):
                return path, path.triggers[rank]
            rank -= len(path.triggers)
        raise IndexError(rank)


class TimingAnalyzer:
    """Configure once, analyze many input scenarios.

    Parameters
    ----------
    network:
        The circuit.
    model:
        Delay model (default: the slope model, the paper's recommendation).
    states:
        Optional node → :class:`~repro.switchlevel.Logic` map of the
        settled state *after* the analyzed input event, used for path
        sensitization and event pruning (usually from a
        :class:`~repro.switchlevel.SwitchSimulator`).  ``None`` analyzes
        pessimistically, treating every unknown as possible.
    initial_states:
        Optional map of the state *before* the event.  When both maps are
        given, nodes whose value provably does not change produce no
        events — the single-vector transition pruning Crystal performed
        with simulator-supplied node values.
    incremental:
        ``True`` (default) enables demand-driven stage re-evaluation:
        after a stage's first exhaustive visit, only the delay candidates
        whose upstream trigger actually changed are recomputed.  ``False``
        re-evaluates every internal node × transition of a stage on every
        visit — the brute-force reference the regression tests compare
        against.  Both modes share the worklist, the memo cache, and the
        deterministic tie-break, so their outputs are identical.
    slope_quantum:
        Relative quantization applied to input slopes before they key the
        delay-model memo cache (``0.05`` = snap to a 5 % geometric grid).
        The *quantized* slope is also what the model is evaluated with, so
        results stay deterministic regardless of evaluation order.  The
        default ``0.0`` disables quantization — every distinct slope gets
        its own cache line and results are exact.
    kernel:
        ``"numpy"`` (default) compiles each distinct (stage, path, order)
        tree into a reusable :class:`~repro.rctree.TreeTemplate` and
        answers delay-model questions through the vectorized RPH kernel —
        all of a stage's time constants come out of one array pass, and
        repeat candidates are template cache hits instead of dict-tree
        rebuilds.  ``"python"`` keeps the original per-node scalar
        recurrences on dict-based :class:`~repro.rctree.RCTree` objects —
        the differential reference.  Both kernels agree to 1e-9 relative
        (``tests/test_kernel_differential.py``); if numpy is not
        importable the analyzer silently falls back to ``"python"``.

    Caching and invalidation
    ------------------------
    Path enumerations, RC trees, compiled tree templates, the candidate
    tables, and the delay-model memo are all keyed on state that is
    fixed at construction time (network topology, ``states``, the model,
    the technology), so they live for the analyzer's lifetime and are
    shared across ``analyze()`` calls — a second run of the same scenario
    is almost entirely cache hits.  If the network, technology tables, or
    model are mutated in place, call :meth:`invalidate_caches`.
    """

    #: Re-evaluations of one stage before declaring a timing loop.  Deep
    #: reconvergent circuits legitimately revisit stages as upstream
    #: arrivals improve, so this is generous; genuine loops grow without
    #: bound and still trip it.
    MAX_STAGE_VISITS = 400

    def __init__(self, network: Network, model: Optional[DelayModel] = None,
                 states: Optional[StateMap] = None,
                 initial_states: Optional[StateMap] = None,
                 incremental: bool = True,
                 slope_quantum: float = 0.0,
                 kernel: str = "numpy"):
        self.network = network
        self.model = model if model is not None else SlopeModel()
        self.states = states
        self.initial_states = initial_states
        self.incremental = incremental
        if not (math.isfinite(slope_quantum) and slope_quantum >= 0):
            raise TimingError("slope quantum must be finite and "
                              f"non-negative, got {slope_quantum!r}")
        self.slope_quantum = float(slope_quantum)
        if kernel not in ("numpy", "python"):
            raise TimingError(
                f"unknown kernel {kernel!r} (expected 'numpy' or 'python')")
        if kernel == "numpy" and not kernel_available():
            kernel = "python"
        self.kernel = kernel
        #: cumulative counters over every ``analyze()`` of this instance
        self.perf = PerfCounters()
        self._run_perf: Optional[PerfCounters] = None
        with self.perf.timer("stage_graph_build"):
            self.graph = StageGraph.build(network)
        # Per-(stage, node, transition) path cache and per-path tree cache.
        self._paths: Dict[Tuple[int, str, Transition],
                          List[SensitizedPath]] = {}
        self._trees: Dict[Tuple[int, str, Transition, int], RCTree] = {}
        # Compiled tree templates, same key as the dict-tree cache; which
        # one a kernel fills is an either/or (``self.kernel``).  Both hold
        # representative stages only.
        self._templates: Dict[Tuple[int, str, Transition, int],
                              TreeTemplate] = {}
        # Per-stage derived-structure caches (adjacencies, pair index,
        # reachability, merged edge resistances) shared by every path
        # enumeration and tree/template build of the stage.
        self._stage_caches: Dict[int, StageCaches] = {}
        # Structural sharing (repro.core.timing.stage_iso): the lowest-
        # index stage of each canonical signature is its representative
        # and does the real enumeration/compilation; isomorphic stages
        # translate its paths and share its delay-memo keys.  Maps
        # stage.index -> (representative stage, name_map, inverse map,
        # element map); the maps are None on the representative itself.
        self._stage_iso: Dict[int, Tuple[Stage, Optional[Dict[str, str]],
                                         Optional[Dict[str, str]],
                                         Optional[Dict]]] = {}
        # Network-wide node capacitance memo shared across stages.
        self._node_caps: Dict[str, float] = {}
        # Interned events: one Event object per (node, transition).
        self._events: Dict[Tuple[str, Transition], Event] = {}
        # Candidate tables per stage, in canonical target order.
        self._tables: Dict[int, Tuple[_Candidates, ...]] = {}
        # Memo keys per representative (stage, target, transition), and
        # per memo key the representative's request data.
        self._rep_keys: Dict[Tuple[int, str, Transition],
                             Tuple[int, ...]] = {}
        self._memo_requests: List[Tuple[Stage, SensitizedPath, int,
                                        DeviceKind]] = []
        # Delay-model memo: (memo key, quantized slope) -> StageDelay.
        self._delay_cache: Dict[Tuple[int, float], StageDelay] = {}
        # Delta carryover: the last completed run's (normalized inputs,
        # arrivals, ranks).  analyze_delta() re-uses every arrival whose
        # stage lies outside the changed inputs' dirty cone.  The stored
        # dicts alias the returned TimingResult's — treat results as
        # immutable (mutating result.arrivals corrupts the next delta).
        self._carryover: Optional[Tuple[Dict[str, InputSpec],
                                        Dict[Event, Arrival],
                                        Dict[Event, int]]] = None

    # ------------------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop every derived cache (paths, RC trees, candidate tables,
        memoized stage delays) and rebuild the stage graph.  Call after
        mutating the network (device geometry, added loads, added
        devices), the technology tables, or the model in place — a stale
        analyzer silently reuses delays computed for the old circuit."""
        self._paths.clear()
        self._trees.clear()
        self._templates.clear()
        self._stage_caches.clear()
        self._stage_iso.clear()
        self._node_caps.clear()
        self._events.clear()
        self._tables.clear()
        self._rep_keys.clear()
        self._memo_requests.clear()
        self._delay_cache.clear()
        self._carryover = None
        with self.perf.timer("stage_graph_build"):
            self.graph = StageGraph.build(self.network)

    def reset_run_state(self) -> None:
        """Clear per-run state without touching analyzer-lifetime caches.

        ``analyze()`` resets its own run state on every exit (including
        exceptions), so this is only needed to recover an instance whose
        run state was corrupted externally; it never drops the path/RC/
        memo caches that make warm re-analysis cheap.
        """
        self._run_perf = None

    def _count(self, name: str, amount: int = 1) -> None:
        perf = self._run_perf if self._run_perf is not None else self.perf
        perf.incr(name, amount)

    # ------------------------------------------------------------------

    def analyze(self, inputs: Mapping[str, Union[InputSpec, float]]
                ) -> TimingResult:
        """Propagate arrivals from the given primary-input timing.

        *inputs* maps input node names to :class:`InputSpec` (or a bare
        number, shorthand for "both edges at that time, step slope").
        Every primary input of the network must be covered.
        """
        if self._run_perf is not None:
            raise TimingError(
                "analyze() re-entered: a TimingAnalyzer runs one scenario "
                "at a time (use reset_run_state() to recover an instance "
                "whose previous run was corrupted)"
            )
        perf = PerfCounters()
        self._run_perf = perf
        try:
            # The span shares the run's lifecycle with the perf counters:
            # opened with them, closed (balanced) in this same scope even
            # when the propagation raises.
            with perf.timer("analyze"), \
                    _trace_span("analyze", inputs=len(inputs)) as scope:
                arrivals, ranks, normalized = self._propagate(inputs, perf)
                scope.set(stage_visits=perf.get("stage_visits"),
                          model_evals=perf.get("model_evals"))
        except BaseException:
            # A raised propagation must not leave carryover pointing at a
            # run the caller never saw complete: drop it so the next
            # analyze_delta() provably cold-starts instead of deltaing
            # against state whose provenance is now ambiguous
            # (tests/test_carryover_failure.py locks this down).
            self._carryover = None
            raise
        finally:
            self._run_perf = None
            self.perf.merge(perf)
        self._carryover = (normalized, arrivals, ranks)
        return TimingResult(network=self.network,
                            model_name=self.model.name, arrivals=arrivals,
                            perf=perf)

    def analyze_delta(self, inputs: Mapping[str, Union[InputSpec, float]]
                      ) -> TimingResult:
        """Analyze *inputs* by re-using the previous run's arrivals.

        The input Hamming delta against the last analyzed vector picks
        out the changed primary inputs; every stage outside their dirty
        cone (:meth:`StageGraph.dirty_cone`) provably sees identical
        triggers, so its committed arrivals are carried over verbatim.
        Cone stages have their arrivals dropped and are re-evaluated
        exhaustively in level order — within the cone this *is* a cold
        run, so the result is bit-identical to :meth:`analyze` (the
        delta differential tests lock that equivalence).

        Falls back to a full :meth:`analyze` when there is no carryover
        (first run, after :meth:`invalidate_caches`, or after a run that
        raised — a failed
        propagation invalidates carryover so the next delta run is
        bit-identical to a cold analysis).  Counters: ``delta_scenarios``,
        ``input_delta``, ``cone_stages``, ``stages_skipped``,
        ``arrivals_reused``.
        """
        if self._carryover is None:
            return self.analyze(inputs)
        if self._run_perf is not None:
            raise TimingError(
                "analyze_delta() re-entered: a TimingAnalyzer runs one "
                "scenario at a time (use reset_run_state() to recover an "
                "instance whose previous run was corrupted)"
            )
        perf = PerfCounters()
        self._run_perf = perf
        try:
            with perf.timer("analyze"), \
                    _trace_span("analyze_delta",
                                inputs=len(inputs)) as scope:
                arrivals, ranks, normalized = self._propagate_delta(inputs,
                                                                    perf)
                scope.set(changed_inputs=perf.get("input_delta"),
                          cone_stages=perf.get("cone_stages"),
                          stages_skipped=perf.get("stages_skipped"))
        except BaseException:
            # Same failure contract as analyze(): _propagate_delta mutates
            # only private copies of the carried-over dicts, so the stale
            # tuple *would* still be consistent — but consistency of the
            # previous fixpoint is an invariant worth enforcing, not
            # assuming.  Invalidate, so the next delta run cold-starts and
            # is trivially bit-identical to a fresh analyze().
            self._carryover = None
            raise
        finally:
            self._run_perf = None
            self.perf.merge(perf)
        self._carryover = (normalized, arrivals, ranks)
        return TimingResult(network=self.network,
                            model_name=self.model.name, arrivals=arrivals,
                            perf=perf)

    def _propagate_delta(self, inputs: Mapping[str, Union[InputSpec, float]],
                         perf: PerfCounters
                         ) -> Tuple[Dict[Event, Arrival],
                                    Dict[Event, int],
                                    Dict[str, InputSpec]]:
        prev_inputs, prev_arrivals, prev_ranks = self._carryover
        normalized = self._normalize_inputs(inputs)
        changed = sorted(name for name in normalized
                         if prev_inputs.get(name) != normalized[name])
        perf.incr("delta_scenarios")
        perf.incr("input_delta", len(changed))
        total_stages = len(self.graph.stages)
        if not changed:
            # Identical vector: the previous fixpoint is the answer.
            perf.incr("stages_skipped", total_stages)
            perf.incr("arrivals_reused", len(prev_arrivals))
            return dict(prev_arrivals), dict(prev_ranks), normalized

        cone = self.graph.dirty_cone(changed)
        perf.incr("cone_stages", len(cone))
        perf.incr("stages_skipped", total_stages - len(cone))

        arrivals = dict(prev_arrivals)
        ranks = dict(prev_ranks)
        stages = self.graph.stages
        # Drop everything the cone will recompute: every internal event
        # of a cone stage, and the changed primary inputs' own events.
        for index in cone:
            for node in stages[index].internal_nodes:
                for transition in _TRANSITIONS:
                    event = self._event(node, transition)
                    if arrivals.pop(event, None) is not None:
                        ranks.pop(event, None)
        for name in changed:
            for transition in _TRANSITIONS:
                event = self._event(name, transition)
                arrivals.pop(event, None)
                ranks.pop(event, None)
        perf.incr("arrivals_reused", len(arrivals))

        # Re-seed the changed primary inputs from their new specs.
        seeds: List[Tuple[Event, float]] = []
        for name in changed:
            spec = normalized[name]
            for transition in _TRANSITIONS:
                time = spec.arrival(transition)
                if time is None:
                    continue
                event = self._event(name, transition)
                arrivals[event] = Arrival(time=time, slope=spec.slope)
                ranks[event] = _PRIMARY_RANK
                seeds.append((event, time))
        self._run_worklist(arrivals, ranks, perf, seeds, forced=cone)
        return arrivals, ranks, normalized

    def analyze_many(self,
                     scenarios: Iterable[Mapping[str, Union[InputSpec,
                                                            float]]],
                     delta: bool = False) -> List[TimingResult]:
        """Analyze a batch of input scenarios against this one analyzer.

        Every scenario runs with the same analyzer-lifetime caches (path
        enumerations, RC trees, candidate tables, the delay-model memo), so
        after the first scenario pays the setup cost the marginal model
        evaluations per scenario approach zero — the sweep amortization
        the ROADMAP's multi-scenario batching item asks for (DESIGN.md
        §5b).  Per-run state is reset between scenarios; each returned
        :class:`TimingResult` carries its own perf snapshot, and the
        cumulative :attr:`perf` picks up per-batch totals plus a
        ``batch_scenarios`` count and an ``analyze_batch`` timer.

        Results are bit-identical to running each scenario through a
        fresh analyzer (the differential tests and
        ``benchmarks/bench_batch_sweep.py`` assert this).

        ``delta=True`` routes every scenario through
        :meth:`analyze_delta`: consecutive vectors reuse each other's
        committed arrivals outside the changed inputs' dirty cone, on
        top of the cache amortization — the fewer inputs change between
        neighbours, the fewer stages are visited (see
        ``benchmarks/bench_delta_sweep.py``).  Equally bit-identical.
        """
        results: List[TimingResult] = []
        with self.perf.timer("analyze_batch"):
            for position, inputs in enumerate(scenarios):
                with _trace_span("scenario", index=position):
                    results.append(self.analyze_delta(inputs) if delta
                                   else self.analyze(inputs))
        self.perf.incr("batch_scenarios", len(results))
        return results

    def _propagate(self, inputs: Mapping[str, Union[InputSpec, float]],
                   perf: PerfCounters
                   ) -> Tuple[Dict[Event, Arrival],
                              Dict[Event, int],
                              Dict[str, InputSpec]]:
        arrivals: Dict[Event, Arrival] = {}
        ranks: Dict[Event, int] = {}
        normalized = self._normalize_inputs(inputs)
        seeds: List[Tuple[Event, float]] = []
        for name, spec in normalized.items():
            for transition in _TRANSITIONS:
                time = spec.arrival(transition)
                if time is None:
                    continue
                event = self._event(name, transition)
                arrivals[event] = Arrival(time=time, slope=spec.slope)
                ranks[event] = _PRIMARY_RANK
                seeds.append((event, time))
        self._run_worklist(arrivals, ranks, perf, seeds)
        return arrivals, ranks, normalized

    def _run_worklist(self, arrivals: Dict[Event, Arrival],
                      ranks: Dict[Event, int],
                      perf: PerfCounters,
                      seeds: Iterable[Tuple[Event, float]],
                      forced: Iterable[int] = ()) -> None:
        """Drive the priority worklist to its fixpoint.

        *seeds* are (event, time) activations scheduled against the
        stages they trigger; *forced* stage indices (the delta path's
        dirty cone) are additionally guaranteed one exhaustive evaluation
        even if no seed reaches them — a cone stage whose triggers all
        kept their carried-over arrivals still needs its (deleted)
        internal arrivals recomputed.
        """
        stages = self.graph.stages
        levels = self.graph.levels()
        pending: Dict[int, Set[Event]] = {}
        scheduled: Dict[int, Tuple[int, float]] = {}
        heap: List[Tuple[int, float, int]] = []
        evaluated: Set[int] = set()

        # Priority: topological level first (a stage pops only after every
        # acyclic predecessor has settled — single-visit convergence on
        # feed-forward logic), earliest pending arrival time as tie-break
        # within a level.
        def schedule(event: Event, time: float) -> None:
            for stage in self.graph.affected_stages(event.node):
                index = stage.index
                pending.setdefault(index, set()).add(event)
                priority = (levels[index], time)
                best = scheduled.get(index)
                if best is None or priority < best:
                    scheduled[index] = priority
                    heapq.heappush(heap, (priority[0], priority[1], index))
                    perf.incr("worklist_pushes")

        for event, time in seeds:
            schedule(event, time)

        # Forced stages sort after natural activity within their level
        # (time = +inf) — by the time one pops, its level's upstream
        # traffic has been drained, so the exhaustive visit is usually
        # final, exactly like a cold run's first visit.
        force_pending: Set[int] = set()
        for index in sorted(set(forced)):
            force_pending.add(index)
            priority = (levels[index], math.inf)
            best = scheduled.get(index)
            if best is None or priority < best:
                scheduled[index] = priority
                heapq.heappush(heap, (priority[0], priority[1], index))
                perf.incr("worklist_pushes")

        visits: Dict[int, int] = {}
        tracer = _trace_current()
        while heap:
            level, time, index = heapq.heappop(heap)
            if scheduled.get(index) == (level, time):
                del scheduled[index]
            events = pending.pop(index, None)
            if not events:
                if index not in force_pending or index in evaluated:
                    # Nothing pending and no outstanding forced visit
                    # (or the forced visit already happened naturally).
                    force_pending.discard(index)
                    perf.incr("worklist_stale_pops")
                    continue
            force_pending.discard(index)
            stage = stages[index]
            visits[index] = visits.get(index, 0) + 1
            if visits[index] > self.MAX_STAGE_VISITS:
                nodes = ", ".join(sorted(stage.internal_nodes))
                raise TimingError(f"timing loop through stage [{nodes}]")
            perf.incr("stage_visits")
            incremental_visit = bool(self.incremental and index in evaluated
                                     and events)
            scope = (tracer.span("stage_eval", stage=index, level=level,
                                 mode=("incremental" if incremental_visit
                                       else "full"))
                     if tracer is not None else NULL_SCOPE)
            with scope:
                if incremental_visit:
                    perf.incr("stage_incremental_evals")
                    changed = self._evaluate_incremental(stage, events,
                                                         arrivals, ranks)
                else:
                    evaluated.add(index)
                    perf.incr("stage_full_evals")
                    changed = self._evaluate_full(stage, arrivals, ranks)
            for event in changed:
                schedule(event, arrivals[event].time)

    # ------------------------------------------------------------------

    def _normalize_inputs(self, inputs: Mapping[str, Union[InputSpec, float]]
                          ) -> Dict[str, InputSpec]:
        normalized: Dict[str, InputSpec] = {}
        for name, spec in inputs.items():
            node = self.network.node(name)
            if node.is_supply:
                raise TimingError(f"cannot time a supply rail {name!r}")
            if not isinstance(spec, InputSpec):
                spec = InputSpec(arrival_rise=float(spec),
                                 arrival_fall=float(spec))
            for value in (spec.arrival_rise, spec.arrival_fall, spec.slope):
                if value is not None and not math.isfinite(value):
                    raise TimingError(
                        f"input {name!r}: timing value {value!r} is not "
                        "finite")
            if spec.slope < 0.0:
                raise TimingError(
                    f"input {name!r}: negative slope {spec.slope!r}")
            normalized[node.name] = spec
        missing = [n.name for n in self.network.inputs()
                   if n.name not in normalized]
        if missing:
            raise TimingError(
                "primary inputs without timing: " + ", ".join(sorted(missing))
            )
        return normalized

    # -- static caches --------------------------------------------------

    def _event(self, node: str, transition: Transition) -> Event:
        """The interned event of (node, transition)."""
        event = self._events.get((node, transition))
        if event is None:
            event = self._events[(node, transition)] = Event(node,
                                                             transition)
        return event

    def _rep_for(self, stage: Stage) -> Tuple[Stage, Optional[Dict[str, str]],
                                              Optional[Dict[str, str]],
                                              Optional[Dict]]:
        """The stage's structural-sharing record: its representative
        stage plus the name/element substitutions (None when the stage
        *is* the representative of its signature).

        Every stage is classified on first use, lowest index first, so
        the representatives do not depend on visit order."""
        if not self._stage_iso:
            reps: Dict[Tuple, Tuple[Stage, Tuple[str, ...]]] = {}
            for other in self.graph.stages:
                signature, names = stage_signature(
                    self.network, other, self.states,
                    cap_cache=self._node_caps)
                rep, rep_names = reps.setdefault(signature, (other, names))
                if rep is other:
                    self._stage_iso[other.index] = (other, None, None, None)
                else:
                    self._stage_iso[other.index] = (
                        rep, *build_maps(rep_names, names),
                        element_map(rep, other))
        return self._stage_iso[stage.index]

    def _stage_paths(self, stage: Stage, node: str,
                     transition: Transition) -> List[SensitizedPath]:
        key = (stage.index, node, transition)
        paths = self._paths.get(key)
        if paths is None:
            rep, name_map, inverse, elements = self._rep_for(stage)
            if name_map is None:
                self._count("path_enumerations")
                with _trace_span("path_enum", stage=stage.index, node=node):
                    paths = enumerate_paths(
                        self.network, stage, node, transition, self.states,
                        caches=self._caches_for(stage))
            else:
                rep_paths = self._stage_paths(rep, inverse[node], transition)
                paths = translate_paths(rep_paths, name_map, elements,
                                        stage.index)
                self._count("path_translations")
            self._paths[key] = paths
        return paths

    def _caches_for(self, stage: Stage) -> StageCaches:
        caches = self._stage_caches.get(stage.index)
        if caches is None:
            caches = self._stage_caches[stage.index] = StageCaches()
        return caches

    def _tree_for(self, stage: Stage, path: SensitizedPath,
                  order: int) -> RCTree:
        key = (stage.index, path.target, path.transition, order)
        tree = self._trees.get(key)
        if tree is None:
            self._count("tree_builds")
            tree = build_tree(self.network, stage, path, states=self.states,
                              caches=self._caches_for(stage),
                              cap_cache=self._node_caps)
            self._trees[key] = tree
        return tree

    def _template_for(self, stage: Stage, path: SensitizedPath,
                      order: int) -> TreeTemplate:
        key = (stage.index, path.target, path.transition, order)
        template = self._templates.get(key)
        if template is not None:
            self._count("tree_template_hits")
            _trace_instant("template_hit", stage=stage.index,
                           target=path.target)
            return template
        self._count("tree_template_misses")
        with _trace_span("template_compile", stage=stage.index,
                         target=path.target):
            template = compile_template(
                self.network, stage, path, states=self.states,
                caches=self._caches_for(stage), cap_cache=self._node_caps)
        self._templates[key] = template
        return template

    def _table_for(self, stage: Stage) -> Tuple[_Candidates, ...]:
        """The stage's candidate tables, one per admissible (internal
        node, transition) in canonical order (built on first use)."""
        tables = self._tables.get(stage.index)
        if tables is None:
            rep, name_map, inverse, _ = self._rep_for(stage)
            built = []
            for node in sorted(stage.internal_nodes):
                for transition in _TRANSITIONS:
                    if not self._event_allowed(node, transition):
                        continue
                    paths = self._stage_paths(stage, node, transition)
                    built.append(_Candidates(
                        self._event(node, transition), paths,
                        tuple(self._event(t.input_node, t.input_transition)
                              for path in paths for t in path.triggers),
                        self._memo_keys(rep, node if name_map is None
                                        else inverse[node], transition)))
            tables = self._tables[stage.index] = tuple(built)
        return tables

    def _memo_keys(self, rep: Stage, node: str,
                   transition: Transition) -> Tuple[int, ...]:
        """Delay-memo keys of a representative's (node, transition)
        candidates: one small int per distinct (path order, trigger kind),
        whose request data is appended to ``_memo_requests``."""
        keys = self._rep_keys.get((rep.index, node, transition))
        if keys is None:
            ids: Dict[Tuple[int, int], int] = {}
            built = []
            for order, path in enumerate(self._stage_paths(rep, node,
                                                           transition)):
                for trigger in path.triggers:
                    memo = ids.get((order, trigger.kind_code))
                    if memo is None:
                        memo = ids[(order, trigger.kind_code)] = len(
                            self._memo_requests)
                        self._memo_requests.append(
                            (rep, path, order, trigger.device_kind))
                    built.append(memo)
            keys = self._rep_keys[(rep.index, node, transition)] = tuple(built)
        return keys

    # -- memoized delay evaluation --------------------------------------

    def _quantize_slope(self, slope: float) -> float:
        if self.slope_quantum <= 0.0 or slope <= 0.0:
            return slope
        step = math.log1p(self.slope_quantum)
        return math.exp(round(math.log(slope) / step) * step)

    def _request_for(self, memo: int, slope: float) -> StageRequest:
        """The delay-model question for one memo miss, asked against the
        representative's compiled template (numpy kernel) or dict tree
        (python kernel)."""
        rep, path, order, kind = self._memo_requests[memo]
        template = (self._template_for(rep, path, order)
                    if self.kernel == "numpy" else None)
        return StageRequest(
            tree=(None if template is not None
                  else self._tree_for(rep, path, order)),
            target=path.target,
            transition=path.transition,
            trigger_kind=kind,
            input_slope=slope,
            tech=self.network.tech,
            template=template,
        )

    def _best_candidate(self, stage_index: int, table: _Candidates,
                        arrivals: Mapping[Event, Arrival],
                        only: Optional[Set[Event]] = None
                        ) -> Tuple[Optional[Arrival], int]:
        """Pick the winner among a target's candidates (only those fed by
        *only*, when given) under the deterministic tie-break; returns
        it with its rank.

        The memo misses are handed to the model in one
        :meth:`DelayModel.evaluate_many` batch.  Only the winning
        candidate is materialized as an :class:`Arrival`.
        """
        cache = self._delay_cache
        quantum = self.slope_quantum
        keys = table.keys
        plan: List[Tuple[int, Arrival, Tuple[int, float]]] = []
        misses: Dict[Tuple[int, float], None] = {}
        for rank, event in enumerate(table.triggers):
            if only is not None and event not in only:
                continue
            upstream = arrivals.get(event)
            if upstream is None:
                continue
            slope = upstream.slope
            if quantum > 0.0:
                slope = self._quantize_slope(slope)
            key = (keys[rank], slope)
            if key not in cache:
                misses[key] = None
            plan.append((rank, upstream, key))
        if not plan:
            return None, _PRIMARY_RANK
        self._count("candidates", len(plan))
        if len(plan) > len(misses):
            self._count("model_cache_hits", len(plan) - len(misses))
        if misses:
            requests = [self._request_for(memo, slope)
                        for memo, slope in misses]
            self._count("model_cache_misses", len(requests))
            self._count("model_evals", len(requests))
            if self.kernel == "numpy":
                self._count("kernel_batches")
                self._count("kernel_nodes",
                            sum(len(r.template) for r in requests))
            with _trace_span("kernel_batch", stage=stage_index,
                             requests=len(requests), kernel=self.kernel):
                cache.update(zip(misses, self.model.evaluate_many(requests)))

        # Winner selection on raw (time, rank): ranks ascend, so a later
        # candidate wins only when strictly later beyond the epsilon.
        best_rank = _PRIMARY_RANK
        best_time = 0.0
        for rank, upstream, key in plan:
            time = upstream.time + cache[key].delay
            if best_rank >= 0 and time <= best_time + _RELATIVE_EPSILON * max(
                    abs(time), abs(best_time), 1e-30):
                continue
            best_rank, best_time, best_key = rank, time, key
        result = cache[best_key]
        path, trigger = table.locate(best_rank)
        return Arrival(
            time=best_time,
            slope=result.output_slope,
            cause=table.triggers[best_rank],
            stage_delay=result,
            path=path,
            trigger=trigger,
        ), best_rank

    # -- event admission ------------------------------------------------

    def _event_allowed(self, node: str, transition: Transition) -> bool:
        """Can (node, transition) occur at all under the supplied states?

        An event ending at level ``v`` requires the post-transition state
        to be ``v`` (or unknown); with both state maps, a node whose known
        value is unchanged produces no event in a single-vector analysis.
        """
        if self.states is None:
            return True
        post = self.states.get(node, Logic.X)
        final = Logic.ONE if transition is Transition.RISE else Logic.ZERO
        if post is not Logic.X and post is not final:
            return False
        if self.initial_states is not None:
            pre = self.initial_states.get(node, Logic.X)
            if pre is not Logic.X and pre is post:
                return False
        return True

    # -- candidate comparison -------------------------------------------

    @staticmethod
    def _beats(candidate: Arrival, candidate_rank: int,
               current: Arrival, current_rank: int) -> bool:
        """Does *candidate* displace *current*?

        Strictly later (beyond the relative epsilon) always wins; within
        the epsilon the smaller canonical rank wins, which makes the
        fixpoint independent of evaluation order.
        """
        scale = max(abs(candidate.time), abs(current.time), 1e-30)
        margin = _RELATIVE_EPSILON * scale
        if candidate.time > current.time + margin:
            return True
        if candidate.time < current.time - margin:
            return False
        return candidate_rank < current_rank

    # -- stage evaluation -----------------------------------------------

    def _commit(self, event: Event, best: Arrival, rank: int,
                arrivals: Dict[Event, Arrival],
                ranks: Dict[Event, int]) -> bool:
        current = arrivals.get(event)
        if current is not None and not self._beats(
                best, rank, current, ranks.get(event, _PRIMARY_RANK)):
            return False
        arrivals[event] = best
        ranks[event] = rank
        self._count("arrival_updates")
        return True

    def _evaluate_full(self, stage: Stage, arrivals: Dict[Event, Arrival],
                       ranks: Dict[Event, int]) -> List[Event]:
        """Recompute every internal-node arrival; return changed events."""
        return self._evaluate_incremental(stage, None, arrivals, ranks)

    def _evaluate_incremental(self, stage: Stage,
                              events: Optional[Set[Event]],
                              arrivals: Dict[Event, Arrival],
                              ranks: Dict[Event, int]) -> List[Event]:
        """Re-evaluate only the candidates fed by *events* (every
        candidate when None); return changed events.

        Targets are evaluated (and committed) one at a time, in canonical
        order, because a feedback stage's own internal node can be an
        upstream trigger of a later target in the same visit — batching
        stays within one target's candidates.
        """
        changed: List[Event] = []
        for table in self._table_for(stage):
            if events is not None and events.isdisjoint(table.triggers):
                continue
            best, rank = self._best_candidate(stage.index, table, arrivals,
                                              events)
            if best is not None and self._commit(table.event, best, rank,
                                                 arrivals, ranks):
                changed.append(table.event)
        return changed


def analyze(network: Network, inputs: Mapping[str, Union[InputSpec, float]],
            model: Optional[DelayModel] = None,
            states: Optional[StateMap] = None,
            initial_states: Optional[StateMap] = None) -> TimingResult:
    """One-shot convenience wrapper around :class:`TimingAnalyzer`."""
    analyzer = TimingAnalyzer(network, model=model, states=states,
                              initial_states=initial_states)
    return analyzer.analyze(inputs)

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
   key.  Each isomorphism class is compiled once into a candidate
   program on its representative stage (:mod:`.stage_iso`); a stage's
   tables map that program's trigger slots through the stage's slot ->
   node vector.  The first visit evaluates every candidate; later
   visits re-evaluate only those whose trigger event actually changed;
4. delay-model answers are memoized per class: one row per memo key
   ``(representative stage, target, transition, path, trigger kind)``,
   mapping an input slope to its stage delay — isomorphic stages share
   the row, and an upstream arrival whose *time* improved but whose
   *slope* did not re-uses the cached stage delay outright.  A visit
   selects and commits each target in one pass over its candidates'
   rows;
5. the process reaches a fixpoint because arrivals only ever increase; an
   iteration cap catches genuine timing loops.

The engine numbers the nodes once per stage graph and keys all per-run
state on integer events, ``2 * node id + transition``; names are
resolved only where a result is read.  The result records, for every
(node, transition), the arrival time, the propagated slope, and the
causal link used — enough to reconstruct the critical path stage by
stage (:mod:`repro.core.timing.report`) — plus the run's
:class:`~repro.perf.PerfCounters` (stage visits, model evaluations,
cache hits, worklist traffic).  Its arrivals are a read-only
:class:`ArrivalMap` over the run's int-keyed dict; they iterate in
commit order, and the reports break time ties by event id
(:func:`event_order`), not by that order.

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
from collections.abc import ItemsView, ValuesView
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ...errors import TimingError
from ...netlist import Network
from ...netlist.stages import Stage
from ...perf import PerfCounters
from ...rctree import TreeTemplate
from ...switchlevel import Logic
from ...tech import DeviceKind, Transition
from ...trace.spans import (
    NULL_SCOPE,
    current as _trace_current,
    span as _trace_span,
)
from ..models import DelayModel, SlopeModel, StageDelay
from .paths import (
    SensitizedPath,
    StageCaches,
    StateMap,
    Trigger,
    compile_template,
    effective_node_caps,
    enumerate_paths,
)
from ..models.base import StageRequest
from .stage_graph import StageGraph
from .stage_iso import element_map, stage_signature, translate_path

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


def event_order(event: Event) -> Tuple[str, bool]:
    """Sort key of an event's id, ``2 * node id + transition``: node-name
    order, rise before fall."""
    return event.node, event.transition is Transition.FALL


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


class _CheckedInputs(dict):
    """Inputs :meth:`TimingAnalyzer._normalize_inputs` checked against
    ``graph``: every primary input by its canonical name, each with an
    :class:`InputSpec`.  A run on that same graph takes them as they are,
    so a sweep that checks its vectors up front does not check them
    twice."""

    __slots__ = ("graph",)


class Arrival:
    """Worst-case arrival of one event, with its causal link: ``link`` is
    the winning (candidate table, rank), from which ``path`` and ``trigger``
    resolve on first read; equality compares them, not the link.

    Read-only: a result shares its records with the analyzer's delta
    carryover, so a write would leak into the next ``analyze_delta``.
    """

    # Slots keep each record a single object that is cheap to make and
    # to read (a cold rca32 analysis makes about 1500 and reads their
    # time and slope some nine times as often); an instance dict per
    # record would double the garbage collector's traffic.  ``__dict__``
    # holds only what ``cached_property`` stores.
    __slots__ = ("time", "slope", "cause", "stage_delay", "link", "__dict__")

    time: float
    slope: float
    cause: Optional[Event]
    stage_delay: Optional[StageDelay]
    link: Optional[Tuple["_Candidates", int]]

    def __init__(self, time: float, slope: float,
                 cause: Optional[Event] = None,
                 stage_delay: Optional[StageDelay] = None,
                 link: Optional[Tuple["_Candidates", int]] = None) -> None:
        _set_time(self, time)
        _set_slope(self, slope)
        _set_cause(self, cause)
        _set_stage_delay(self, stage_delay)
        _set_link(self, link)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to Arrival.{name}: "
                             f"arrivals are read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete Arrival.{name}: "
                             f"arrivals are read-only")

    def __repr__(self) -> str:
        return (f"Arrival(time={self.time!r}, slope={self.slope!r}, "
                f"cause={self.cause!r}, stage_delay={self.stage_delay!r})")

    @property
    def is_primary(self) -> bool:
        return self.cause is None

    @cached_property
    def _located(self) -> Tuple[Optional[SensitizedPath], Optional[Trigger]]:
        return (None, None) if self.link is None else self.link[0].locate(
            self.link[1])

    @property
    def path(self) -> Optional[SensitizedPath]:
        return self._located[0]

    @property
    def trigger(self) -> Optional[Trigger]:
        return self._located[1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Arrival) and all(
            getattr(self, name) == getattr(other, name) for name in (
                "time", "slope", "cause", "stage_delay", "path", "trigger"))


# ``Arrival.__init__`` writes through the slot descriptors, since its
# ``__setattr__`` refuses every write.
_set_time = Arrival.time.__set__
_set_slope = Arrival.slope.__set__
_set_cause = Arrival.cause.__set__
_set_stage_delay = Arrival.stage_delay.__set__
_set_link = Arrival.link.__set__


def _moved(old: Optional[Arrival], new: Optional[Arrival]) -> bool:
    """Does an event's arrival differ from its carried-over one in what
    a downstream stage reads: its presence, time or slope?"""
    return old is not new and (old is None or new is None
                               or old.time != new.time
                               or old.slope != new.slope)


class _EventTable:
    """The :class:`Event` of each event int of one stage graph, made on
    first read: once per analyzer, however many results name it.  A
    result keeps the table of the graph that numbered its events, so
    ``invalidate_caches()`` (which renumbers) leaves it readable."""

    __slots__ = ("ids", "names", "objects")

    def __init__(self, graph: StageGraph):
        self.ids, self.names = graph.node_ids, graph.node_names
        self.objects: List[Optional[Event]] = [None] * (2 * len(self.names))

    def event(self, event: int) -> Event:
        """Make the :class:`Event` *event* names; callers read
        ``objects`` first, so each is made once."""
        found = self.objects[event] = Event(self.names[event >> 1],
                                            _TRANSITIONS[event & 1])
        return found

    def number(self, event: object) -> Optional[int]:
        """The event int of an :class:`Event`, or None for anything
        else (another type, or a node this graph does not number)."""
        if not isinstance(event, Event):
            return None
        node = self.ids.get(event.node)
        if node is None:
            return None
        return 2 * node + (event.transition is _TRANSITIONS[1])


class ArrivalMap(Mapping):
    """A run's arrivals keyed by :class:`Event`: a read-only view over
    the run's int-keyed dict, in its (commit) order.

    Nothing is copied or re-keyed per run.  Each key's :class:`Event` is
    made on first read, once per analyzer; ``items()`` and ``values()``
    walk the int dict directly.  The dict is the analyzer's delta
    carryover, which is why the view has no way to write to it.
    """

    __slots__ = ("_arrivals", "_table")

    def __init__(self, arrivals: Dict[int, Arrival], table: _EventTable):
        self._arrivals, self._table = arrivals, table

    def __getitem__(self, event: Event) -> Arrival:
        found = self._arrivals.get(self._table.number(event))
        if found is None:
            raise KeyError(event)
        return found

    def __contains__(self, event: object) -> bool:
        return self._table.number(event) in self._arrivals

    def __len__(self) -> int:
        return len(self._arrivals)

    def __iter__(self) -> Iterator[Event]:
        table = self._table
        objects = table.objects
        for event in self._arrivals:
            yield objects[event] or table.event(event)

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    def numbered(self) -> Tuple[Mapping[int, Arrival], Sequence[str]]:
        """The run's arrivals keyed by event int (``2 * node id +
        transition``), read-only, and the node names those ids index.
        Ids follow sorted name order, so sorting ids sorts names."""
        return MappingProxyType(self._arrivals), self._table.names

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self) -> Iterator[Tuple[Event, Arrival]]:
        table = self._mapping._table
        objects = table.objects
        for event, arrival in self._mapping._arrivals.items():
            yield objects[event] or table.event(event), arrival


class _Values(ValuesView):
    def __iter__(self) -> Iterator[Arrival]:
        return iter(self._mapping._arrivals.values())


@dataclass
class TimingResult:
    """Complete analysis output."""

    network: Network
    model_name: str
    arrivals: ArrivalMap
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
        """The latest event over *nodes* (default: every computed event);
        an exact time tie goes to the smallest event id, the first event
        in :func:`event_order`, whatever order the engine committed them
        in."""
        arrivals, table = self.arrivals._arrivals, self.arrivals._table
        candidates = arrivals.items()
        if nodes is not None:
            wanted = {table.ids.get(self.network.node(n).name)
                      for n in nodes}
            candidates = [(e, a) for e, a in candidates if e >> 1 in wanted]
            if not candidates:
                raise TimingError("no arrivals for the requested nodes")
        if not arrivals:
            raise TimingError("analysis produced no arrivals")
        # One pass; times are finite (inputs are checked), so the first
        # candidate always beats the start.
        latest, event = -math.inf, -1
        for number, arrival in candidates:
            time = arrival.time
            if time > latest or (time == latest and number < event):
                latest, event = time, number
        return table.objects[event] or table.event(event), arrivals[event]

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


class _Program:
    """The candidate program of one isomorphism class, compiled on its
    representative stage.  ``nodes`` is the representative's slot ->
    node-id vector, ``internal`` its internal slots, and ``groups`` holds
    one :class:`_Group` per (target slot, transition), keyed ``2 * slot
    + transition`` and built on first use."""

    __slots__ = ("rep", "nodes", "slots", "internal", "groups", "names")

    def __init__(self, rep: Stage, nodes: Tuple[int, ...],
                 internal: Iterable[int], names: List[str]):
        self.rep, self.nodes, self.names = rep, nodes, names
        self.slots = {node: slot for slot, node in enumerate(nodes)}
        self.internal = tuple(self.slots[node] for node in internal)
        self.groups: Dict[int, _Group] = {}


class _Group(NamedTuple):
    """One (target slot, transition) of a program: the representative's
    paths and, per (path, trigger) candidate in canonical order, its
    trigger as ``2 * slot + transition``, its delay-memo key, a small
    int naming (representative, target, transition, path order, trigger
    kind), and that key's memo row, input slope -> stage delay."""

    paths: List[SensitizedPath]
    slot_events: Tuple[int, ...]
    keys: Tuple[int, ...]
    rows: Tuple[Dict[float, StageDelay], ...]


class _Member:
    """One stage as an instance of its class's program: the stage's own
    slot -> node-id vector, and on first read the (name map, element
    map, stage index) record :func:`translate_path` takes (None on the
    representative)."""

    def __init__(self, stage: Stage, program: _Program,
                 nodes: Tuple[int, ...]):
        self.stage, self.program, self.nodes = stage, program, nodes

    @cached_property
    def iso(self) -> Optional[Tuple[Dict[str, str], Dict, int]]:
        program = self.program
        if program.rep is self.stage:
            return None
        names = program.names
        return ({names[a]: names[b] for a, b in zip(program.nodes,
                                                   self.nodes)},
                element_map(program.rep, self.stage), self.stage.index)


class _Candidates:
    """The delay candidates of one (stage, target, transition).

    One entry per (path, trigger) pair in canonical order (path
    enumeration order, then trigger order), so an entry's position is its
    tie-break rank.  ``event`` is the target event and ``triggers`` each
    entry's trigger event, the program group's trigger slots mapped onto
    the stage; the group's delay-memo rows are shared by every stage of
    the class.
    """

    __slots__ = ("event", "triggers", "group", "member")

    def __init__(self, event: int, triggers: Tuple[int, ...],
                 group: _Group, member: _Member):
        self.event, self.triggers = event, triggers
        self.group, self.member = group, member

    def locate(self, rank: int) -> Tuple[SensitizedPath, Trigger]:
        """The (path, trigger) pair of the entry at *rank*."""
        for path in self.group.paths:
            if rank < len(path.triggers):
                iso = self.member.iso
                if iso is not None:
                    path = translate_path(path, *iso)
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

    Caching and invalidation
    ------------------------
    Path enumerations, compiled tree templates (one
    :class:`~repro.rctree.TreeTemplate` per distinct (stage, path, order),
    whose O(N) kernel yields all of a stage's time constants in one
    pass), the class programs and candidate tables, and the delay-model
    memo are all keyed
    on state that is fixed at construction time (network topology,
    ``states``, the model, the technology), so they live for the
    analyzer's lifetime and are shared across ``analyze()`` calls — a
    second run of the same scenario is almost entirely cache hits.  If
    the network, technology tables, or model are mutated in place, call
    :meth:`invalidate_caches`.
    """

    #: Re-evaluations of one stage before declaring a timing loop.  Deep
    #: reconvergent circuits legitimately revisit stages as upstream
    #: arrivals improve, so this is generous; genuine loops grow without
    #: bound and still trip it.
    MAX_STAGE_VISITS = 400

    def __init__(self, network: Network, model: Optional[DelayModel] = None,
                 states: Optional[StateMap] = None,
                 initial_states: Optional[StateMap] = None,
                 incremental: bool = True):
        self.network = network
        self.model = model if model is not None else SlopeModel()
        self.states = states
        self.initial_states = initial_states
        self.incremental = incremental
        #: cumulative counters over every ``analyze()`` of this instance
        self.perf = PerfCounters()
        self._run_perf: Optional[PerfCounters] = None
        self._reset()

    def _reset(self) -> None:
        """(Re)build the stage graph and start every cache derived from
        the network afresh."""
        with self.perf.timer("stage_graph_build"):
            self.graph = StageGraph.build(self.network)
        # Structural sharing (repro.core.timing.stage_iso): one program
        # per signature class, in representative order, and per stage
        # its _Member; both classified on first use, along with every
        # node's effective capacitance.
        self._programs: List[_Program] = []
        self._members: List[_Member] = []
        self._node_caps: Dict[str, float] = {}
        # Candidate tables per stage, in canonical target order.
        self._tables: List[Optional[Tuple[_Candidates, ...]]] = [
            None] * len(self.graph.stages)
        # Per-path compiled tree templates (representative stages only).
        self._templates: Dict[Tuple[int, str, Transition, int],
                              TreeTemplate] = {}
        # Per-stage derived-structure caches (adjacencies, pair index,
        # reachability, merged edge resistances) shared by every path
        # enumeration and template compile of the stage.
        self._stage_caches: Dict[int, StageCaches] = {}
        # Per memo key, the representative's request data and its row
        # of the delay-model memo, input slope -> StageDelay.  Memo keys
        # are per class, so every isomorphic stage reads the same row.
        self._memo_requests: List[Tuple[Stage, SensitizedPath, int,
                                        DeviceKind]] = []
        self._memo_rows: List[Dict[float, StageDelay]] = []
        # The Event of each event int, made when a result names it.
        self._events = _EventTable(self.graph)
        # Delta carryover: the last completed run's (normalized inputs,
        # arrivals and ranks by event).  analyze_delta() re-uses every
        # arrival whose stage lies outside the changed inputs' dirty
        # cone; a run copies the dicts it starts from, and its result
        # is a read-only view of its own.
        self._carryover: Optional[Tuple[Dict[str, InputSpec],
                                        Dict[int, Arrival],
                                        List[int]]] = None

    # ------------------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop every derived cache (paths, templates, candidate tables,
        memoized stage delays) and rebuild the stage graph.  Call after
        mutating the network (device geometry, added loads, added
        devices), the technology tables, or the model in place — a stale
        analyzer silently reuses delays computed for the old circuit."""
        self._reset()

    def compiled_templates(self) -> List[TreeTemplate]:
        """Every RC-tree template compiled so far, in compile order."""
        return list(self._templates.values())

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
        return self._run("analyze", self._propagate, inputs, (
            ("stage_visits", "stage_visits"),
            ("model_evals", "model_evals")))

    def analyze_delta(self, inputs: Mapping[str, Union[InputSpec, float]]
                      ) -> TimingResult:
        """Analyze *inputs* by re-using the previous run's arrivals.

        The input Hamming delta against the last analyzed vector picks
        out the changed primary inputs, which seed the worklist.  A
        stage's delays and output slopes depend only on its triggers'
        (time, slope) pairs, so a stage is re-evaluated only when one of
        its trigger events *moved* against the carryover: a new time or
        slope, or an event that appeared or vanished.  It then drops its
        internal arrivals and is evaluated exhaustively, as in a cold
        run; every other stage keeps its committed arrivals verbatim.
        Stages on a feedback loop or downstream of one
        (:meth:`StageGraph.loop_stages`) keep the static rule: those in
        the changed inputs' dirty cone (:meth:`StageGraph.dirty_cone`)
        are dropped up front and re-evaluated, because within their
        shared level one can pop before its predecessor.  The result is
        bit-identical to :meth:`analyze` (the delta differential tests
        lock that equivalence); only its iteration order can differ.

        Falls back to a full :meth:`analyze` when there is no carryover
        (first run, after :meth:`invalidate_caches`, or after a run that
        raised — a failed
        propagation invalidates carryover so the next delta run is
        bit-identical to a cold analysis).  Counters: ``delta_scenarios``,
        ``input_delta``, ``cone_stages`` and ``stages_skipped`` (the
        static dirty cone), ``stage_full_evals`` (the stages actually
        re-evaluated), ``arrivals_reused``.
        """
        if self._carryover is None:
            return self.analyze(inputs)
        return self._run("analyze_delta", self._propagate_delta, inputs, (
            ("changed_inputs", "input_delta"),
            ("cone_stages", "cone_stages"),
            ("stages_skipped", "stages_skipped")))

    def _run(self, name: str, propagate, inputs, summary) -> TimingResult:
        """One scenario through *propagate*, in a run span *name* whose
        *summary* args are (arg, counter) pairs."""
        if self._run_perf is not None:
            raise TimingError(
                f"{name}() re-entered: a TimingAnalyzer runs one scenario "
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
                    _trace_span(name, inputs=len(inputs)) as scope:
                carryover = propagate(inputs, perf)
                result = self._result(carryover[1], perf)
                scope.set(**{arg: perf.get(counter)
                             for arg, counter in summary})
        except BaseException:
            # A raised propagation must not leave carryover pointing at a
            # run the caller never saw complete: drop it so the next
            # analyze_delta() provably cold-starts instead of deltaing
            # against state whose provenance is now ambiguous
            # (tests/test_carryover_failure.py locks this down).  Runs
            # mutate only copies of the carried-over state, but the
            # previous fixpoint's consistency is enforced, not assumed.
            self._carryover = None
            raise
        finally:
            self._run_perf = None
            self.perf.merge(perf)
        self._carryover = carryover
        return result

    def _result(self, arrivals: Dict[int, Arrival],
                perf: PerfCounters) -> TimingResult:
        """The run's result: a read-only :class:`ArrivalMap` over
        *arrivals*, in the same (commit) order."""
        return TimingResult(
            network=self.network, model_name=self.model.name,
            arrivals=ArrivalMap(arrivals, self._events), perf=perf)

    def _propagate_delta(self, inputs: Mapping[str, Union[InputSpec, float]],
                         perf: PerfCounters
                         ) -> Tuple[Dict[str, InputSpec],
                                    Dict[int, Arrival], List[int]]:
        prev_inputs, prev_arrivals, prev_ranks = self._carryover
        normalized = self._checked(inputs)
        # Identity first: a sweep hands the same spec objects from one
        # vector to the next, and an identical object is an equal spec.
        changed = sorted(name for name, spec in normalized.items()
                         if (old := prev_inputs.get(name)) is not spec
                         and old != spec)
        perf.incr("delta_scenarios")
        perf.incr("input_delta", len(changed))
        graph = self.graph
        total_stages = len(graph.stages)
        if not changed:
            # Identical vector: the previous fixpoint is the answer (runs
            # only ever mutate copies of it).
            perf.incr("stages_skipped", total_stages)
            perf.incr("arrivals_reused", len(prev_arrivals))
            return normalized, prev_arrivals, prev_ranks

        cone = graph.dirty_cone(changed)
        perf.incr("cone_stages", len(cone))
        perf.incr("stages_skipped", total_stages - len(cone))
        # The cone's loop stages are recomputed from scratch, as a cold
        # run would: their internal events are dropped up front, before
        # any of them is evaluated.  Every other stage is re-evaluated
        # only once one of its triggers moves (_run_worklist).
        loops = cone & graph.loop_stages()

        arrivals, ranks = prev_arrivals.copy(), prev_ranks.copy()
        input_events = [2 * graph.node_ids[name] + code
                        for name in changed for code in (0, 1)]
        dropped = 0
        for event in input_events + [
                2 * node + code for index in loops
                for node in graph.internal[index] for code in (0, 1)]:
            if arrivals.pop(event, None) is not None:
                dropped += 1
        # Re-seed the changed primary inputs from their new specs; an
        # edge that vanished is a seed too.
        self._seed({name: normalized[name] for name in changed},
                   arrivals, ranks)
        seeds = [event for event in input_events
                 if event in arrivals or event in prev_arrivals]
        dropped += self._run_worklist(arrivals, ranks, perf, seeds,
                                      forced=loops, carried=prev_arrivals)
        perf.incr("arrivals_reused", len(prev_arrivals) - dropped)
        return normalized, arrivals, ranks

    def analyze_many(self,
                     scenarios: Iterable[Mapping[str, Union[InputSpec,
                                                            float]]],
                     delta: bool = False) -> List[TimingResult]:
        """Analyze a batch of input scenarios against this one analyzer.

        Every scenario runs with the same analyzer-lifetime caches (path
        enumerations, templates, candidate tables, the delay-model memo), so
        after the first scenario pays the setup cost the marginal model
        evaluations per scenario approach zero — the sweep amortization
        the ROADMAP's multi-scenario batching item asks for (DESIGN.md
        §5b).  Per-run state is reset between scenarios; each returned
        :class:`TimingResult` carries its own perf snapshot, and the
        cumulative :attr:`perf` picks up per-batch totals plus a
        ``batch_scenarios`` count and an ``analyze_batch`` timer.

        Results are bit-identical to running each scenario through a
        fresh analyzer (the differential tests and
        ``tests/test_batch_sweep.py`` assert this).

        ``delta=True`` routes every scenario through
        :meth:`analyze_delta`: consecutive vectors reuse each other's
        committed arrivals outside the changed inputs' dirty cone, on
        top of the cache amortization — the fewer inputs change between
        neighbours, the fewer stages are visited (see
        ``tests/test_delta_sweep.py``).  Equally bit-identical.
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
                   ) -> Tuple[Dict[str, InputSpec],
                              Dict[int, Arrival], List[int]]:
        arrivals: Dict[int, Arrival] = {}
        ranks = [_PRIMARY_RANK] * len(self._events.objects)
        normalized = self._checked(inputs)
        seeds = self._seed(normalized, arrivals, ranks)
        self._run_worklist(arrivals, ranks, perf, seeds)
        return normalized, arrivals, ranks

    def _seed(self, specs: Mapping[str, InputSpec],
              arrivals: Dict[int, Arrival],
              ranks: List[int]) -> List[int]:
        """Commit *specs*' input events; return them."""
        seeds: List[int] = []
        ids = self.graph.node_ids
        for name, spec in specs.items():
            for code, transition in enumerate(_TRANSITIONS):
                time = spec.arrival(transition)
                if time is None:
                    continue
                event = 2 * ids[name] + code
                arrivals[event] = Arrival(time, spec.slope)
                ranks[event] = _PRIMARY_RANK
                seeds.append(event)
        return seeds

    def _run_worklist(self, arrivals: Dict[int, Arrival], ranks: List[int],
                      perf: PerfCounters, seeds: Iterable[int],
                      forced: FrozenSet[int] = frozenset(),
                      carried: Optional[Mapping[int, Arrival]] = None
                      ) -> int:
        """Drive the priority worklist to its fixpoint; return how many
        carried-over arrivals it dropped.

        *seeds* are events scheduled against the stages they trigger;
        *forced* stage indices (the delta path's loop stages) are
        additionally guaranteed one exhaustive evaluation even if no seed
        reaches them.

        *carried* is the previous run's arrivals, which a delta run's
        *arrivals* start from.  An event then schedules a stage that is
        neither evaluated in this run nor forced only when it moved
        (:func:`_moved`).  A stage's first visit drops its internal
        arrivals and recomputes them exhaustively; the events that do not
        come back have vanished, and are scheduled too.

        The worklist counters are kept in locals and added to *perf* once,
        when the run ends or raises.
        """
        stages = self.graph.stages
        levels = self.graph.levels()
        sensitivity = self.graph.sensitivity
        internal = self.graph.internal
        pending: Dict[int, Set[int]] = {}
        scheduled: Dict[int, Tuple[int, float]] = {}
        heap: List[Tuple[int, float, int]] = []
        evaluated: Set[int] = set()
        dropped = 0
        pushes = stale = visited = full = incremental = 0

        # Priority: topological level first (a stage pops only after every
        # acyclic predecessor has settled — single-visit convergence on
        # feed-forward logic), earliest pending arrival time as tie-break
        # within a level; a vanished event sorts last.
        def schedule(event: int) -> None:
            nonlocal pushes
            arrival = arrivals.get(event)
            time = math.inf if arrival is None else arrival.time
            moved = carried is None or _moved(carried.get(event), arrival)
            for index in sensitivity[event >> 1]:
                if not (moved or index in evaluated or index in forced):
                    continue
                pending.setdefault(index, set()).add(event)
                priority = (levels[index], time)
                best = scheduled.get(index)
                if best is None or priority < best:
                    scheduled[index] = priority
                    heapq.heappush(heap, (priority[0], priority[1], index))
                    pushes += 1

        try:
            for event in seeds:
                schedule(event)

            # Forced stages sort after natural activity within their level
            # (time = +inf) — by the time one pops, its level's upstream
            # traffic has been drained, so the exhaustive visit is usually
            # final, exactly like a cold run's first visit.
            force_pending: Set[int] = set()
            for index in sorted(forced):
                force_pending.add(index)
                priority = (levels[index], math.inf)
                best = scheduled.get(index)
                if best is None or priority < best:
                    scheduled[index] = priority
                    heapq.heappush(heap, (priority[0], priority[1], index))
                    pushes += 1

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
                        stale += 1
                        continue
                force_pending.discard(index)
                stage = stages[index]
                visits[index] = visits.get(index, 0) + 1
                if visits[index] > self.MAX_STAGE_VISITS:
                    nodes = ", ".join(sorted(stage.internal_nodes))
                    raise TimingError(f"timing loop through stage [{nodes}]")
                visited += 1
                incremental_visit = bool(self.incremental
                                         and index in evaluated and events)
                scope = (tracer.span("stage_eval", stage=index, level=level,
                                     mode=("incremental" if incremental_visit
                                           else "full"))
                         if tracer is not None else NULL_SCOPE)
                with scope:
                    if incremental_visit:
                        incremental += 1
                        changed = self._evaluate_incremental(
                            stage, events, arrivals, ranks)
                    else:
                        gone: List[int] = []
                        if carried is not None and index not in evaluated:
                            gone = [event for node in internal[index]
                                    for event in (2 * node, 2 * node + 1)
                                    if arrivals.pop(event, None) is not None]
                            dropped += len(gone)
                        evaluated.add(index)
                        full += 1
                        changed = self._evaluate_full(stage, arrivals, ranks)
                        changed += [event for event in gone
                                    if event not in arrivals]
                for event in changed:
                    schedule(event)
        finally:
            for name, count in (("worklist_pushes", pushes),
                                ("worklist_stale_pops", stale),
                                ("stage_visits", visited),
                                ("stage_full_evals", full),
                                ("stage_incremental_evals", incremental)):
                if count:
                    perf.incr(name, count)
        return dropped

    # ------------------------------------------------------------------

    def _checked(self, inputs: Mapping[str, Union[InputSpec, float]]
                 ) -> Dict[str, InputSpec]:
        """*inputs* normalized: as they are when :meth:`_normalize_inputs`
        already checked them against this stage graph."""
        if type(inputs) is _CheckedInputs and inputs.graph is self.graph:
            return inputs
        return self._normalize_inputs(inputs)

    def _normalize_inputs(self, inputs: Mapping[str, Union[InputSpec, float]]
                          ) -> Dict[str, InputSpec]:
        normalized = _CheckedInputs()
        primary = self.graph.inputs
        for name, spec in inputs.items():
            key = name
            if key not in primary:
                node = self.network.node(name)
                if node.is_supply:
                    raise TimingError(f"cannot time a supply rail {name!r}")
                if not node.is_driven_externally:
                    raise TimingError(
                        f"input {name!r} is not a primary input")
                key = node.name
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
            normalized[key] = spec
        missing = [name for name in primary if name not in normalized]
        if missing:
            raise TimingError(
                "primary inputs without timing: " + ", ".join(sorted(missing))
            )
        normalized.graph = self.graph
        return normalized

    # -- static caches --------------------------------------------------

    def _member(self, stage: Stage) -> _Member:
        """The stage as an instance of its class program.

        Every stage is classified on first use, lowest index first, so
        the representatives do not depend on visit order."""
        if not self._members:
            programs: Dict[Tuple, _Program] = {}
            graph = self.graph
            self._node_caps = effective_node_caps(self.network)
            for other in graph.stages:
                signature, nodes = stage_signature(
                    self.network, other, self.states,
                    caps=self._node_caps, graph=graph)
                program = programs.get(signature)
                if program is None:
                    program = programs[signature] = _Program(
                        other, nodes, graph.internal[other.index],
                        graph.node_names)
                    self._programs.append(program)
                self._members.append(_Member(other, program, nodes))
        return self._members[stage.index]

    def _group(self, program: _Program, key: int) -> _Group:
        """The program's candidates for the target ``2 * slot +
        transition``: the representative's enumerated paths, and per
        (path, trigger) its trigger slot event and a delay-memo key, one
        per distinct (path order, trigger kind), whose request data and
        empty memo row are appended to ``_memo_requests`` and
        ``_memo_rows``."""
        group = program.groups.get(key)
        if group is not None:
            return group
        rep = program.rep
        node = program.names[program.nodes[key >> 1]]
        self._count("path_enumerations")
        tracer = _trace_current()
        with (tracer.span("path_enum", stage=rep.index, node=node)
              if tracer is not None else NULL_SCOPE):
            paths = enumerate_paths(self.network, rep, node,
                                    _TRANSITIONS[key & 1], self.states,
                                    caches=self._caches_for(rep))
        ids, slots = self.graph.node_ids, program.slots
        memos: Dict[Tuple[int, int], int] = {}
        slot_events, keys = [], []
        for order, path in enumerate(paths):
            for trigger in path.triggers:
                memo = memos.get((order, trigger.kind_code))
                if memo is None:
                    memo = memos[(order, trigger.kind_code)] = len(
                        self._memo_requests)
                    self._memo_requests.append(
                        (rep, path, order, trigger.device_kind))
                    self._memo_rows.append({})
                keys.append(memo)
                slot_events.append(
                    2 * slots[ids[trigger.input_node]]
                    + _TRANSITIONS.index(trigger.input_transition))
        program.groups[key] = _Group(
            paths, tuple(slot_events), tuple(keys),
            tuple(map(self._memo_rows.__getitem__, keys)))
        return program.groups[key]

    def _caches_for(self, stage: Stage) -> StageCaches:
        return self._stage_caches.setdefault(stage.index, StageCaches())

    def _template_for(self, stage: Stage, path: SensitizedPath,
                      order: int) -> TreeTemplate:
        key = (stage.index, path.target, path.transition, order)
        template = self._templates.get(key)
        tracer = _trace_current()
        if template is not None:
            self._count("tree_template_hits")
            if tracer is not None:
                tracer.instant("template_hit", stage=stage.index,
                               target=path.target)
            return template
        self._count("tree_template_misses")
        with (tracer.span("template_compile", stage=stage.index,
                          target=path.target)
              if tracer is not None else NULL_SCOPE):
            template = compile_template(
                self.network, stage, path, states=self.states,
                caches=self._caches_for(stage), caps=self._node_caps)
        self._templates[key] = template
        return template

    def _table_for(self, stage: Stage) -> Tuple[_Candidates, ...]:
        """The stage's candidate tables, one per admissible (internal
        node, transition) in canonical (name) order, built on first use
        from its class program: trigger slots map onto the stage through
        its slot vector."""
        tables = self._tables[stage.index]
        if tables is None:
            member = self._member(stage)
            program, nodes = member.program, member.nodes
            events = [2 * node + code for node in nodes for code in (0, 1)]
            built = []
            for slot in sorted(program.internal, key=nodes.__getitem__):
                for code in (0, 1):
                    event = 2 * nodes[slot] + code
                    if not self._event_allowed(event):
                        continue
                    group = self._group(program, 2 * slot + code)
                    built.append(_Candidates(
                        event, tuple(map(events.__getitem__,
                                         group.slot_events)),
                        group, member))
            tables = self._tables[stage.index] = tuple(built)
        return tables

    # -- memoized delay evaluation --------------------------------------

    def _request_for(self, memo: int, slope: float) -> StageRequest:
        """The delay-model question for one memo miss, asked against the
        representative's compiled template."""
        rep, path, order, kind = self._memo_requests[memo]
        return StageRequest(
            template=self._template_for(rep, path, order),
            target=path.target,
            transition=path.transition,
            trigger_kind=kind,
            input_slope=slope,
            tech=self.network.tech,
        )

    def _answer_misses(self, stage_index: int, table: _Candidates,
                       start: int, arrivals: Mapping[int, Arrival],
                       only: Optional[Set[int]]) -> int:
        """Fill the memo rows of the table's candidates from rank *start*
        on (those fed by *only*, when given): their distinct (memo key,
        slope) misses go to the model in first-seen order, as one
        :meth:`DelayModel.evaluate_many` batch.  Returns how many."""
        rows, keys = table.group.rows, table.group.keys
        misses: Dict[Tuple[int, float], None] = {}
        for rank in range(start, len(keys)):
            event = table.triggers[rank]
            if only is not None and event not in only:
                continue
            upstream = arrivals.get(event)
            if upstream is not None and upstream.slope not in rows[rank]:
                misses[(keys[rank], upstream.slope)] = None
        requests = [self._request_for(memo, slope) for memo, slope in misses]
        perf = self._run_perf
        perf.incr("model_cache_misses", len(requests))
        perf.incr("model_evals", len(requests))
        perf.incr("kernel_batches")
        perf.incr("kernel_nodes", sum(len(r.template) for r in requests))
        tracer = _trace_current()
        with (tracer.span("kernel_batch", stage=stage_index,
                          requests=len(requests))
              if tracer is not None else NULL_SCOPE):
            answers = self.model.evaluate_many(requests)
        memo_rows = self._memo_rows
        for (memo, slope), answer in zip(misses, answers):
            memo_rows[memo][slope] = answer
        return len(requests)

    # -- event admission ------------------------------------------------

    def _event_allowed(self, event: int) -> bool:
        """Can *event* occur at all under the supplied states?

        An event ending at level ``v`` requires the post-transition state
        to be ``v`` (or unknown); with both state maps, a node whose known
        value is unchanged produces no event in a single-vector analysis.
        """
        if self.states is None:
            return True
        node = self.graph.node_names[event >> 1]
        post = self.states.get(node, Logic.X)
        final = Logic.ZERO if event & 1 else Logic.ONE
        if post is not Logic.X and post is not final:
            return False
        if self.initial_states is not None:
            pre = self.initial_states.get(node, Logic.X)
            if pre is not Logic.X and pre is post:
                return False
        return True

    # -- stage evaluation -----------------------------------------------

    def _evaluate_full(self, stage: Stage, arrivals: Dict[int, Arrival],
                       ranks: List[int]) -> List[int]:
        """Recompute every internal-node arrival; return changed events."""
        return self._evaluate_incremental(stage, None, arrivals, ranks)

    def _evaluate_incremental(self, stage: Stage, events: Optional[Set[int]],
                              arrivals: Dict[int, Arrival],
                              ranks: List[int]) -> List[int]:
        """Re-evaluate only the candidates fed by *events* (every
        candidate when None); return changed events.

        Targets are evaluated (and committed) one at a time, in canonical
        order, because a feedback stage's own internal node can be an
        upstream trigger of a later target in the same visit.  A target
        costs one pass over its candidates, in rank order: each reads its
        stage delay from its memo row by the upstream slope, and the
        winner is kept as the pass goes, on raw (time, rank) — ranks
        ascend, so a later candidate wins only when strictly later beyond
        the epsilon.  At the first miss the rest of the table's misses
        are answered in one batch (:meth:`_answer_misses`) and the pass
        goes on.  The winner is then committed unless the current arrival
        holds: strictly later (beyond the relative epsilon) always wins,
        and within the epsilon the smaller canonical rank wins, which
        makes the fixpoint independent of evaluation order.  Only a
        committed winner is made an :class:`Arrival`.

        The candidate, memo-hit and commit counts are added to the run's
        counters once per visit, also when the visit raises.
        """
        changed: List[int] = []
        get = arrivals.get
        objects, make_event = self._events.objects, self._events.event
        candidates = misses = updates = 0
        try:
            for table in self._table_for(stage):
                triggers = table.triggers
                if events is not None and events.isdisjoint(triggers):
                    continue
                rows = table.group.rows
                best_rank = _PRIMARY_RANK
                best_time = 0.0
                for rank, event in enumerate(triggers):
                    if events is not None and event not in events:
                        continue
                    upstream = get(event)
                    if upstream is None:
                        continue
                    answer = rows[rank].get(upstream.slope)
                    if answer is None:
                        misses += self._answer_misses(stage.index, table,
                                                      rank, arrivals, events)
                        answer = rows[rank][upstream.slope]
                    candidates += 1
                    time = upstream.time + answer.delay
                    if best_rank >= 0 and (
                            time <= best_time or time <= best_time + (
                                _RELATIVE_EPSILON * max(abs(time),
                                                        abs(best_time),
                                                        1e-30))):
                        continue
                    best_rank, best_time, best = rank, time, answer
                if best_rank < 0:
                    continue
                target = table.event
                current = get(target)
                if current is not None:
                    margin = _RELATIVE_EPSILON * max(abs(best_time),
                                                     abs(current.time), 1e-30)
                    if best_time < current.time - margin or (
                            best_time <= current.time + margin
                            and best_rank >= ranks[target]):
                        continue
                cause = triggers[best_rank]
                # Positional: keyword arguments would make each arrival
                # about half again as dear to build.
                arrivals[target] = Arrival(
                    best_time, best.output_slope,
                    objects[cause] or make_event(cause), best,
                    (table, best_rank))
                ranks[target] = best_rank
                updates += 1
                changed.append(target)
        finally:
            perf = self._run_perf
            if candidates:
                perf.incr("candidates", candidates)
            if candidates > misses:
                perf.incr("model_cache_hits", candidates - misses)
            if updates:
                perf.incr("arrival_updates", updates)
        return changed


def analyze(network: Network, inputs: Mapping[str, Union[InputSpec, float]],
            model: Optional[DelayModel] = None,
            states: Optional[StateMap] = None,
            initial_states: Optional[StateMap] = None) -> TimingResult:
    """One-shot convenience wrapper around :class:`TimingAnalyzer`."""
    analyzer = TimingAnalyzer(network, model=model, states=states,
                              initial_states=initial_states)
    return analyzer.analyze(inputs)

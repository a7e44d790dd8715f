"""Stage path enumeration and sensitization.

For one stage and one desired output transition, this module finds every
*resistive path* that can produce the transition — a walk from a qualified
source (the appropriate rail, or a driven input node) through
possibly-conducting channels to the target — and every *trigger* that can
fire each path:

* **on-trigger** — the gate of a path device switches the device on
  (a rising gate for n-channel, falling for p-channel);
* **off-trigger** — the gate of an *opposing* device (one that was holding
  the node at the old level) switches it off, releasing the node to the
  path (this is how an nMOS output ever rises: the pulldown shuts off and
  the always-on depletion load wins);
* **through-trigger** — the path's source is a driven input whose own
  transition propagates through already-conducting devices (pass chains).

Sensitization consults a node-state map (usually from the switch-level
simulator); unknown (X) states are treated permissively, which reproduces
Crystal's pessimistic default.

The module also compiles the RC tree of a path plus its conducting side
branches into the :class:`~repro.rctree.TreeTemplate` that the delay
models' :class:`~repro.core.models.base.StageRequest` carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ...errors import TimingError
from ...netlist import GND, VDD, Network
from ...netlist.stages import Stage
from ...netlist.transistor import Resistor, Transistor
from ...rctree import TreeTemplate
from ...switchlevel import Logic
from ...tech import DeviceKind, Technology, Transition

#: Safety valve against combinatorial path blowup inside one stage.
MAX_PATHS_PER_NODE = 512

Element = Union[Transistor, Resistor]
StateMap = Mapping[str, Logic]

#: Small-integer codes for the enums that land in hot memo keys.  Python
#: enums hash through a Python-level ``__hash__``, so key tuples carrying
#: them pay an interpreter call per dict operation; the analyzer's
#: delay-memo keys use these C-hashable ints instead (precomputed once at
#: construction, see :class:`Trigger` / :class:`SensitizedPath`).
_TRANSITION_CODES: Dict[Transition, int] = {
    t: i for i, t in enumerate(Transition)
}
_KIND_CODES: Dict[DeviceKind, int] = {k: i for i, k in enumerate(DeviceKind)}


@dataclass(frozen=True)
class PathElement:
    """One channel/resistor hop, oriented from source toward target."""

    element: Element
    from_node: str
    to_node: str

    @property
    def is_transistor(self) -> bool:
        return isinstance(self.element, Transistor)


@dataclass(frozen=True)
class Trigger:
    """An input event that can fire a path."""

    input_node: str
    input_transition: Transition
    mechanism: str  # "on" | "off" | "through"
    device_kind: DeviceKind  # selects the slope table

    def __post_init__(self) -> None:
        # Precomputed C-hashable stand-in for ``device_kind`` in memo keys.
        object.__setattr__(self, "kind_code", _KIND_CODES[self.device_kind])


@dataclass(frozen=True)
class SensitizedPath:
    """A resistive path with the triggers that can fire it."""

    stage_index: int
    source: str
    target: str
    transition: Transition
    elements: Tuple[PathElement, ...]
    triggers: Tuple[Trigger, ...]

    def __post_init__(self) -> None:
        # Precomputed C-hashable stand-in for ``transition`` in memo keys.
        object.__setattr__(self, "transition_code",
                           _TRANSITION_CODES[self.transition])

    @property
    def nodes(self) -> Tuple[str, ...]:
        names = [self.source]
        names.extend(e.to_node for e in self.elements)
        return tuple(names)

    def describe(self) -> str:
        hops = " - ".join(
            f"{e.element.name}" for e in self.elements
        )
        return (f"{self.source} -[{hops}]-> {self.target} "
                f"({self.transition.value})")


def _state(states: Optional[StateMap], node: str) -> Logic:
    if node == VDD:
        return Logic.ONE
    if node == GND:
        return Logic.ZERO
    if states is None:
        return Logic.X
    return states.get(node, Logic.X)


def _may_conduct(device: Transistor, states: Optional[StateMap]) -> bool:
    """Can the device conduct in the analyzed (post-transition) state?

    *states*, when provided, is the settled state **after** the analyzed
    input event — so a device whose gate is held at the blocking level in
    that state can never be part of a sensitizable path (this is the value
    pruning Crystal performed with user- or simulator-supplied node
    values).  Unknown gates stay permissive.  A device that may conduct
    is taken as on without any further input event: it is a path hop, a
    side branch of an RC tree, and a charge-sharing channel alike.
    """
    if device.kind is DeviceKind.NMOS_DEP:
        return True
    gate = _state(states, device.gate)
    if device.kind is DeviceKind.NMOS_ENH:
        return gate is not Logic.ZERO  # 1 definitely, X possibly
    return gate is not Logic.ONE


def _turn_on_transition(kind: DeviceKind) -> Transition:
    return Transition.RISE if kind is not DeviceKind.PMOS else Transition.FALL


def _turn_off_transition(kind: DeviceKind) -> Transition:
    return Transition.FALL if kind is not DeviceKind.PMOS else Transition.RISE


class StageCaches:
    """Memoized per-(stage, states) derived structures.

    Everything here is a pure function of the stage's device list and the
    sensitization states, so one instance can be shared by every path
    enumeration and template compile of the stage — the analyzer keeps
    one per stage for its lifetime.  One-shot callers simply omit it and
    each call builds what it needs privately.
    """

    __slots__ = ("_pair_index", "_conducting", "reach",
                 "edge_resistance", "driven", "bridges")

    def __init__(self) -> None:
        self._pair_index = None
        self._conducting = None
        #: (excluded device name, start node) -> reachable node set
        self.reach: Dict[Tuple[str, str], Set[str]] = {}
        #: (element name, transition) -> parallel-merged resistance
        self.edge_resistance: Dict[Tuple[str, Transition], float] = {}
        #: node name -> is it driven externally (rails excluded)
        self.driven: Dict[str, bool] = {}
        #: (device name, target, transition) -> does turning the device
        #: off release the target (see ``_bridges_opposition``)
        self.bridges: Dict[Tuple[str, str, Transition], bool] = {}

    def pair_index(self, stage: Stage, states: Optional[StateMap]
                   ) -> Dict[FrozenSet[str], List[Element]]:
        if self._pair_index is None:
            self._pair_index = _static_pair_index(stage, states)
        return self._pair_index

    def conducting_adjacency(self, stage: Stage, states: Optional[StateMap]
                             ) -> Dict[str, List[Tuple[Element, str]]]:
        if self._conducting is None:
            self._conducting = _conducting_adjacency(stage, states)
        return self._conducting


def enumerate_paths(network: Network, stage: Stage, target: str,
                    transition: Transition,
                    states: Optional[StateMap] = None,
                    caches: Optional[StageCaches] = None
                    ) -> List[SensitizedPath]:
    """All sensitizable (path, triggers) records for one output transition."""
    if target not in stage.internal_nodes:
        raise TimingError(
            f"node {target!r} is not internal to stage {stage.index}"
        )

    if caches is None:
        caches = StageCaches()
    adjacency = caches.conducting_adjacency(stage, states)
    driven_cache = caches.driven

    def qualifies(node: str) -> bool:
        # Can the node source the transition?  Rails by polarity, other
        # nodes when driven externally (memoized: transition-independent).
        if node == VDD:
            return transition is Transition.RISE
        if node == GND:
            return transition is not Transition.RISE
        hit = driven_cache.get(node)
        if hit is None:
            hit = driven_cache[node] = \
                network.node(node).is_driven_externally
        return hit

    raw_paths: List[Tuple[str, Tuple[PathElement, ...]]] = []

    def dfs(node: str, visited: Set[str],
            trail: List[PathElement]) -> None:
        if len(raw_paths) >= MAX_PATHS_PER_NODE:
            return
        for element, neighbor in adjacency.get(node, ()):  # walk backwards
            if neighbor in visited:
                continue
            hop = PathElement(element=element, from_node=neighbor,
                              to_node=node)
            if qualifies(neighbor):
                # Reached a source: trail runs target->source, so reverse
                # it to list hops from the source toward the target.
                path = tuple(reversed(trail + [hop]))
                raw_paths.append((neighbor, path))
                continue
            if neighbor not in stage.internal_nodes:
                continue  # a boundary node of the wrong polarity
            dfs(neighbor, visited | {neighbor}, trail + [hop])

    dfs(target, {target}, [])

    results: List[SensitizedPath] = []
    for source, elements in raw_paths:
        # Reorder hops from source to target (dfs built them backwards).
        triggers = _triggers_for(network, stage, source, elements,
                                 transition, states, adjacency, caches)
        if not triggers:
            continue
        results.append(SensitizedPath(
            stage_index=stage.index,
            source=source,
            target=target,
            transition=transition,
            elements=elements,
            triggers=tuple(triggers),
        ))
    return results


def _conducting_adjacency(stage: Stage, states: Optional[StateMap]
                          ) -> Dict[str, List[Tuple[Element, str]]]:
    """Node -> [(element, neighbor)] over possibly-conducting elements,
    built once per (stage, states) instead of rescanning the stage's
    device list for every visited node: what the path DFS and the side
    branches of a tree build walk."""
    adjacency: Dict[str, List[Tuple[Element, str]]] = {}

    def connect(element: Element, a: str, b: str) -> None:
        adjacency.setdefault(a, []).append((element, b))
        adjacency.setdefault(b, []).append((element, a))

    for device in stage.transistors:
        if _may_conduct(device, states):
            connect(device, device.source, device.drain)
    for res in stage.resistors:
        connect(res, res.node_a, res.node_b)
    return adjacency


def _triggers_for(network: Network, stage: Stage, source: str,
                  elements: Sequence[PathElement], transition: Transition,
                  states: Optional[StateMap],
                  adjacency: Dict[str, List[Tuple[Element, str]]],
                  caches: StageCaches) -> List[Trigger]:
    triggers: Dict[Tuple[str, Transition], Trigger] = {}

    path_devices = [e.element for e in elements if e.is_transistor]
    first_kind = (path_devices[0].kind if path_devices
                  else DeviceKind.NMOS_ENH)

    # on-triggers: a path device's gate turning it on.
    for hop in elements:
        if not hop.is_transistor:
            continue
        device = hop.element
        if device.kind is DeviceKind.NMOS_DEP:
            continue  # effectively always on
        gate = device.gate
        if gate in (VDD, GND):
            continue
        event = (gate, _turn_on_transition(device.kind))
        triggers.setdefault(event, Trigger(
            input_node=gate,
            input_transition=event[1],
            mechanism="on",
            device_kind=device.kind,
        ))

    # through-trigger: the source itself switching, propagated through an
    # already-on chain (every hop may conduct: the DFS walks no other).
    if source not in (VDD, GND):
        event = (source, transition)
        triggers.setdefault(event, Trigger(
            input_node=source,
            input_transition=transition,
            mechanism="through",
            device_kind=first_kind,
        ))

    # off-triggers: an opposing device releasing the node through the
    # same already-on chain.
    path_element_names = {e.element.name for e in elements}
    bridges_cache = caches.bridges
    target = elements[-1].to_node if elements else source
    for device in stage.transistors:
        if device.name in path_element_names:
            continue
        if device.kind is DeviceKind.NMOS_DEP:
            continue
        gate = device.gate
        if gate in (VDD, GND):
            continue
        # With known states, the opposing device must actually end up
        # OFF after the event; a gate settled at the conducting level
        # never released the node.
        gate_state = _state(states, gate)
        conducting_level = (Logic.ONE if device.kind is DeviceKind.NMOS_ENH
                            else Logic.ZERO)
        if gate_state is conducting_level:
            continue
        # A genuine opposing device bridges the target to a source of
        # the *opposite* level: one channel terminal must reach the
        # target and the other an opposing source, both without going
        # through the device itself.  (A pass device into a dead-end
        # storage node fails this and is correctly ignored.)  The
        # answer depends only on (device, target, transition), so it
        # is shared by every path of the stage ending at the target.
        bridge_key = (device.name, target, transition)
        bridges = bridges_cache.get(bridge_key)
        if bridges is None:
            bridges = bridges_cache[bridge_key] = _bridges_opposition(
                network, stage, device, target, transition, adjacency,
                caches)
        if not bridges:
            continue
        event = (gate, _turn_off_transition(device.kind))
        triggers.setdefault(event, Trigger(
            input_node=gate,
            input_transition=event[1],
            mechanism="off",
            device_kind=first_kind,
        ))
    return list(triggers.values())


def _reachable_without(stage: Stage, start: str, excluded: Transistor,
                       adjacency: Dict[str, List[Tuple[Element, str]]],
                       reach_cache: Dict[Tuple[str, str], Set[str]]
                       ) -> Set[str]:
    """Stage nodes (plus touched boundaries) reachable from *start*
    through possibly-conducting elements, never crossing *excluded*."""
    key = (excluded.name, start)
    cached = reach_cache.get(key)
    if cached is not None:
        return cached
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for element, other in adjacency.get(node, ()):
            if element.name == excluded.name:
                continue
            if other not in seen:
                seen.add(other)
                if other in stage.internal_nodes:
                    frontier.append(other)
    reach_cache[key] = seen
    return seen


def _bridges_opposition(network: Network, stage: Stage, device: Transistor,
                        target: str, transition: Transition,
                        adjacency: Dict[str, List[Tuple[Element, str]]],
                        caches: StageCaches) -> bool:
    """Does turning *device* off release *target* from the opposite level?

    True when one channel terminal reaches the target and the other
    reaches a source of the opposite polarity — each without crossing the
    device itself."""
    opposite = transition.opposite
    want_vdd = opposite is Transition.RISE
    reach_cache = caches.reach
    driven_cache = caches.driven
    for near, far in (device.channel, device.channel[::-1]):
        near_reach = _reachable_without(stage, near, device, adjacency,
                                        reach_cache)
        if target not in near_reach:
            continue
        far_reach = _reachable_without(stage, far, device, adjacency,
                                       reach_cache)
        for node in far_reach:
            if node == VDD:
                if want_vdd:
                    return True
                continue
            if node == GND:
                if not want_vdd:
                    return True
                continue
            hit = driven_cache.get(node)
            if hit is None:
                hit = driven_cache[node] = \
                    network.node(node).is_driven_externally
            if hit:
                return True
    return False


# ---------------------------------------------------------------------------
# RC-tree construction
# ---------------------------------------------------------------------------

def effective_node_cap(network: Network, node: str) -> float:
    """Grounded + floating capacitance lumped onto a node for delay
    modelling (floating caps are approximated as grounded — exact handling
    is the analog simulator's job)."""
    total = network.node_capacitance(node)
    for cap in network.capacitors_touching(node):
        total += cap.capacitance
    return total


def effective_node_caps(network: Network) -> Dict[str, float]:
    """:func:`effective_node_cap` of every node in one pass over the
    elements.  Each node sums the same terms in the same order (its own
    capacitance, gate caps and diffusion caps in device order, then
    floating caps), so every value is bit-equal to the per-node one."""
    caps = {node.name: node.capacitance for node in network.nodes}
    devices = network.transistors
    diffusion = []
    for device in devices:
        params = network.tech.params(device.kind)
        caps[device.gate] += params.gate_capacitance(device.width,
                                                     device.length)
        diffusion.append(params.diffusion_capacitance(device.width))
    for device, cap in zip(devices, diffusion):
        caps[device.source] += cap
        caps[device.drain] += cap
    for floating in network.capacitors:
        caps[floating.node_a] += floating.capacitance
        caps[floating.node_b] += floating.capacitance
    return caps


def _element_resistance(tech: Technology, element: Element,
                        transition: Transition) -> float:
    if isinstance(element, Resistor):
        return element.resistance
    return tech.resistance(element.kind, transition, element.width,
                           element.length)


def _static_pair_index(stage: Stage, states: Optional[StateMap]
                       ) -> Dict[FrozenSet[str], List[Element]]:
    """Channel-node pair -> statically-conducting elements across it
    (transistors that conduct without further events, plus resistors)."""
    index: Dict[FrozenSet[str], List[Element]] = {}
    for device in stage.transistors:
        if _may_conduct(device, states):
            index.setdefault(frozenset(device.channel), []).append(device)
    for res in stage.resistors:
        index.setdefault(frozenset((res.node_a, res.node_b)),
                         []).append(res)
    return index


def _merged_edge_resistance(network: Network, element: Element,
                            a: str, b: str, transition: Transition,
                            pair_index: Dict[FrozenSet[str], List[Element]],
                            cache: Optional[Dict[Tuple[str, Transition],
                                                 float]] = None) -> float:
    """Resistance of the hop *element* between nodes a and b, merged in
    parallel with every *other* element across the same node pair that
    conducts in the analyzed state (a CMOS transmission gate is two such
    devices; Crystal merges them the same way).  *cache* memoizes by
    (element name, transition) — each element spans one node pair, so the
    merge set (and therefore the value) is fixed per stage."""
    name = getattr(element, "name", None)
    if cache is not None:
        key = (name, transition)
        hit = cache.get(key)
        if hit is not None:
            return hit
    tech = network.tech
    conductance = 1.0 / _element_resistance(tech, element, transition)
    for other in pair_index.get(frozenset((a, b)), ()):
        if other.name == name:
            continue
        conductance += 1.0 / _element_resistance(tech, other, transition)
    resistance = 1.0 / conductance
    if cache is not None:
        cache[key] = resistance
    return resistance


def compile_template(network: Network, stage: Stage, path: SensitizedPath,
                     states: Optional[StateMap] = None,
                     include_branches: bool = True,
                     caches: Optional[StageCaches] = None,
                     caps: Optional[Mapping[str, float]] = None
                     ) -> TreeTemplate:
    """Compile the path's RC tree into a :class:`~repro.rctree.TreeTemplate`:
    root at the source, the path as the trunk, and conducting side
    branches (their capacitance loads the path), flattened root first.
    *caches* (a :class:`StageCaches`) amortizes the per-stage element
    scans across the stage's trees; *caps* is every node's effective
    capacitance (:func:`effective_node_caps`), computed per node when
    omitted."""
    if caches is None:
        caches = StageCaches()
    pair_index = caches.pair_index(stage, states)
    resistance_cache = caches.edge_resistance
    names = [path.source]
    parent = [-1]
    r = [0.0]
    c = [0.0]
    index = {path.source: 0}

    node_cap = (caps.__getitem__ if caps is not None
                else lambda node: effective_node_cap(network, node))

    def add(parent_name: str, node: str, element: Element) -> None:
        names.append(node)
        parent.append(index[parent_name])
        index[node] = len(names) - 1
        r.append(_merged_edge_resistance(
            network, element, parent_name, node, path.transition,
            pair_index, resistance_cache))
        c.append(node_cap(node) if node in stage.internal_nodes else 0.0)

    for hop in path.elements:
        add(hop.from_node, hop.to_node, hop.element)

    if include_branches:
        # Side branches: breadth-first from every path node through
        # devices that conduct, stopping at driven nodes and at nodes
        # already in the tree (re-convergent structures are approximated
        # by first-found attachment).
        static_adjacency = caches.conducting_adjacency(stage, states)
        frontier = [n for n in path.nodes if n in stage.internal_nodes]
        seen = set(names)
        while frontier:
            node = frontier.pop()
            for element, neighbor in static_adjacency.get(node, ()):
                if neighbor in seen:
                    continue
                if neighbor not in stage.internal_nodes:
                    continue  # a rail or driven node terminates the branch
                add(node, neighbor, element)
                seen.add(neighbor)
                frontier.append(neighbor)
    return TreeTemplate(names, parent, r, c)

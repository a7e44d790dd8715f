"""Structural sharing of per-stage timing derivations.

A gate-level circuit is built from a handful of cell shapes repeated
hundreds of times: every full adder of a 32-bit ripple-carry adder has
the same transistors in the same topology with the same geometry, only
the node names differ.  The timing engine's expensive first-visit work —
path enumeration, trigger derivation, RC-tree template compilation — is
a pure function of that *structure* (plus the sensitization states and
node capacitances), so doing it once per **distinct** structure and
instantiating the results for every further stage by name substitution
is exact, not an approximation.

:func:`stage_signature` computes a canonical, hashable fingerprint of
one stage: devices are scanned in netlist insertion order (which the
path enumerator's DFS order also follows), node ids are mapped to small
slot numbers at first appearance, and every numeric fact the enumeration or
tree construction reads is folded in — device kind/geometry, resistor
values, rail identity, internal/boundary membership, the per-node
sensitization state, the effective capacitance of internal nodes, and
the external drive of channel terminals.  Drive is read only where a
walk over channels lands on a node (the path enumerator's source test
and the opposing-device reachability check), so a node that is only a
gate contributes its identity and state alone: a NAND fed by ``a`` and
one fed by ``a``'s complement share a class.  Two stages with equal
signatures are therefore indistinguishable to
:mod:`repro.core.timing.paths` up to the node renaming, and their
derived resistance/capacitance values are bit-equal (same technology
lookups on same geometry).

The analyzer compiles each class once, on its lowest-index
*representative* stage, into a candidate program: per candidate its
trigger as a (slot, transition) and its delay-memo key.  Every stage of
the class instantiates the program through its own slot -> node-id
vector and shares the delay-model answers outright: its compiled
templates are bit-equal, so no per-stage copy of them is ever made.
:func:`translate_path` instantiates one representative path for the
stage — only a reader of an arrival's causal path ever needs it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ...netlist import GND, VDD, Network
from ...netlist.stages import Stage
from ...switchlevel import Logic
from ...tech import DeviceKind
from .paths import (
    Element,
    PathElement,
    SensitizedPath,
    StateMap,
    Trigger,
    effective_node_caps,
)
from .stage_graph import StageGraph

#: Sentinel slots for the rails (never clash with enumerated slots).
_VDD_ID = -2
_GND_ID = -3

_KIND_CODES: Dict[DeviceKind, int] = {k: i for i, k in enumerate(DeviceKind)}
_LOGIC_CODES: Dict[Logic, int] = {s: i for i, s in enumerate(Logic)}

#: A stage's canonical fingerprint (opaque, hashable).
Signature = Tuple


def stage_signature(network: Network, stage: Stage,
                    states: Optional[StateMap] = None,
                    caps: Optional[Mapping[str, float]] = None,
                    graph: Optional[StageGraph] = None
                    ) -> Tuple[Signature, Tuple[int, ...]]:
    """Canonical fingerprint of one stage, plus its node ids in slot
    order: slot *k* is the *k*-th distinct non-rail node met scanning the
    devices' (gate, source, drain) and the resistors' ends, in the
    stage's netlist insertion order (:func:`~repro.netlist.decompose_stages`
    keeps it), so every instance of a cell shape scans alike whatever
    its device names.  *graph* numbers the nodes and *caps* maps every
    node to its effective capacitance (both computed from *network* when
    omitted).

    Equal signatures guarantee the stages are isomorphic under the
    slot correspondence *and* numerically identical in every quantity
    the timing derivations read.
    """
    if graph is None:
        graph = StageGraph.build(network)
    if caps is None:
        caps = effective_node_caps(network)
    ids = graph.node_ids
    wiring = [ids[n] for d in stage.transistors
              for n in (d.gate, d.source, d.drain)]
    channels = len(wiring)
    wiring += [ids[n] for r in stage.resistors for n in (r.node_a, r.node_b)]
    rails = {ids[VDD]: _VDD_ID, ids[GND]: _GND_ID}
    nodes = tuple(n for n in dict.fromkeys(wiring) if n not in rails)
    slots = dict(zip(nodes, range(len(nodes))))
    slots.update(rails)

    internal = set(graph.internal[stage.index])
    terminals = set(wiring[1:channels:3])
    terminals.update(wiring[2:channels:3], wiring[channels:])
    names, driven = graph.node_names, graph.driven
    x_code = _LOGIC_CODES[Logic.X]
    facts: List[Tuple[bool, Optional[bool], int, float]] = []
    for node in nodes:
        name = names[node]
        is_internal = node in internal
        facts.append((
            is_internal,
            driven[node] if node in terminals else None,
            x_code if states is None
            else _LOGIC_CODES[states.get(name, Logic.X)],
            caps[name] if is_internal else 0.0,
        ))

    shape = (tuple((_KIND_CODES[d.kind], d.width, d.length)
                   for d in stage.transistors),
             tuple(r.resistance for r in stage.resistors))
    return (shape, tuple(map(slots.__getitem__, wiring)),
            tuple(facts)), nodes


def element_map(rep_stage: Stage, stage: Stage) -> Dict[str, Element]:
    """Representative element name -> this stage's corresponding element:
    the *k*-th device (then resistor) of one stage corresponds to the
    *k*-th of the other, both in netlist insertion order, the order their
    equal signatures were scanned in."""
    return {a.name: b for a, b in zip(
        rep_stage.transistors + rep_stage.resistors,
        stage.transistors + stage.resistors)}


def translate_path(path: SensitizedPath, name_map: Mapping[str, str],
                   elements: Mapping[str, Element],
                   stage_index: int) -> SensitizedPath:
    """Instantiate one of a representative stage's enumerated paths for
    an isomorphic stage: node names substituted, elements replaced by
    the stage's own devices, trigger order preserved (it carries the
    deterministic tie-break rank)."""
    return SensitizedPath(
        stage_index=stage_index,
        source=name_map.get(path.source, path.source),
        target=name_map.get(path.target, path.target),
        transition=path.transition,
        elements=tuple(
            PathElement(
                element=elements[hop.element.name],
                from_node=name_map.get(hop.from_node, hop.from_node),
                to_node=name_map.get(hop.to_node, hop.to_node),
            )
            for hop in path.elements
        ),
        triggers=tuple(
            Trigger(
                input_node=name_map.get(t.input_node, t.input_node),
                input_transition=t.input_transition,
                mechanism=t.mechanism,
                device_kind=t.device_kind,
            )
            for t in path.triggers
        ),
    )

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
path enumerator's DFS order also follows), nodes are renamed to small
integers at first appearance, and every numeric fact the enumeration or
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

The analyzer keeps one *representative* stage per signature; every other
stage reads the representative's path list, trigger events renamed
through the returned name correspondence, and shares its delay-model
answers outright: its compiled templates are bit-equal, so no per-stage
copy of them is ever made.  :func:`translate_path` instantiates one
representative path for the stage — only a reader of an arrival's causal
path ever needs it.
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
    _state,
    effective_node_cap,
)

#: Sentinel canonical ids for the rails (never clash with enumerated ids).
_VDD_ID = -2
_GND_ID = -3

_KIND_CODES: Dict[DeviceKind, int] = {k: i for i, k in enumerate(DeviceKind)}
_LOGIC_CODES: Dict[Logic, int] = {s: i for i, s in enumerate(Logic)}

#: A stage's canonical fingerprint (opaque, hashable).
Signature = Tuple


def stage_signature(network: Network, stage: Stage,
                    states: Optional[StateMap] = None,
                    cap_cache: Optional[Dict[str, float]] = None
                    ) -> Tuple[Signature, Tuple[str, ...]]:
    """Canonical fingerprint of one stage, plus its node names in
    canonical-id order (the substitution alphabet for translation).

    Equal signatures guarantee the stages are isomorphic under the
    returned name correspondence *and* numerically identical in every
    quantity the timing derivations read.
    """
    ids: Dict[str, int] = {}

    def nid(node: str) -> int:
        if node == VDD:
            return _VDD_ID
        if node == GND:
            return _GND_ID
        got = ids.get(node)
        if got is None:
            got = ids[node] = len(ids)
        return got

    devices = tuple(
        (_KIND_CODES[d.kind], d.width, d.length,
         nid(d.gate), nid(d.source), nid(d.drain))
        for d in stage.transistors
    )
    resistors = tuple(
        (r.resistance, nid(r.node_a), nid(r.node_b))
        for r in stage.resistors
    )

    internal = stage.internal_nodes
    terminals = {n for d in stage.transistors for n in d.channel}
    terminals.update(n for r in stage.resistors for n in (r.node_a, r.node_b))
    facts: List[Tuple[bool, Optional[bool], int, float]] = []
    for node in ids:  # dict preserves insertion order == id order
        is_internal = node in internal
        if not is_internal:
            cap = 0.0
        elif cap_cache is None:
            cap = effective_node_cap(network, node)
        else:
            cap = cap_cache.get(node)
            if cap is None:
                cap = cap_cache[node] = effective_node_cap(network, node)
        facts.append((
            is_internal,
            (network.node(node).is_driven_externally if node in terminals
             else None),
            _LOGIC_CODES[_state(states, node)],
            cap,
        ))

    return (devices, resistors, tuple(facts)), tuple(ids)


def build_maps(rep_names: Tuple[str, ...], names: Tuple[str, ...]
               ) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Forward (representative -> stage) and inverse name substitutions."""
    return dict(zip(rep_names, names)), dict(zip(names, rep_names))


def element_map(rep_stage: Stage, stage: Stage) -> Dict[str, Element]:
    """Representative element name -> this stage's corresponding element
    (devices correspond by netlist insertion position)."""
    emap: Dict[str, Element] = {}
    for a, b in zip(rep_stage.transistors, stage.transistors):
        emap[a.name] = b
    for a, b in zip(rep_stage.resistors, stage.resistors):
        emap[a.name] = b
    return emap


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

"""Channel-connected region (stage) decomposition.

The paper's delay models operate on *stages*: maximal sets of signal nodes
connected through transistor channels (and explicit wire resistors).  The
supply rails and primary inputs are *boundaries* — an edge may touch them,
but regions never merge across them, because those nodes are voltage
sources as far as a stage is concerned.

The decomposition is the same one Crystal and the switch-level simulators
of the era (MOSSIM II) use, and it is shared here by the switch-level
simulator, the delay models, and the timing analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..errors import NetlistError
from .network import Network
from .transistor import Resistor, Transistor


@dataclass
class Stage:
    """One channel-connected region.

    Attributes
    ----------
    index:
        Stable ordinal of the stage within its network.
    internal_nodes:
        Signal nodes belonging to the region (storage nodes).
    transistors / resistors:
        Elements whose channel (or body) lies in the region.
    boundary_nodes:
        Supply rails and primary inputs touched by the region's elements.
    gate_inputs:
        Gate nets of the region's transistors — the signals that control
        the stage.  A gate net may simultaneously be an internal node of
        the same stage (e.g. bootstrap circuits); such stages are flagged
        ``self_loop``.
    """

    index: int
    internal_nodes: FrozenSet[str]
    transistors: Tuple[Transistor, ...]
    resistors: Tuple[Resistor, ...]
    boundary_nodes: FrozenSet[str]
    gate_inputs: FrozenSet[str]

    @property
    def self_loop(self) -> bool:
        return bool(self.gate_inputs & self.internal_nodes)

    @property
    def all_nodes(self) -> FrozenSet[str]:
        return self.internal_nodes | self.boundary_nodes

    def contains(self, node: str) -> bool:
        return node in self.internal_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nodes = ",".join(sorted(self.internal_nodes))
        return f"<stage {self.index}: [{nodes}]>"


class _Region:
    """One stage under construction: its internal and boundary node ids,
    its elements and its gate names."""

    __slots__ = ("nodes", "boundary", "transistors", "resistors", "gates")

    def __init__(self) -> None:
        self.nodes: Set[int] = set()
        self.boundary: Set[int] = set()
        self.transistors: List[Transistor] = []
        self.resistors: List[Resistor] = []
        self.gates: Set[str] = set()


def decompose_stages(network: Network) -> List[Stage]:
    """Partition *network* into channel-connected regions.

    Every signal node that touches a transistor channel or a resistor
    belongs to exactly one stage.  Isolated signal nodes (gate-only nets,
    primary inputs that drive nothing resistively) do not form stages.
    Stages come in the order of their smallest internal node name, then
    one degenerate stage per boundary pair (below).  A stage keeps its
    transistors and resistors in netlist insertion order, the order the
    path enumerator and :func:`~repro.core.timing.stage_iso.stage_signature`
    scan them in: every instance of a cell shape then lists its devices
    alike, where name order would set apart an instance whose device
    names cross a digit boundary (``m97`` … ``m100``).

    The nodes are numbered locally, in the network's insertion order, and
    the regions are found by one union-find pass over those ints.
    """
    names = network.node_names
    number = dict(zip(names, range(len(names))))
    driven = [node.is_driven_externally for node in network.nodes]
    parent = list(range(len(names)))

    def find(item: int) -> int:
        # Iterative with full path compression: long pass-transistor
        # chains otherwise walk long parent chains on every lookup.
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    transistors = network.transistors
    resistors = network.resistors
    ends = [(number[d.source], number[d.drain]) for d in transistors]
    ends += [(number[r.node_a], number[r.node_b]) for r in resistors]

    # Pass 1: union internal nodes across channels and resistors.
    for a, b in ends:
        if not (driven[a] or driven[b]):
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_a] = root_b

    # Pass 2: bucket every element under its region's root in one sweep.
    # An element entirely between boundary nodes (e.g. a pass transistor
    # directly bridging two primary inputs) forms a degenerate stage with
    # no internal nodes: one per boundary pair, in the order of the pair's
    # first element, holding every element across the pair.
    regions: Dict[int, _Region] = {}
    pairs: Dict[Tuple[int, int], _Region] = {}
    count = len(transistors)
    for position, (a, b) in enumerate(ends):
        if driven[a] and driven[b]:
            region = pairs.get((b, a))
            if region is None:
                region = pairs.setdefault((a, b), _Region())
                region.boundary.update((a, b))
        else:
            inner = b if driven[a] else a
            root = find(inner)
            region = regions.get(root)
            if region is None:
                region = regions[root] = _Region()
            if driven[a]:
                region.boundary.add(a)
            elif driven[b]:
                region.boundary.add(b)
            else:
                region.nodes.add(b)
            region.nodes.add(inner)
        if position < count:
            device = transistors[position]
            region.transistors.append(device)
            region.gates.add(device.gate)
        else:
            region.resistors.append(resistors[position - count])

    def named(ids: Set[int]) -> FrozenSet[str]:
        return frozenset([names[node] for node in ids])

    found = [(named(region.nodes), region) for region in regions.values()]
    found.sort(key=lambda item: min(item[0]))
    stages: List[Stage] = []
    for internal, region in found:
        stages.append(Stage(
            index=len(stages),
            internal_nodes=internal,
            transistors=tuple(region.transistors),
            resistors=tuple(region.resistors),
            boundary_nodes=named(region.boundary),
            gate_inputs=frozenset(region.gates),
        ))
    for region in pairs.values():
        stages.append(Stage(
            index=len(stages),
            internal_nodes=frozenset(),
            transistors=tuple(region.transistors),
            resistors=tuple(region.resistors),
            boundary_nodes=named(region.boundary),
            gate_inputs=frozenset(region.gates),
        ))
    return stages


def stage_of(stages: List[Stage], node: str) -> Stage:
    """The unique stage whose internal nodes include *node*."""
    for stage in stages:
        if stage.contains(node):
            return stage
    raise NetlistError(f"node {node!r} is not an internal node of any stage")


@dataclass
class StageMap:
    """Index from node names to their stage, built once per network."""

    stages: List[Stage]
    by_node: Dict[str, Stage] = field(default_factory=dict)

    @classmethod
    def build(cls, network: Network) -> "StageMap":
        stages = decompose_stages(network)
        by_node: Dict[str, Stage] = {}
        for stage in stages:
            for node in stage.internal_nodes:
                by_node[node] = stage
        return cls(stages=stages, by_node=by_node)

    def get(self, node: str) -> Stage:
        try:
            return self.by_node[node]
        except KeyError:
            raise NetlistError(
                f"node {node!r} is not an internal node of any stage"
            ) from None

    def maybe(self, node: str):
        return self.by_node.get(node)

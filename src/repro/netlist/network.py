"""The :class:`Network` container — a transistor-level circuit.

A ``Network`` is the common substrate every analysis in the library works
on: the analog reference simulator, the switch-level simulator, and the
timing analyzer all consume the same object.  It owns:

* nodes (:class:`repro.netlist.node.Node`), including the two supply rails,
* transistors, explicit resistors and capacitors,
* the technology the devices belong to,
* connectivity indexes (which devices touch a node, by which terminal).

Construction is incremental (``add_transistor`` etc.); names are validated
eagerly so errors point at the offending element.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import NetlistError
from ..tech import DeviceKind, Technology
from .node import GND, VDD, Node, NodeRole, canonical_name
from .transistor import Capacitor, Resistor, Transistor


class Network:
    """A transistor-level circuit tied to a :class:`~repro.tech.Technology`."""

    def __init__(self, tech: Technology, name: str = "network"):
        self.tech = tech
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._transistors: Dict[str, Transistor] = {}
        self._resistors: Dict[str, Resistor] = {}
        self._capacitors: Dict[str, Capacitor] = {}
        # Connectivity indexes, maintained incrementally.
        self._gate_index: Dict[str, List[str]] = {}
        self._channel_index: Dict[str, List[str]] = {}
        self._resistor_index: Dict[str, List[str]] = {}
        self._capacitor_index: Dict[str, List[str]] = {}
        self._counter = 0
        self.add_node(VDD, role=NodeRole.POWER)
        self.add_node(GND, role=NodeRole.GROUND)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def add_node(self, name: str, role: NodeRole = NodeRole.SIGNAL,
                 capacitance: float = 0.0) -> Node:
        """Add (or fetch) a node.  Re-adding an existing node with a
        compatible role returns the existing object; extra capacitance
        accumulates."""
        # A key of _nodes is a canonical name, which canonicalizes to
        # itself: look the raw name up first (the parser's common case).
        existing = self._nodes.get(name)
        if existing is None:
            cname = canonical_name(name)
            existing = self._nodes.get(cname)
        else:
            cname = name
        if existing is not None:
            if role is not NodeRole.SIGNAL and existing.role is not role:
                if existing.role is NodeRole.SIGNAL:
                    existing.role = role
                else:
                    raise NetlistError(
                        f"node {cname!r} already exists with role "
                        f"{existing.role.value}, cannot redeclare as {role.value}"
                    )
            existing.capacitance += capacitance
            return existing
        if cname == VDD:
            role = NodeRole.POWER
        elif cname == GND:
            role = NodeRole.GROUND
        node = Node(name=cname, role=role, capacitance=capacitance)
        self._nodes[cname] = node
        return node

    def node(self, name: str) -> Node:
        cname = canonical_name(name)
        try:
            return self._nodes[cname]
        except KeyError:
            raise NetlistError(f"unknown node {cname!r}") from None

    def has_node(self, name: str) -> bool:
        return canonical_name(name) in self._nodes

    def mark_input(self, *names: str) -> None:
        """Declare nodes as primary inputs (externally driven)."""
        for name in names:
            node = self.node(name)
            if node.is_supply:
                raise NetlistError(f"cannot mark supply {node.name!r} as input")
            node.role = NodeRole.INPUT

    def add_transistor(self, kind: DeviceKind, gate: str, source: str,
                       drain: str, width: Optional[float] = None,
                       length: Optional[float] = None,
                       name: Optional[str] = None) -> Transistor:
        if not self.tech.has_kind(kind):
            raise NetlistError(
                f"technology {self.tech.name!r} has no {kind.name} devices"
            )
        if name is None:
            name = self._fresh_name("m")
        if name in self._transistors:
            raise NetlistError(f"duplicate transistor name {name!r}")
        # A stored name is canonical: only a new or aliased name needs
        # add_node (a netlist names each node on several devices).  The
        # device keeps the node's own name string, not the caller's
        # copy, so every reference to a node shares one string.
        nodes = self._nodes
        gate_n = (nodes.get(gate) or self.add_node(gate)).name
        source_n = (nodes.get(source) or self.add_node(source)).name
        drain_n = (nodes.get(drain) or self.add_node(drain)).name
        if source_n == drain_n:
            raise NetlistError(
                f"transistor {name!r}: source and drain are the same node "
                f"{source_n!r}"
            )
        device = Transistor(
            name, kind, gate_n, source_n, drain_n,
            self.tech.default_width if width is None else width,
            self.tech.default_length if length is None else length)
        self._transistors[name] = device
        self._gate_index.setdefault(gate_n, []).append(name)
        self._channel_index.setdefault(source_n, []).append(name)
        self._channel_index.setdefault(drain_n, []).append(name)
        return device

    def resize_transistor(self, name: str, width: Optional[float] = None,
                          length: Optional[float] = None) -> Transistor:
        """Replace a transistor's geometry in place (terminals unchanged).

        The in-place edit the sizing workflows use between analyses.
        Analyses cache state derived from device geometry (RC trees,
        memoized stage delays): any live
        :class:`~repro.core.timing.TimingAnalyzer` on this network must
        have ``invalidate_caches()`` called afterwards or it will keep
        answering for the old geometry.
        """
        old = self.transistor(name)
        device = Transistor(
            name=old.name,
            kind=old.kind,
            gate=old.gate,
            source=old.source,
            drain=old.drain,
            width=old.width if width is None else float(width),
            length=old.length if length is None else float(length),
        )
        self._transistors[name] = device
        return device

    def add_resistor(self, node_a: str, node_b: str, resistance: float,
                     name: Optional[str] = None) -> Resistor:
        if name is None:
            name = self._fresh_name("r")
        if name in self._resistors:
            raise NetlistError(f"duplicate resistor name {name!r}")
        a = self.add_node(node_a).name
        b = self.add_node(node_b).name
        if a == b:
            raise NetlistError(f"resistor {name!r} shorts node {a!r} to itself")
        element = Resistor(name=name, node_a=a, node_b=b, resistance=resistance)
        self._resistors[name] = element
        self._resistor_index.setdefault(a, []).append(name)
        self._resistor_index.setdefault(b, []).append(name)
        return element

    def add_capacitor(self, node_a: str, node_b: str, capacitance: float,
                      name: Optional[str] = None) -> Optional[Capacitor]:
        """Add a capacitor.  Caps with one terminal on a supply rail are
        folded into the signal node's grounded capacitance (and ``None`` is
        returned); true floating caps are kept as elements."""
        a = self.add_node(node_a)
        b = self.add_node(node_b)
        if capacitance <= 0:
            raise NetlistError(f"non-positive capacitance {capacitance}")
        if a.is_supply and b.is_supply:
            raise NetlistError("capacitor between two supply rails is meaningless")
        if a.is_supply or b.is_supply:
            target = b if a.is_supply else a
            target.capacitance += capacitance
            return None
        if name is None:
            name = self._fresh_name("c")
        if name in self._capacitors:
            raise NetlistError(f"duplicate capacitor name {name!r}")
        element = Capacitor(name=name, node_a=a.name, node_b=b.name,
                            capacitance=capacitance)
        self._capacitors[name] = element
        self._capacitor_index.setdefault(a.name, []).append(name)
        self._capacitor_index.setdefault(b.name, []).append(name)
        return element

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    @property
    def signal_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if not n.is_supply]

    @property
    def transistors(self) -> List[Transistor]:
        return list(self._transistors.values())

    @property
    def resistors(self) -> List[Resistor]:
        return list(self._resistors.values())

    @property
    def capacitors(self) -> List[Capacitor]:
        """Floating (node-to-node) capacitors only; grounded caps live on
        the nodes."""
        return list(self._capacitors.values())

    def transistor(self, name: str) -> Transistor:
        try:
            return self._transistors[name]
        except KeyError:
            raise NetlistError(f"unknown transistor {name!r}") from None

    def transistors_gated_by(self, node: str) -> List[Transistor]:
        """Devices whose gate is *node*."""
        cname = canonical_name(node)
        return [self._transistors[n] for n in self._gate_index.get(cname, [])]

    def transistors_touching(self, node: str) -> List[Transistor]:
        """Devices with a channel terminal on *node*."""
        cname = canonical_name(node)
        return [self._transistors[n] for n in self._channel_index.get(cname, [])]

    def resistors_touching(self, node: str) -> List[Resistor]:
        cname = canonical_name(node)
        return [self._resistors[n] for n in self._resistor_index.get(cname, [])]

    def capacitors_touching(self, node: str) -> List[Capacitor]:
        cname = canonical_name(node)
        return [self._capacitors[n] for n in self._capacitor_index.get(cname, [])]

    def channel_neighbors(self, node: str) -> Iterator[Tuple[str, Transistor]]:
        """Yield ``(other_node, device)`` for each channel edge at *node*."""
        for device in self.transistors_touching(node):
            yield device.other_channel_terminal(canonical_name(node)), device

    # ------------------------------------------------------------------
    # Derived electrical quantities
    # ------------------------------------------------------------------

    def node_capacitance(self, name: str) -> float:
        """Total grounded capacitance at a node: explicit + gate caps of
        devices gated by it + diffusion caps of devices touching it.

        Floating node-to-node capacitors are *not* included (the analog
        simulator handles them exactly; the switch-level delay models treat
        them via the stage extractor, which decides how to lump them).
        """
        node = self.node(name)
        total = node.capacitance
        for device in self.transistors_gated_by(node.name):
            params = self.tech.params(device.kind)
            total += params.gate_capacitance(device.width, device.length)
        for device in self.transistors_touching(node.name):
            params = self.tech.params(device.kind)
            total += params.diffusion_capacitance(device.width)
        return total

    def inputs(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.role is NodeRole.INPUT]

    def summary(self) -> str:
        return (
            f"network {self.name!r} ({self.tech.name}): "
            f"{len(self._nodes)} nodes, {len(self._transistors)} transistors, "
            f"{len(self._resistors)} resistors, "
            f"{len(self._capacitors)} floating caps"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.summary()}>"

    # ------------------------------------------------------------------
    # Iteration helpers used by the analyses
    # ------------------------------------------------------------------

    def conduction_edges(self) -> Iterator[Tuple[str, str, Transistor]]:
        """All channel edges as ``(node_a, node_b, device)``."""
        for device in self._transistors.values():
            yield device.source, device.drain, device

    def externally_driven(self) -> List[str]:
        """Names of nodes driven from outside (supplies + primary inputs)."""
        return [n.name for n in self._nodes.values() if n.is_driven_externally]

    def merge_from(self, other: "Network", prefix: str = "") -> Dict[str, str]:
        """Copy *other*'s elements into this network, optionally prefixing
        signal-node and element names.  Returns the node-name mapping.
        Supplies map onto supplies.  Both networks must share a technology.
        """
        if other.tech is not self.tech:
            raise NetlistError("cannot merge networks with different technologies")

        def map_name(name: str) -> str:
            node = other.node(name)
            if node.is_supply:
                return node.name
            return f"{prefix}{name}" if prefix else name

        mapping: Dict[str, str] = {}
        for node in other.nodes:
            new_name = map_name(node.name)
            mapping[node.name] = new_name
            if not node.is_supply:
                self.add_node(new_name, role=node.role,
                              capacitance=node.capacitance)
        for device in other.transistors:
            self.add_transistor(
                device.kind, map_name(device.gate), map_name(device.source),
                map_name(device.drain), device.width, device.length,
                name=f"{prefix}{device.name}" if prefix else device.name,
            )
        for res in other.resistors:
            self.add_resistor(map_name(res.node_a), map_name(res.node_b),
                              res.resistance,
                              name=f"{prefix}{res.name}" if prefix else res.name)
        for cap in other.capacitors:
            self.add_capacitor(map_name(cap.node_a), map_name(cap.node_b),
                               cap.capacitance,
                               name=f"{prefix}{cap.name}" if prefix else cap.name)
        return mapping

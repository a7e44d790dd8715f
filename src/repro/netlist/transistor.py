"""Transistors and passive elements of a switch-level netlist."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import NetlistError
from ..tech import DeviceKind


@dataclass(frozen=True, init=False)
class Transistor:
    """A MOS transistor viewed as a switch with a resistive channel.

    ``source`` and ``drain`` are interchangeable for switch-level purposes
    (the channel is bidirectional); the names are kept for netlist fidelity.
    Geometry is in metres.
    """

    # Slots: an analysis reads device fields some 17 times as often as
    # a parse makes devices (about 24 400 reads per cold rca32 analysis
    # against 1408 devices), and a slot is the cheapest field to read.
    # ``__init__`` writes through the slot descriptors, since the frozen
    # dataclass's ``__setattr__`` refuses every write.
    __slots__ = ("name", "kind", "gate", "source", "drain", "width", "length")

    name: str
    kind: DeviceKind
    gate: str
    source: str
    drain: str
    width: float
    length: float

    def __init__(self, name: str, kind: DeviceKind, gate: str, source: str,
                 drain: str, width: float, length: float) -> None:
        if width <= 0 or length <= 0:
            raise NetlistError(
                f"transistor {name!r}: non-positive geometry "
                f"W={width}, L={length}"
            )
        _set_name(self, name)
        _set_kind(self, kind)
        _set_gate(self, gate)
        _set_source(self, source)
        _set_drain(self, drain)
        _set_width(self, width)
        _set_length(self, length)

    def __reduce__(self):
        # Pickle and copy through __init__: the default slot state is
        # restored with setattr, which a frozen instance refuses.
        return (type(self), (self.name, self.kind, self.gate, self.source,
                             self.drain, self.width, self.length))

    @property
    def channel(self) -> Tuple[str, str]:
        """The two channel terminals."""
        return (self.source, self.drain)

    def other_channel_terminal(self, node: str) -> str:
        """The channel terminal opposite *node*."""
        if node == self.source:
            return self.drain
        if node == self.drain:
            return self.source
        raise NetlistError(
            f"node {node!r} is not a channel terminal of {self.name!r}"
        )

    @property
    def is_load(self) -> bool:
        """True for a depletion device wired as a load (gate tied to a
        channel terminal) — it conducts unconditionally."""
        return self.kind is DeviceKind.NMOS_DEP and self.gate in self.channel

    def shape_factor(self) -> float:
        """W/L — proportional to drive strength."""
        return self.width / self.length


_set_name = Transistor.name.__set__
_set_kind = Transistor.kind.__set__
_set_gate = Transistor.gate.__set__
_set_source = Transistor.source.__set__
_set_drain = Transistor.drain.__set__
_set_width = Transistor.width.__set__
_set_length = Transistor.length.__set__


@dataclass(frozen=True)
class Resistor:
    """An explicit resistor (wire/poly resistance in RC interconnect)."""

    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise NetlistError(
                f"resistor {self.name!r}: non-positive value {self.resistance}"
            )

    def other_terminal(self, node: str) -> str:
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise NetlistError(f"node {node!r} is not a terminal of {self.name!r}")


@dataclass(frozen=True)
class Capacitor:
    """An explicit two-terminal capacitor.

    Capacitors to a supply rail are folded into the node's grounded
    capacitance by :class:`repro.netlist.Network`; floating (node-to-node)
    capacitors — e.g. the bootstrap capacitor of an nMOS driver — are kept
    as two-terminal elements and honoured by the analog simulator.
    """

    name: str
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise NetlistError(
                f"capacitor {self.name!r}: non-positive value {self.capacitance}"
            )

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
        # One netlist line makes one device: write the fields straight
        # into the instance dict, in declaration order (so every instance
        # shares one key table), instead of the frozen dataclass's
        # object.__setattr__ per field.
        fields = self.__dict__
        fields["name"] = name
        fields["kind"] = kind
        fields["gate"] = gate
        fields["source"] = source
        fields["drain"] = drain
        fields["width"] = width
        fields["length"] = length

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

"""Charge-sharing hazard analysis.

Dynamic MOS circuits store state as charge; when a pass device opens
between a storage node and a larger, oppositely-charged capacitance with
no rail on the far side, the stored level is corrupted before anything
can restore it.  Crystal's companion checks flagged exactly this; the
analyzer here reproduces them structurally:

for every gated transistor in a stage, split the stage at that device and
compare the capacitance (and driven-ness) of the two sides.  A side that
is pure storage and faces a bigger undriven opposite-side capacitance is
reported as a :class:`ChargeSharingHazard` with the post-sharing voltage
estimate ``C_node / (C_node + C_other) * Vdd``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ...netlist import Network
from ...netlist.stages import Stage, StageMap
from ...netlist.transistor import Transistor
from ...switchlevel import Logic
from ...tech import DeviceKind
from .paths import StateMap, effective_node_cap


@dataclass(frozen=True)
class ChargeSharingHazard:
    """A storage node whose level is vulnerable when *device* turns on.

    ``surviving_fraction`` estimates the normalized level left on the
    storage side after sharing (1.0 = untouched); ``severity`` is the
    complementary fraction lost.
    """

    storage_node: str
    device: str
    storage_cap: float
    exposed_cap: float
    surviving_fraction: float

    @property
    def severity(self) -> float:
        return 1.0 - self.surviving_fraction

    def __str__(self) -> str:
        return (f"{self.storage_node}: opening {self.device} exposes "
                f"{self.exposed_cap * 1e15:.1f}fF against "
                f"{self.storage_cap * 1e15:.1f}fF stored -> level drops to "
                f"{self.surviving_fraction:.0%}")


def _side_of(network: Network, stage: Stage, start: str,
             blocked: Transistor,
             states: Optional[StateMap]) -> Tuple[Set[str], bool]:
    """Nodes reachable from *start* without crossing *blocked*, through
    devices that are on (or may be on) in *states*; returns (nodes,
    reaches_a_driven_node)."""
    from .paths import _may_conduct  # shared conduction semantics

    seen = {start}
    frontier = [start]
    driven = False
    while frontier:
        node = frontier.pop()
        for device in stage.transistors:
            if device.name == blocked.name:
                continue
            if node not in device.channel:
                continue
            if not _may_conduct(device, states):
                continue
            other = device.other_channel_terminal(node)
            if other not in stage.internal_nodes:
                driven = True
                continue
            if other not in seen:
                seen.add(other)
                frontier.append(other)
        for res in stage.resistors:
            if node not in (res.node_a, res.node_b):
                continue
            other = res.other_terminal(node)
            if other not in stage.internal_nodes:
                driven = True
            elif other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen, driven


def find_charge_sharing_hazards(
        network: Network,
        states: Optional[Mapping[str, Logic]] = None,
        threshold: float = 0.25) -> List[ChargeSharingHazard]:
    """Scan every stage for charge-sharing exposures.

    *states* (typically a settled switch-level snapshot) determines which
    devices count as conducting on each side; *threshold* is the minimum
    fraction of stored level lost before a hazard is reported.
    """
    stage_map = StageMap.build(network)
    hazards: List[ChargeSharingHazard] = []
    for stage in stage_map.stages:
        for device in stage.transistors:
            if device.kind is DeviceKind.NMOS_DEP:
                continue  # always on: no "opening" event
            a, b = device.channel
            if (a not in stage.internal_nodes
                    or b not in stage.internal_nodes):
                continue  # one side is driven: restoring, not sharing
            side_a, driven_a = _side_of(network, stage, a, device, states)
            side_b, driven_b = _side_of(network, stage, b, device, states)
            if side_a & side_b:
                continue  # a parallel route exists; not an isolation event
            for storage, storage_side, storage_driven, other_side, \
                    other_driven in (
                        (a, side_a, driven_a, side_b, driven_b),
                        (b, side_b, driven_b, side_a, driven_a)):
                if storage_driven or other_driven:
                    continue  # a rail restores the level after sharing
                storage_cap = sum(effective_node_cap(network, n)
                                  for n in storage_side)
                exposed_cap = sum(effective_node_cap(network, n)
                                  for n in other_side)
                total = storage_cap + exposed_cap
                if total <= 0:
                    continue
                surviving = storage_cap / total
                if (1.0 - surviving) < threshold:
                    continue
                hazards.append(ChargeSharingHazard(
                    storage_node=storage,
                    device=device.name,
                    storage_cap=storage_cap,
                    exposed_cap=exposed_cap,
                    surviving_fraction=surviving,
                ))
    # Worst (most charge lost) first; deterministic tie-break.
    hazards.sort(key=lambda h: (-h.severity, h.storage_node, h.device))
    return _deduplicate(hazards)


def _deduplicate(hazards: List[ChargeSharingHazard]
                 ) -> List[ChargeSharingHazard]:
    seen: Dict[Tuple[str, str], ChargeSharingHazard] = {}
    for hazard in hazards:
        key = (hazard.storage_node, hazard.device)
        if key not in seen:
            seen[key] = hazard
    return list(seen.values())


def format_hazard_report(hazards: List[ChargeSharingHazard]) -> str:
    if not hazards:
        return "charge-sharing: no hazards found"
    lines = [f"charge-sharing: {len(hazards)} hazard(s)"]
    lines.extend("  " + str(h) for h in hazards)
    return "\n".join(lines)

"""Transistor-level netlist substrate: nodes, devices, stages, file formats.

The checks (:mod:`.validate`) and the SPICE reader (:mod:`.spice_format`)
load on first read of their names (DESIGN.md §8).
"""

from .._lazy import lazy_exports
from .node import GND, VDD, Node, NodeRole, canonical_name
from .transistor import Capacitor, Resistor, Transistor
from .network import Network
from .stages import Stage, StageMap, decompose_stages, stage_of
from . import sim_format

__all__ = [
    "GND",
    "VDD",
    "Node",
    "NodeRole",
    "canonical_name",
    "Capacitor",
    "Resistor",
    "Transistor",
    "Network",
    "Stage",
    "StageMap",
    "decompose_stages",
    "stage_of",
    "Diagnostic",
    "Severity",
    "validate_network",
    "validate_strict",
    "sim_format",
    "spice_format",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(("Diagnostic", "Severity", "validate_network",
                     "validate_strict"), "validate"),
    "spice_format": "spice_format",
})

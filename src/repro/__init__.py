"""repro — Switch-Level Delay Models for Digital MOS VLSI.

A full reproduction of J. K. Ousterhout, "Switch-Level Delay Models for
Digital MOS VLSI", Proc. 21st Design Automation Conference, 1984 (the
delay models behind the Crystal timing analyzer), including every substrate
the paper depends on:

* :mod:`repro.netlist` — transistor-level netlists, `.sim`/SPICE formats,
  channel-connected-region (stage) decomposition;
* :mod:`repro.analog` — an MNA/level-1 transient simulator, the accuracy
  reference standing in for SPICE;
* :mod:`repro.switchlevel` — a ternary, strength-based switch-level logic
  simulator;
* :mod:`repro.rctree` — Elmore delay, Penfield-Rubinstein-Horowitz bounds,
  exact step responses;
* :mod:`repro.core.models` — the paper's three delay models (lumped RC,
  RC tree, slope) and the table characterization engine;
* :mod:`repro.core.timing` — a Crystal-style static timing analyzer;
* :mod:`repro.circuits` — the evaluation's benchmark circuits;
* :mod:`repro.bench` — the harness regenerating the paper's tables/figures.

Quick start::

    from repro import CMOS3, Transition, analyze, inverter_chain

    chain = inverter_chain(CMOS3, stages=4, fanout=2)
    result = analyze(chain, inputs={"in": 0.0})
    print(result.arrival("out", Transition.RISE).time)

See ``examples/`` for runnable walkthroughs and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from ._lazy import lazy_exports
from .errors import (
    AnalysisError,
    ConvergenceError,
    MeasurementError,
    NetlistError,
    ParseError,
    ReproError,
    SimulationError,
    SweepError,
    TechnologyError,
    TimingError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "AnalysisError", "ConvergenceError", "MeasurementError", "NetlistError",
    "ParseError", "ReproError", "SimulationError", "SweepError",
    "TechnologyError", "TimingError", "ValidationError",
    # tech
    "CMOS3", "NMOS4", "DeviceKind", "Technology", "Transition",
    # netlist
    "Network", "decompose_stages", "validate_network",
    # analog
    "Waveform", "delay_between", "operating_point", "simulate",
    # switch level
    "Logic", "SwitchSimulator",
    # rc tree
    "RCTree", "delay_bounds", "elmore_delay", "exact_delay",
    # core
    "InputSpec", "LumpedRCModel", "RCTreeModel", "SlopeModel",
    "TimingAnalyzer", "TimingResult", "analyze", "characterize_technology",
    "standard_models",
    # circuits
    "Gates", "bootstrap_driver", "full_adder", "inverter_chain",
    "nand_gate", "nor_gate", "pass_chain", "precharged_bus",
    "ripple_carry_adder", "xor_gate",
    # batch sweeps
    "CartesianSweep", "ExplicitVectors", "RandomVectors", "SweepResult",
    "Vector", "load_vector_file", "run_scenarios", "run_sweep",
    "__version__",
]

#: Everything but the errors resolves on first read (PEP 562), so a bare
#: ``import repro`` loads no engine, and nothing that loads numpy.
__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(("CMOS3", "NMOS4", "DeviceKind", "Technology",
                     "Transition"), "tech"),
    **dict.fromkeys(("Network", "decompose_stages", "validate_network"),
                    "netlist"),
    **dict.fromkeys(("Waveform", "delay_between", "operating_point",
                     "simulate"), "analog"),
    **dict.fromkeys(("Logic", "SwitchSimulator"), "switchlevel"),
    **dict.fromkeys(("RCTree", "delay_bounds", "elmore_delay"), "rctree"),
    "exact_delay": "rctree.exact",
    **dict.fromkeys(("InputSpec", "LumpedRCModel", "RCTreeModel",
                     "SlopeModel", "TimingAnalyzer", "TimingResult",
                     "analyze", "characterize_technology",
                     "standard_models"), "core"),
    **dict.fromkeys(("Gates", "bootstrap_driver", "full_adder",
                     "inverter_chain", "nand_gate", "nor_gate", "pass_chain",
                     "precharged_bus", "ripple_carry_adder", "xor_gate"),
                    "circuits"),
    **dict.fromkeys(("CartesianSweep", "ExplicitVectors", "RandomVectors",
                     "SweepResult", "Vector", "load_vector_file",
                     "run_scenarios", "run_sweep"), "batch"),
})

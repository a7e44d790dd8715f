"""The timing path runs without the analog stack, and loads only what
it runs.

``repro-crystal timing``, ``sweep``, ``hazards``, ``validate`` and
``switch`` and the timing daemon never simulate, so they must not import
numpy or :mod:`repro.analog`.  The package roots import eagerly only
what ``timing`` runs and resolve every other name on first read
(PEP 562), so every exported name still works; the CLI imports each
subcommand's own modules inside that subcommand.  These tests run the
CLI in a child process that cannot import numpy, check which modules
each subcommand loaded, and check the lazy names and the one-pass
arrival table against the lookups they replace.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import batch, netlist, rctree, switchlevel, trace
from repro.batch import parse_timing_token
from repro.core import timing
from repro.cli import main
from repro.core.timing import TimingAnalyzer, arrival_table
from repro.netlist import sim_format
from repro.tech import CMOS3, Transition
from repro.units import format_value

ROOT = pathlib.Path(__file__).parent.parent
DATAPATH = str(ROOT / "examples" / "datapath.sim")
NAND2 = str(ROOT / "examples" / "nand2.sim")
NAND2_VEC = str(ROOT / "examples" / "nand2.vec")

#: Modules the ``timing`` subcommand never runs.  A subcommand may load
#: only those its own code runs (``RUNS``).
OFF_TIMING_PATH = (
    "repro.analog",
    "repro.batch.report",
    "repro.batch.sweep",
    "repro.circuits",
    "repro.core.timing.clocking",
    "repro.core.timing.hazards",
    "repro.netlist.spice_format",
    "repro.netlist.validate",
    "repro.rctree.exact",
    "repro.switchlevel.simulator",
    "repro.switchlevel.solver",
    "repro.trace.export",
)

RUNS = {
    "sweep": {"repro.batch.sweep", "repro.batch.report"},
    "hazards": {"repro.core.timing.hazards"},
    "validate": {"repro.netlist.validate"},
    "switch": {"repro.switchlevel.simulator", "repro.switchlevel.solver"},
}

#: A child process in which ``import numpy`` fails: it runs the CLI on
#: the arguments after its first, and fails if it loaded any module the
#: comma-separated first argument names.
BLOCKED_CLI = """\
import sys
sys.modules["numpy"] = None
from repro.cli import main
code = main(sys.argv[2:])
loaded = [name for name in sys.argv[1].split(",") if name in sys.modules]
if loaded:
    raise SystemExit(f"{sys.argv[2]} loaded {' '.join(loaded)}")
raise SystemExit(code)
"""

#: The same block around importing the package and the timing daemon.
BLOCKED_IMPORTS = """\
import sys
sys.modules["numpy"] = None
import repro
print(" ".join(sorted(name for name in sys.modules
                      if name.startswith("repro"))))
import repro.service.daemon
loaded = sorted(name for name in sys.modules
                if name.startswith(("repro.analog", "repro.rctree.exact")))
print(" ".join(loaded) or "none")
"""

#: A fresh process that prints the exports its package root's ``dir()``
#: misses before any lazy name is read.
DIR_MISSES = """\
import importlib
import sys
package = importlib.import_module(sys.argv[1])
print(" ".join(sorted(set(package.__all__) - set(dir(package)))) or "none")
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(script, *args):
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=120)


def _datapath_inputs():
    """Every datapath input named, as the ``cli_cold`` benchmark does."""
    network = sim_format.load(DATAPATH, CMOS3)
    names = sorted(node.name for node in network.inputs())
    tokens = ("0", "200p", "500p")
    return [f"{name}={tokens[i % 3]}" for i, name in enumerate(names)]


def _timing_argv(*extra):
    argv = ["timing", DATAPATH, "--tech", "cmos3", *extra]
    for token in _datapath_inputs():
        argv += ["--input", token]
    return argv


class TestWithoutNumpy:
    @pytest.mark.parametrize("argv", [
        _timing_argv(),
        _timing_argv("--no-characterize"),
        ["sweep", NAND2, "--vectors", NAND2_VEC],
        ["hazards", DATAPATH],
        ["validate", NAND2],
        ["switch", NAND2, "--set", "a=1", "--set", "b=0"],
    ], ids=["timing", "timing-analytic", "sweep", "hazards", "validate",
            "switch"])
    def test_cli_prints_the_same_bytes(self, argv, capsys):
        # The child also fails if it loaded a module off the timing path
        # that this subcommand does not run.
        off_path = set(OFF_TIMING_PATH) - RUNS.get(argv[0], set())
        child = _run_child(BLOCKED_CLI, ",".join(sorted(off_path)), *argv)
        assert child.returncode == 0, child.stderr
        code = main(argv)
        assert code == 0
        assert child.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["characterize", "--tech", "cmos3"],
        ["verify", "--cases", "1"],
    ], ids=["characterize", "verify"])
    def test_simulating_subcommand_prints_one_error(self, argv):
        child = _run_child(BLOCKED_CLI, "", *argv)
        assert child.returncode == 2
        assert child.stderr == (f"error: {argv[0]} needs numpy, which is "
                                f"not installed\n")

    def test_package_and_daemon_import(self):
        child = _run_child(BLOCKED_IMPORTS)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "repro repro._lazy repro.errors\nnone\n"


#: The names each package root resolves on first read, with the module
#: that defines them (or, for a submodule, the submodule itself).
LAZY = {
    repro: {"Waveform": "repro.analog", "delay_between": "repro.analog",
            "operating_point": "repro.analog", "simulate": "repro.analog",
            "exact_delay": "repro.rctree.exact",
            "CMOS3": "repro.tech", "Network": "repro.netlist",
            "validate_network": "repro.netlist.validate",
            "SwitchSimulator": "repro.switchlevel.simulator",
            "RCTree": "repro.rctree", "analyze": "repro.core.timing",
            "characterize_technology": "repro.core.models",
            "ripple_carry_adder": "repro.circuits",
            "Vector": "repro.batch.vectors",
            "run_sweep": "repro.batch.sweep"},
    rctree: {"StepResponse": "repro.rctree.exact",
             "exact_delay": "repro.rctree.exact",
             "step_response": "repro.rctree.exact"},
    timing: {**dict.fromkeys(
        ("ClockPhase", "ClockSchedule", "ClockedTimingResult", "SetupCheck",
         "analyze_clocked", "format_setup_report", "minimum_period",
         "setup_checks"), "repro.core.timing.clocking"),
        **dict.fromkeys(
        ("ChargeSharingHazard", "find_charge_sharing_hazards",
         "format_hazard_report"), "repro.core.timing.hazards")},
    netlist: {**dict.fromkeys(
        ("Diagnostic", "Severity", "validate_network", "validate_strict"),
        "repro.netlist.validate"),
        "spice_format": "repro.netlist.spice_format"},
    switchlevel: {**dict.fromkeys(
        ("Conduction", "conduction_state", "solve_stage"),
        "repro.switchlevel.solver"),
        **dict.fromkeys(
        ("SimulationTrace", "SwitchSimulator", "exhaustive_truth_table"),
        "repro.switchlevel.simulator")},
    batch: {**dict.fromkeys(
        ("OrderStats", "ScenarioOutcome", "SweepResult", "run_scenarios",
         "run_sweep"), "repro.batch.sweep"),
        **dict.fromkeys(("format_sweep_profile", "format_sweep_summary"),
                        "repro.batch.report")},
    trace: dict.fromkeys(
        ("SpanStats", "aggregate_spans", "chrome_trace_events",
         "format_trace_summary", "validate_trace", "validate_trace_file",
         "write_chrome_trace"), "repro.trace.export"),
}


@pytest.mark.parametrize("package", list(LAZY),
                         ids=[package.__name__ for package in LAZY])
class TestLazyNames:
    def test_lazy_names_are_the_defining_modules_objects(self, package):
        lazy = LAZY[package]
        assert set(lazy) <= set(package.__all__)
        for name, home in lazy.items():
            module = importlib.import_module(home)
            expected = (module if home.endswith(f".{name}")
                        else getattr(module, name))
            assert getattr(package, name) is expected

    def test_every_exported_name_resolves(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            module = getattr(value, "__module__", None)
            qualname = getattr(value, "__qualname__", None)
            if module and qualname:
                assert getattr(sys.modules[module], qualname) is value

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    def test_unknown_attribute_raises(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")

    def test_dir_lists_every_export_before_first_read(self, package):
        child = _run_child(DIR_MISSES, package.__name__)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "none\n"


def _reference_table(result, nodes=None):
    """The arrival table rendered with a per-node, per-edge lookup."""
    names = sorted({event.node for event in result.arrivals})
    if nodes is not None:
        wanted = {result.network.node(n).name for n in nodes}
        names = [n for n in names if n in wanted]
    lines = [f"{'node':>16s} {'rise':>12s} {'fall':>12s}"]
    for name in names:
        cells = [format_value(result.arrival(name, transition).time, "s")
                 if result.has_arrival(name, transition) else "-"
                 for transition in (Transition.RISE, Transition.FALL)]
        lines.append(f"{name:>16s} {cells[0]:>12s} {cells[1]:>12s}")
    return "\n".join(lines)


class TestArrivalTable:
    @pytest.fixture(scope="class")
    def result(self):
        # Single-edge and static inputs leave some nodes one edge only.
        network = sim_format.load(DATAPATH, CMOS3)
        names = sorted(node.name for node in network.inputs())
        tokens = ("0", "200p:rise", "500p:fall", "-")
        inputs = dict(parse_timing_token(f"{name}={tokens[i % 4]}")
                      for i, name in enumerate(names))
        return TimingAnalyzer(network).analyze(inputs)

    def test_whole_table(self, result):
        table = arrival_table(result)
        assert table == _reference_table(result)
        assert " -\n" in table

    def test_node_subset(self, result):
        nodes = [" s3.a0 ", "s0.cin", "s0.a1", "s11.b1"]
        nodes += [event.node for event in list(result.arrivals)[-40:]]
        assert arrival_table(result, nodes) == _reference_table(
            result, nodes)

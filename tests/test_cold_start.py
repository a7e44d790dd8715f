"""The timing path runs without the analog stack.

``repro-crystal timing``, ``sweep`` and ``hazards`` and the timing daemon
never simulate, so they must not import numpy or :mod:`repro.analog`.
The package roots (``repro`` and ``repro.rctree``) resolve the analog
and exact-step-response names on first read (PEP 562), so every
exported name still works.  These tests run the CLI in a child process
that cannot import numpy, and check the lazy names and the one-pass
arrival table against the lookups they replace.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import rctree
from repro.batch import parse_timing_token
from repro.cli import main
from repro.core.timing import TimingAnalyzer, arrival_table
from repro.netlist import sim_format
from repro.tech import CMOS3, Transition
from repro.units import format_value

ROOT = pathlib.Path(__file__).parent.parent
DATAPATH = str(ROOT / "examples" / "datapath.sim")
NAND2 = str(ROOT / "examples" / "nand2.sim")
NAND2_VEC = str(ROOT / "examples" / "nand2.vec")

#: A child process in which ``import numpy`` fails: it runs the CLI on
#: its arguments and fails if the analog simulator was loaded.
BLOCKED_CLI = """\
import sys
sys.modules["numpy"] = None
from repro.cli import main
code = main(sys.argv[1:])
if "repro.analog" in sys.modules:
    raise SystemExit("repro.analog was imported")
raise SystemExit(code)
"""

#: The same block around importing the package and the timing daemon.
BLOCKED_IMPORTS = """\
import sys
sys.modules["numpy"] = None
import repro
import repro.service.daemon
loaded = sorted(name for name in sys.modules
                if name.startswith(("repro.analog", "repro.rctree.exact")))
print(" ".join(loaded) or "none")
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_blocked(script, *args):
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
    ], ids=["timing", "timing-analytic", "sweep", "hazards"])
    def test_cli_prints_the_same_bytes(self, argv, capsys):
        child = _run_blocked(BLOCKED_CLI, *argv)
        assert child.returncode == 0, child.stderr
        code = main(argv)
        assert code == 0
        assert child.stdout == capsys.readouterr().out

    def test_package_and_daemon_import(self):
        child = _run_blocked(BLOCKED_IMPORTS)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "none\n"


#: The names each package root resolves on first read, with the module
#: that defines them.
LAZY = {
    repro: {"Waveform": "repro.analog", "delay_between": "repro.analog",
            "operating_point": "repro.analog", "simulate": "repro.analog",
            "exact_delay": "repro.rctree.exact"},
    rctree: {"StepResponse": "repro.rctree.exact",
             "exact_delay": "repro.rctree.exact",
             "step_response": "repro.rctree.exact"},
}


@pytest.mark.parametrize("package", [repro, rctree],
                         ids=["repro", "repro.rctree"])
class TestLazyNames:
    def test_lazy_names_are_the_defining_modules_objects(self, package):
        lazy = LAZY[package]
        assert set(lazy) <= set(package.__all__)
        for name, home in lazy.items():
            assert getattr(package, name) is getattr(
                importlib.import_module(home), name)

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

"""The conformance subsystem end to end (ISSUE 8 tentpole).

Generator determinism and validity, the engine-mode registry and its
``--modes`` parsing, clean-engine conformance across seeds,
and the acceptance gate: an intentionally injected kernel bug (the
``set_constants_scale`` hook in ``rctree/kernel.py``) must be *caught*
by the kernel invariant and *shrunk* to a reproducer of at most 8
transistors.
"""

import pytest

from repro.core.timing.stage_graph import StageGraph
from repro.errors import ReproError
from repro.netlist import sim_format
from repro.perf import PerfCounters
from repro.perf.counters import STANDARD_COUNTERS
from repro.rctree import kernel
from repro.tech import CMOS3, NMOS4
from repro.verify import (
    MODES,
    ConformanceConfig,
    ConformanceRunner,
    check_case,
    check_kernel_invariant,
    format_verify_report,
    generate_case,
    mode_from_name,
    parse_modes,
)


@pytest.fixture
def template_bug():
    """Install the injected kernel bug; always uninstall afterwards."""
    kernel.set_constants_scale(1.02)
    yield
    kernel.set_constants_scale(None)


class TestGenerator:
    def test_same_seed_same_case(self):
        for index in range(6):
            a = generate_case(CMOS3, seed=5, index=index)
            b = generate_case(CMOS3, seed=5, index=index)
            assert a.name == b.name and a.family == b.family
            assert sim_format.dumps(a.network) == sim_format.dumps(b.network)
            assert [v.inputs for v in a.vectors] == [v.inputs
                                                     for v in b.vectors]

    def test_cases_are_valid(self):
        for index in range(10):
            case = generate_case(CMOS3, seed=2, index=index)
            assert case.size > 0
            assert not StageGraph.build(case.network).has_feedback()
            input_names = {n.name for n in case.network.inputs()}
            assert input_names, case.name
            for vector in case.vectors:
                assert set(vector.inputs) == input_names, case.name
                assert any(
                    spec.arrival_rise is not None
                    or spec.arrival_fall is not None
                    for spec in vector.inputs.values()), (
                    f"{case.name}/{vector.label} has no transition")

    def test_clocked_cases_carry_schedule(self):
        clocked = [generate_case(CMOS3, seed=0, index=i) for i in range(30)]
        clocked = [c for c in clocked if c.family == "clocked"]
        assert clocked, "no clocked case in 30 draws"
        for case in clocked:
            assert case.schedule is not None
            assert set(case.clocks) == {"phi1", "phi2"}
            phase = case.schedule.phase("phi1")
            for vector in case.vectors:
                spec = vector.inputs["phi1"]
                assert spec.arrival_rise == phase.rise
                assert spec.arrival_fall == phase.fall

    def test_nmos_technology_supported(self):
        case = generate_case(NMOS4, seed=1, index=0)
        assert case.size > 0


class TestModeRegistry:
    def test_registry_round_trips(self):
        for name, mode in MODES.items():
            assert mode_from_name(name) is mode

    def test_parse_modes(self):
        assert [m.name for m in parse_modes(None)] == list(MODES)
        assert [m.name for m in parse_modes("all")] == list(MODES)
        assert [m.name for m in parse_modes("delta-greedy, delta")] == [
            "delta-greedy", "delta"]
        with pytest.raises(ReproError, match="unknown engine mode"):
            parse_modes("warp-drive")
        # A name outside the matrix, such as an old manifest's
        # ``incremental``, is refused.
        with pytest.raises(ReproError, match="unknown engine mode"):
            parse_modes("incremental")
        with pytest.raises(ReproError, match="names no engine mode"):
            parse_modes(",")
        with pytest.raises(ReproError, match="'delta' given twice"):
            parse_modes("delta,delta")


class TestCleanEngine:
    def test_conformance_across_seeds(self):
        # The committed smoke gate in miniature: several seeds, the full
        # matrix, zero discrepancies expected.
        for seed in (0, 7):
            report = ConformanceRunner(
                ConformanceConfig(tech=CMOS3, cases=4, seed=seed)).run()
            assert report.ok, format_verify_report(
                report, ConformanceConfig(tech=CMOS3).modes)

    def test_perf_counters_surface(self):
        perf = PerfCounters()
        runner = ConformanceRunner(
            ConformanceConfig(tech=CMOS3, cases=2, seed=0), perf=perf)
        runner.run()
        assert perf.get("verify_cases") == 2
        # one reference run plus one run and comparison per other mode
        assert perf.get("verify_mode_runs") == 6
        assert perf.get("verify_comparisons") == 4
        assert perf.get("verify_invariant_checks") > 0
        # the verify_* vocabulary is part of the standard counter set and
        # renders in the standard table
        for name in perf.counters:
            if name.startswith("verify_"):
                assert name in STANDARD_COUNTERS
        table = perf.format_table()
        assert "verify_cases" in table

    def test_report_formatting_pass(self):
        config = ConformanceConfig(tech=CMOS3, cases=1, seed=0)
        report = ConformanceRunner(config).run()
        text = format_verify_report(report, config.modes)
        assert "conformance: PASS" in text
        assert "1 case(s)" in text


class TestInjectedBug:
    """The acceptance gate: a deliberate kernel mutation must be caught
    and shrunk to <= 8 transistors."""

    def test_bug_caught_and_shrunk(self, tmp_path, template_bug):
        config = ConformanceConfig(tech=CMOS3, cases=2, seed=0,
                                   out_dir=str(tmp_path))
        report = ConformanceRunner(config).run()
        assert not report.ok, "injected kernel bug went undetected"
        for failure in report.failures:
            # caught by the kernel invariant, and only by it
            assert {(d.kind, d.mode_a, d.mode_b)
                    for d in failure.discrepancies} == {
                ("invariant", "kernel", "scalar")}
            assert failure.shrunk is not None
            assert failure.shrunk.size <= 8, (
                f"{failure.case.name}: shrunk reproducer still has "
                f"{failure.shrunk.size} transistors")
            assert len(failure.shrunk.vectors) <= len(failure.case.vectors)
            assert failure.manifest_path is not None

    def test_bug_invisible_without_python_mode(self, template_bug):
        # Every engine mode runs the one kernel, so all of them inherit
        # the same wrong numbers and still agree: the mode matrix cannot
        # see a kernel fault.  This pins down *why* the kernel invariant
        # exists.
        case = generate_case(CMOS3, seed=0, index=0)
        findings = check_case(case, parse_modes("all"), "rc-tree",
                              PerfCounters())
        assert findings == []
        findings = check_kernel_invariant(case, PerfCounters())
        assert findings, "kernel invariant missed the bug"

    def test_clean_after_hook_cleared(self):
        kernel.set_constants_scale(None)
        case = generate_case(CMOS3, seed=0, index=0)
        assert check_kernel_invariant(case, PerfCounters()) == []


class TestVerifyCLI:
    def test_clean_run_exits_zero(self, capsys):
        from repro.cli import main
        code = main(["verify", "--cases", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "conformance: PASS" in out

    def test_bug_run_exits_one_and_emits(self, tmp_path, capsys,
                                         template_bug):
        from repro.cli import main
        code = main(["verify", "--cases", "1", "--seed", "0",
                     "--out", str(tmp_path), "--profile"])
        out = capsys.readouterr().out
        assert code == 1
        assert "conformance: FAIL" in out
        assert "verify_discrepancies" in out
        manifests = list(tmp_path.glob("*.json"))
        assert manifests, "no reproducer manifest emitted"
        sims = list(tmp_path.glob("*.sim"))
        vecs = list(tmp_path.glob("*.vec"))
        assert sims and vecs

    def test_bad_flags_rejected(self, capsys):
        from repro.cli import main
        assert main(["verify", "--cases", "0"]) == 2
        assert main(["verify", "--modes", "bogus"]) == 2
        capsys.readouterr()
        # a vacuous or doubled mode list is refused before any case runs,
        # and so is a run left with nothing to check
        for flags in (["--modes", ","], ["--modes", "delta,delta"],
                      ["--modes", "reference", "--no-invariants"]):
            assert main(["verify", "--cases", "3"] + flags) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert captured.err.count("\n") == 1
            assert "conformance" not in captured.out

"""Tests for the repro-crystal command-line interface."""

import json
import pathlib

import pytest

from repro.cli import _parse_set, _parse_timing_input, main
from repro.core.models import characterize
from repro.errors import ReproError
from repro.tech import (
    CHARACTERIZED_DIR,
    load_technology,
    technologies_equivalent,
)

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

INVERTER_SIM = """\
| cmos inverter chain
i in
n in gnd n1 2 6
p in vdd n1 2 12
n n1 gnd out 2 6
p n1 vdd out 2 12
C out gnd 50
"""

NMOS_SIM = """\
i a
e a gnd y 2 8
d y y vdd 8 2
"""

BAD_SIM = """\
e floatgate gnd y 2 8
d y y vdd 8 2
"""


@pytest.fixture
def inv_file(tmp_path):
    path = tmp_path / "inv.sim"
    path.write_text(INVERTER_SIM)
    return str(path)


@pytest.fixture
def nmos_file(tmp_path):
    path = tmp_path / "nmos.sim"
    path.write_text(NMOS_SIM)
    return str(path)


class TestParsing:
    def test_input_both_edges(self):
        name, spec = _parse_timing_input("in=2n")
        assert name == "in"
        assert spec.arrival_rise == pytest.approx(2e-9)
        assert spec.arrival_fall == pytest.approx(2e-9)

    def test_input_rise_only(self):
        _, spec = _parse_timing_input("in=500p:rise")
        assert spec.arrival_rise == pytest.approx(500e-12)
        assert spec.arrival_fall is None

    def test_input_fall_only(self):
        _, spec = _parse_timing_input("in=0:fall")
        assert spec.arrival_rise is None
        assert spec.arrival_fall == 0.0

    def test_input_static(self):
        _, spec = _parse_timing_input("en=-")
        assert spec.arrival_rise is None and spec.arrival_fall is None

    def test_input_bad_edge(self):
        with pytest.raises(ReproError):
            _parse_timing_input("in=0:sideways")

    def test_input_missing_equals(self):
        with pytest.raises(ReproError):
            _parse_timing_input("in")

    def test_set_values(self):
        assert _parse_set("a=1")[1].value == 1
        assert _parse_set("a=0")[1].value == 0
        assert _parse_set("a=x")[1].value == 2

    def test_set_bad_value(self):
        with pytest.raises(ReproError):
            _parse_set("a=maybe")


class TestValidateCommand:
    def test_clean_netlist(self, inv_file, capsys):
        code = main(["validate", inv_file, "--tech", "cmos3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: clean" in out

    def test_bad_netlist_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.sim"
        path.write_text(BAD_SIM)
        code = main(["validate", str(path), "--tech", "nmos4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "floating-gate" in out

    def test_unknown_tech(self, inv_file, capsys):
        code = main(["validate", inv_file, "--tech", "cmos3"])
        assert code == 0
        # argparse rejects unknown technologies before our code runs.
        with pytest.raises(SystemExit):
            main(["validate", inv_file, "--tech", "gaas"])


class TestSwitchCommand:
    def test_inverter_chain(self, inv_file, capsys):
        code = main(["switch", inv_file, "--tech", "cmos3",
                     "--set", "in=1", "--show", "out", "--show", "n1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "out = 1" in out
        assert "n1 = 0" in out

    def test_default_shows_all(self, nmos_file, capsys):
        code = main(["switch", nmos_file, "--tech", "nmos4",
                     "--set", "a=0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "y = 1" in out


class TestTimingCommand:
    def test_worst_paths_default(self, inv_file, capsys):
        code = main(["timing", inv_file, "--tech", "cmos3",
                     "--input", "in=0", "--no-characterize"])
        out = capsys.readouterr().out
        assert code == 0
        assert "worst arrivals" in out
        assert "out" in out

    def test_critical_path_report(self, inv_file, capsys):
        code = main(["timing", inv_file, "--tech", "cmos3",
                     "--input", "in=0:rise", "--report", "out",
                     "--no-characterize", "--slope", "500p"])
        out = capsys.readouterr().out
        assert code == 0
        assert "critical path to out" in out
        assert "path delay" in out

    def test_model_selection(self, inv_file, capsys):
        code = main(["timing", inv_file, "--tech", "cmos3",
                     "--input", "in=0", "--model", "lumped-rc",
                     "--no-characterize"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lumped-rc" in out

    def test_missing_input_is_error(self, inv_file, capsys):
        code = main(["timing", inv_file, "--tech", "cmos3",
                     "--no-characterize"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


NAND_SIM = """\
i a b
n a mid y 2 8
n b gnd mid 2 8
p a vdd y 2 8
p b vdd y 2 8
"""


@pytest.fixture
def nand_file(tmp_path):
    path = tmp_path / "nand.sim"
    path.write_text(NAND_SIM)
    return str(path)


class TestSweepCommand:
    def _vec_file(self, tmp_path, text):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        return str(path)

    def test_vector_file_sweep(self, nand_file, tmp_path, capsys):
        vecs = self._vec_file(
            tmp_path, "@together a=0 b=0\n@a-late a=300p b=0\n")
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--vectors", vecs])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep summary: 2 scenario(s)" in out
        assert "a-late" in out and "together" in out
        assert "worst vector:" in out
        assert "critical path to" in out

    def test_profile_output_shape(self, nand_file, tmp_path, capsys):
        vecs = self._vec_file(tmp_path, "a=0 b=0\na=100p b=0\n")
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--vectors", vecs, "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "batch perf (2 scenario(s), shared analyzer)" in out
        assert "hit rate" in out
        assert "model evals per scenario" in out
        assert "total (2)" in out

    def test_malformed_vector_file_exit_code(self, nand_file, tmp_path,
                                             capsys):
        vecs = self._vec_file(tmp_path, "a=0 b=0\na=notatime b=0\n")
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--vectors", vecs])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "vecs.txt:2" in err  # file and line of the bad vector

    def test_vector_with_unknown_node_exit_code(self, nand_file, tmp_path,
                                                capsys):
        vecs = self._vec_file(tmp_path, "a=0 b=0 ghost=1n\n@bad a=0 b=0 "
                                        "bogus=2n\n")
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--vectors", vecs])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        # The message names the offending vector and the unknown node.
        assert "v0" in err
        assert "unknown node 'ghost'" in err

    def test_missing_source_is_error(self, nand_file, capsys):
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize"])
        err = capsys.readouterr().err
        assert code == 2
        assert "exactly one vector source" in err

    def test_conflicting_sources_are_error(self, nand_file, tmp_path,
                                           capsys):
        vecs = self._vec_file(tmp_path, "a=0 b=0\n")
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--vectors", vecs,
                     "--random", "4"])
        assert code == 2

    def test_cartesian_axes(self, nand_file, capsys):
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--input", "b=0",
                     "--sweep", "a=0,200p,400p", "--no-critical-path"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep summary: 3 scenario(s)" in out

    def test_random_vectors_are_seeded(self, nand_file, capsys):
        args = ["sweep", nand_file, "--tech", "cmos3", "--no-characterize",
                "--random", "4", "--seed", "9", "--span", "500p",
                "--no-critical-path"]
        code = main(args)
        first = capsys.readouterr().out
        assert code == 0
        assert "sweep summary: 4 scenario(s)" in first
        main(args)
        assert capsys.readouterr().out == first

    def test_random_with_every_input_pinned_is_error(self, nand_file,
                                                     capsys):
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--input", "a=0", "--input",
                     "b=0", "--random", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no free inputs" in err

    def test_watch_restricts_ranking(self, nand_file, capsys):
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--random", "2",
                     "--watch", "y", "--no-critical-path"])
        out = capsys.readouterr().out
        assert code == 0
        assert "watching y" in out

    def test_shipped_example_files(self, capsys):
        """The examples/ vector file and netlist stay valid."""
        code = main(["sweep", str(EXAMPLES / "nand2.sim"), "--tech",
                     "cmos3", "--no-characterize", "--vectors",
                     str(EXAMPLES / "nand2.vec"), "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep summary: 5 scenario(s)" in out
        assert "fall-race" in out


class TestHazardsCommand:
    def test_clean_circuit(self, inv_file, capsys):
        code = main(["hazards", inv_file, "--tech", "cmos3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no hazards" in out

    def test_hazard_with_strict_exit(self, tmp_path, capsys):
        sim = (
            "i sel wr pre din drv\n"
            "e sel store bigbus 2 4\n"
            "e wr din store 2 4\n"
            "e pre drv bigbus 2 4\n"
            "C store gnd 10\n"
            "C bigbus gnd 100\n"
        )
        path = tmp_path / "share.sim"
        path.write_text(sim)
        code = main(["hazards", str(path), "--tech", "cmos3",
                     "--set", "wr=0", "--set", "pre=0", "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "store" in out


class TestCharacterizeCommand:
    @pytest.mark.parametrize("name", ["cmos3", "nmos4"])
    def test_dump_tables(self, name, tmp_path, capsys, monkeypatch):
        """The staleness gate: a fresh fit written by the subcommand
        matches the shipped file."""
        # The subcommand must fit: with no memo and no shipped files to
        # read, a lookup instead of a fit would fail here.
        monkeypatch.setattr(characterize, "_CACHE", {})
        monkeypatch.setattr(characterize, "CHARACTERIZED_DIR", tmp_path)
        out_file = tmp_path / "written.json"
        code = main(["characterize", "--tech", name, "-o", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "slope tables" in out
        written = load_technology(str(out_file))
        assert written.slope_tables.source == f"characterized:{name}"
        shipped = CHARACTERIZED_DIR / f"{name}.json"
        assert technologies_equivalent(
            written, load_technology(str(shipped)), rel_tol=1e-9), (
            f"{shipped.name} is stale; regenerate it with: PYTHONPATH=src "
            f"python -m repro.cli characterize --tech {name} "
            f"-o src/repro/tech/characterized/{name}.json")


class TestArgumentChecks:
    """Out-of-range flag values exit 2 with one ``error:`` line instead of
    being silently dropped, clamped or misreported."""

    def _vec_file(self, tmp_path, text):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        return str(path)

    def _argv(self, command, nand_file, *extra):
        source = (["--input", "a=0"] if command == "timing"
                  else ["--sweep", "a=0,1n"])
        return [command, nand_file, "--tech", "cmos3", "--no-characterize",
                "--input", "b=0", *source, *extra]

    def _fails_cleanly(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("command", ["timing", "sweep"])
    def test_negative_slope_rejected(self, nand_file, command, capsys):
        err = self._fails_cleanly(
            self._argv(command, nand_file, "--slope=-1n"), capsys)
        assert "--slope" in err and "-1n" in err

    @pytest.mark.parametrize("command", ["timing", "sweep"])
    def test_negative_count_rejected(self, nand_file, command, capsys):
        err = self._fails_cleanly(
            self._argv(command, nand_file, "--count", "-1"), capsys)
        assert "--count" in err

    @pytest.mark.parametrize("command", ["timing", "sweep"])
    def test_node_given_twice_rejected(self, nand_file, command, capsys):
        err = self._fails_cleanly(
            self._argv(command, nand_file, "--input", "b=5n"), capsys)
        assert "duplicate node 'b' in --input" in err

    def test_sweep_axis_given_twice_rejected(self, nand_file, capsys):
        err = self._fails_cleanly(
            self._argv("sweep", nand_file, "--sweep", "a=2n"), capsys)
        assert "duplicate --sweep axis 'a'" in err

    def test_timing_an_internal_node_rejected(self, nand_file, capsys):
        err = self._fails_cleanly(
            self._argv("timing", nand_file, "--input", "mid=0"), capsys)
        assert "input 'mid' is not a primary input" in err

    def test_sweeping_an_internal_node_names_the_vector(self, capsys):
        # Under --delta this vector used to report mid rising at 0 s and
        # under --no-delta at its computed arrival.
        err = self._fails_cleanly(
            ["sweep", str(EXAMPLES / "nand2.sim"), "--tech", "cmos3",
             "--no-characterize", "--sweep", "mid=1n,0", "--input", "a=0",
             "--input", "b=0", "--watch", "mid", "--no-critical-path"],
            capsys)
        assert "vector 'mid=1e-09'" in err
        assert "input 'mid' is not a primary input" in err

    def test_random_zero_reports_sample_size(self, nand_file, capsys):
        err = self._fails_cleanly(
            ["sweep", nand_file, "--tech", "cmos3", "--no-characterize",
             "--random", "0"], capsys)
        assert "random sample size 0 must be >= 1" in err

    def test_vector_with_negative_slope_names_the_vector(self, nand_file,
                                                         tmp_path, capsys):
        vecs = self._vec_file(tmp_path, "@ok a=0 b=0\n@steep a=0/-2n b=0\n")
        err = self._fails_cleanly(
            ["sweep", nand_file, "--tech", "cmos3", "--no-characterize",
             "--vectors", vecs], capsys)
        assert "vector 'steep'" in err
        assert "negative slope" in err


class TestTraceFlags:
    def test_timing_trace_writes_valid_file(self, nand_file, tmp_path,
                                            capsys):
        from repro.trace.export import validate_trace_file

        trace = tmp_path / "run.json"
        code = main(["timing", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--input", "a=0", "--input",
                     "b=0", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace:" in out and "event(s) written" in out
        count = validate_trace_file(str(trace))
        assert count > 0
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "analyze" in names
        assert "stage_eval" in names
        assert "kernel_batch" in names

    def test_timing_trace_summary_prints_table(self, nand_file, capsys):
        code = main(["timing", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--input", "a=0", "--input",
                     "b=0", "--trace-summary"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace summary" in out
        assert "analyze" in out
        assert "self" in out

    def test_tracer_uninstalled_after_run(self, nand_file, capsys):
        from repro.trace import spans as trace_spans

        main(["timing", nand_file, "--tech", "cmos3", "--no-characterize",
              "--input", "a=0", "--input", "b=0", "--trace-summary"])
        capsys.readouterr()
        assert trace_spans.current() is None

    def test_sweep_trace_has_nested_sweep_spans(self, nand_file, tmp_path,
                                                capsys):
        import os

        vecs = tmp_path / "vecs.txt"
        vecs.write_text("".join(f"a={i * 10}p b=0\n" for i in range(12)))
        trace = tmp_path / "sweep.json"
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--vectors", str(vecs),
                     "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(trace.read_text())
        assert {e["pid"] for e in payload["traceEvents"]} == {os.getpid()}
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"sweep", "scenario", "analyze", "stage_eval"} <= names

    def test_aborted_run_still_flushes_profile_and_trace(self, nand_file,
                                                         tmp_path, capsys):
        trace = tmp_path / "aborted.json"
        code = main(["timing", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--input", "nosuch=0",
                     "--profile", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "partial: run aborted" in captured.out
        assert trace.exists()  # partial trace written by the finally

    def test_aborted_sweep_flushes_partial_profile(self, nand_file,
                                                   tmp_path, capsys):
        from unittest import mock

        vecs = tmp_path / "vecs.txt"
        vecs.write_text("a=0 b=0\na=100p b=0\n")

        from repro.core.timing import TimingAnalyzer

        real = TimingAnalyzer.analyze_many
        calls = {"n": 0}

        def explode(self, scenarios, delta=False):
            calls["n"] += 1
            raise RuntimeError("mid-sweep abort")

        with mock.patch.object(TimingAnalyzer, "analyze_many", explode):
            with pytest.raises(RuntimeError):
                main(["sweep", nand_file, "--tech", "cmos3",
                      "--no-characterize", "--vectors", str(vecs),
                      "--profile"])
        out = capsys.readouterr().out
        assert calls["n"] == 1
        assert "partial: run aborted" in out
        assert real is TimingAnalyzer.analyze_many  # patch reverted


class TestFailurePaths:
    """Every subcommand hitting an engine error must exit 2 with a
    one-line ``error: …`` diagnostic — never a raw traceback.  The
    handler lives in ``main()``; these tests drive each subcommand's
    most likely failure through it."""

    MISSING = "no_such_netlist.sim"

    @pytest.mark.parametrize("argv", [
        ["validate", MISSING, "--tech", "cmos3"],
        ["switch", MISSING, "--tech", "cmos3"],
        ["timing", MISSING, "--tech", "cmos3", "--no-characterize",
         "--input", "a=0"],
        ["sweep", MISSING, "--tech", "cmos3", "--no-characterize",
         "--random", "2"],
        ["hazards", MISSING, "--tech", "cmos3"],
    ], ids=["validate", "switch", "timing", "sweep", "hazards"])
    def test_missing_netlist_exits_2(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "cannot read netlist" in err
        assert self.MISSING in err
        assert "Traceback" not in err

    def test_missing_spice_netlist_exits_2(self, capsys):
        code = main(["validate", "no_such.spice", "--tech", "cmos3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read netlist" in err

    def test_malformed_sim_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.sim"
        path.write_text("e a gnd y 2 8\nz what is this\n")
        code = main(["validate", str(path), "--tech", "cmos3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "broken.sim:2" in err
        assert "unknown record type" in err

    def test_malformed_sim_number_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.sim"
        path.write_text("i a\ne b gnd y 2 8\ne a gnd y 2 1x2\n")
        code = main(["timing", str(path), "--tech", "cmos3",
                     "--input", "a=0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {path}:3: malformed numeric value '1x2'\n"

    def test_timing_trace_unwritable_exits_2(self, tmp_path, capsys):
        sim = tmp_path / "inv.sim"
        sim.write_text(INVERTER_SIM)
        trace = tmp_path / "no_such_dir" / "run.json"
        code = main(["timing", str(sim), "--tech", "cmos3",
                     "--no-characterize", "--input", "in=0",
                     "--trace", str(trace)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot write trace file" in err
        assert "Traceback" not in err

    def test_characterize_output_unwritable_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "tables.json"
        code = main(["characterize", "--tech", "cmos3", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        ["--input", "a=1e400", "--input", "b=0"],
        ["--input", "a=0", "--input", "b=0", "--slope", "1e400"],
    ], ids=["input-time", "slope"])
    def test_non_finite_timing_exits_2(self, nand_file, extra, capsys):
        code = main(["timing", nand_file, "--tech", "cmos3",
                     "--no-characterize", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "inf" not in captured.out


class TestReplayFailurePaths:
    """``verify --replay`` on missing/corrupt artifacts: clean exit 2,
    diagnostic names the offending path (satellite of DESIGN.md §6)."""

    def test_missing_manifest(self, capsys):
        code = main(["verify", "--tech", "cmos3",
                     "--replay", "no_such_manifest.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read manifest" in err
        assert "no_such_manifest.json" in err

    def test_corrupt_manifest_json(self, tmp_path, capsys):
        manifest = tmp_path / "case.json"
        manifest.write_text("{not json")
        code = main(["verify", "--tech", "cmos3",
                     "--replay", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed manifest" in err

    def test_manifest_missing_keys(self, tmp_path, capsys):
        manifest = tmp_path / "case.json"
        manifest.write_text(json.dumps({"case": "c0"}))
        code = main(["verify", "--tech", "cmos3",
                     "--replay", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing" in err

    def test_manifest_references_missing_sim(self, tmp_path, capsys):
        manifest = tmp_path / "case.json"
        manifest.write_text(json.dumps({
            "case": "c0", "sim": "gone.sim", "vec": "gone.vec",
            "modes": ["brute"], "model": "rc-tree"}))
        code = main(["verify", "--tech", "cmos3",
                     "--replay", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read netlist" in err
        assert "gone.sim" in err

    def test_manifest_references_missing_vec(self, tmp_path, capsys):
        sim = tmp_path / "c0.sim"
        sim.write_text("i a\ne a gnd y 2 8\np a vdd y 2 12\n")
        manifest = tmp_path / "case.json"
        manifest.write_text(json.dumps({
            "case": "c0", "sim": "c0.sim", "vec": "gone.vec",
            "modes": ["brute"], "model": "rc-tree"}))
        code = main(["verify", "--tech", "cmos3",
                     "--replay", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read vector file" in err

    def test_manifest_names_deleted_mode(self, tmp_path, capsys):
        # A reproducer written while slope quantization existed can name
        # the deleted ``quantized`` mode; it fails by name.
        (tmp_path / "c0.sim").write_text(
            "i a\ne a gnd y 2 8\np a vdd y 2 12\n")
        (tmp_path / "c0.vec").write_text("@v0 a=0\n")
        manifest = tmp_path / "case.json"
        manifest.write_text(json.dumps({
            "case": "c0", "sim": "c0.sim", "vec": "c0.vec",
            "modes": ["quantized"], "model": "rc-tree"}))
        code = main(["verify", "--tech", "cmos3",
                     "--replay", str(manifest)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: unknown engine mode 'quantized'")
        assert err.count("\n") == 1
        assert "Traceback" not in err

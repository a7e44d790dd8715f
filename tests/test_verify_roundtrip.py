"""Reproducer round trips (ISSUE 8 S4).

The shrinker's whole value rests on the emitted ``.sim``/``.vec`` pair
being a *faithful* reproduction: parsing it back and re-analyzing must
produce the identical discrepancy, bit for bit.  Generated values live
on integer grids and the dumpers print 12 significant digits, so the
round trip is exact — these tests enforce it end to end.
"""

import dataclasses
import json

import pytest

from repro.batch.vectors import dump_vector_file, load_vector_file
from repro.core.models import RCTreeModel
from repro.core.timing import TimingAnalyzer
from repro.netlist import sim_format
from repro.perf import PerfCounters
from repro.rctree import kernel
from repro.tech import CMOS3
from repro.verify import (
    ConformanceConfig,
    ConformanceRunner,
    Discrepancy,
    generate_case,
    load_reproducer,
    replay_reproducer,
)


@pytest.fixture
def template_bug():
    kernel.set_constants_scale(1.02)
    yield
    kernel.set_constants_scale(None)


def _recorded_keys(manifest):
    return {(d["kind"], d["mode_a"], d["mode_b"], d["label"], d["event"])
            for d in manifest["discrepancies"]}


class TestGeneratedCaseRoundTrip:
    def test_sim_vec_round_trip_is_bit_exact(self, tmp_path):
        """Dump any generated case, reload it, analyze both: identical
        arrivals (times AND slopes) on every vector."""
        for index in range(8):
            case = generate_case(CMOS3, seed=11, index=index)
            sim_path = tmp_path / f"{case.name}.sim"
            vec_path = tmp_path / f"{case.name}.vec"
            sim_format.dump(case.network, str(sim_path))
            dump_vector_file(case.vectors, str(vec_path))

            network = sim_format.load(str(sim_path), CMOS3)
            vectors = load_vector_file(str(vec_path))
            assert [v.label for v in vectors] == [v.label
                                                 for v in case.vectors]
            for original, loaded in zip(case.vectors, vectors):
                want = TimingAnalyzer(case.network).analyze(original.inputs)
                got = TimingAnalyzer(network).analyze(loaded.inputs)
                assert set(got.arrivals) == set(want.arrivals), case.name
                for event, arrival in want.arrivals.items():
                    other = got.arrivals[event]
                    assert other.time == arrival.time, (case.name, event)
                    assert other.slope == arrival.slope, (case.name, event)


class TestReproducerRoundTrip:
    def _emit_failure(self, tmp_path):
        config = ConformanceConfig(tech=CMOS3, cases=1, seed=0,
                                   out_dir=str(tmp_path))
        report = ConformanceRunner(config).run()
        assert not report.ok
        failure = report.failures[0]
        assert failure.manifest_path is not None
        return failure

    def test_replay_reproduces_identical_discrepancy(self, tmp_path,
                                                     template_bug):
        """Parse the emitted pair back, re-run what the manifest
        implicates, and compare against it: same kinds, same mode
        pairs, same labels/events — the identical discrepancy."""
        failure = self._emit_failure(tmp_path)
        case, found, manifest = replay_reproducer(
            failure.manifest_path, CMOS3, PerfCounters())
        assert case.size == failure.shrunk.size
        assert isinstance(case.vectors, list)
        assert {d.key() for d in found} == _recorded_keys(manifest)

    def test_replay_clean_once_bug_fixed(self, tmp_path, template_bug):
        """After 'fixing the bug', the same reproducer replays clean —
        exactly how a reproducer is used during an actual debug cycle."""
        failure = self._emit_failure(tmp_path)
        kernel.set_constants_scale(None)
        _, found, _ = replay_reproducer(failure.manifest_path, CMOS3,
                                        PerfCounters())
        assert found == []

    def test_replay_cli(self, tmp_path, capsys, template_bug):
        from repro.cli import main

        failure = self._emit_failure(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--replay", failure.manifest_path]) == 1
        out = capsys.readouterr().out
        assert "discrepancy" in out
        kernel.set_constants_scale(None)
        assert main(["verify", "--replay", failure.manifest_path]) == 0

    def test_replay_reruns_invariants(self, tmp_path, capsys, monkeypatch):
        """A model bug every mode shares fails only an invariant; its
        reproducer must still replay as a failure, with the recorded
        discrepancies."""
        from repro.cli import main

        evaluate = RCTreeModel.evaluate

        def falls_with_cap(self, request):
            # The delay shrinks as the stage's capacitance grows.
            return dataclasses.replace(
                evaluate(self, request),
                delay=1e-24 / request.total_capacitance())

        monkeypatch.setattr(RCTreeModel, "evaluate", falls_with_cap)
        assert main(["verify", "--cases", "1", "--seed", "0",
                     "--out", str(tmp_path)]) == 1
        (path,) = tmp_path.glob("*.json")
        manifest = json.loads(path.read_text())
        assert {d["kind"] for d in manifest["discrepancies"]} == {
            "invariant"}
        capsys.readouterr()
        assert main(["verify", "--replay", str(path)]) == 1
        printed = capsys.readouterr().out.splitlines()[1:]
        assert {line.strip() for line in printed} == {
            str(Discrepancy(case_name=manifest["case"], **d))
            for d in manifest["discrepancies"]}

    def test_manifest_is_self_describing(self, tmp_path, template_bug):
        failure = self._emit_failure(tmp_path)
        manifest = json.load(open(failure.manifest_path))
        for key in ("case", "seed", "family", "tech", "model", "modes",
                    "sim", "vec", "discrepancies", "replay"):
            assert key in manifest, key
        assert manifest["tech"] == "cmos3"
        assert "verify --replay" in manifest["replay"]

    def test_load_reproducer_errors(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="cannot read"):
            load_reproducer(str(tmp_path / "absent.json"), CMOS3)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError, match="malformed"):
            load_reproducer(str(bad), CMOS3)
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text('{"case": "x"}')
        with pytest.raises(ReproError, match="missing"):
            load_reproducer(str(incomplete), CMOS3)


class TestClockedReproducer:
    def test_clocked_case_round_trips_with_schedule(self, tmp_path,
                                                    template_bug):
        """A clocked failing case keeps its schedule and clock pins
        through the manifest (the ``~`` two-edge vector tokens carry the
        phase timing exactly)."""
        index = None
        for i in range(30):
            if generate_case(CMOS3, seed=0, index=i).family == "clocked":
                index = i
                break
        assert index is not None
        config = ConformanceConfig(tech=CMOS3, cases=index + 1, seed=0,
                                   out_dir=str(tmp_path))
        report = ConformanceRunner(config).run()
        clocked = [f for f in report.failures
                   if f.case.family == "clocked"]
        assert clocked, "clocked case did not fail under the injected bug"
        failure = clocked[0]
        case, found, manifest = replay_reproducer(
            failure.manifest_path, CMOS3, PerfCounters())
        assert manifest["schedule"] is not None
        if case.clocks:  # clocks survive unless shrunk away entirely
            assert case.schedule is not None
            phase = case.schedule.phase(next(iter(case.clocks.values())))
            assert phase.fall > phase.rise
        assert {d.key() for d in found} == _recorded_keys(manifest)

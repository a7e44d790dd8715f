"""Tests for the batch scenario-sweep subsystem (repro.batch).

Vector sources (explicit / file / cartesian / random), the shared-
analyzer sweep engine and its equivalence to fresh analyzers, the
per-batch perf aggregation, and the sweep reports.
"""

import pytest

from repro.batch import (
    CartesianSweep,
    ExplicitVectors,
    RandomVectors,
    Vector,
    format_sweep_profile,
    format_sweep_summary,
    load_vector_file,
    parse_vector_line,
    run_scenarios,
    run_sweep,
)
from repro.batch.vectors import parse_timing_token, with_default_slope
from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.errors import SweepError
from repro.perf import BatchPerf, PerfCounters
from repro.tech import CMOS3


class TestVectorParsing:
    def test_token_both_edges(self):
        name, spec = parse_timing_token("a=2n")
        assert name == "a"
        assert spec.arrival_rise == pytest.approx(2e-9)
        assert spec.arrival_fall == pytest.approx(2e-9)

    def test_token_static(self):
        _, spec = parse_timing_token("en=-")
        assert spec.arrival_rise is None and spec.arrival_fall is None

    def test_token_errors(self):
        with pytest.raises(SweepError):
            parse_timing_token("nosign")
        with pytest.raises(SweepError):
            parse_timing_token("a=1n:sideways")
        with pytest.raises(SweepError):
            parse_timing_token("a=wat")
        with pytest.raises(SweepError):
            parse_timing_token("=1n")

    def test_default_slope_applied_to_edges_only(self):
        spec = with_default_slope(InputSpec(arrival_rise=0.0,
                                            arrival_fall=0.0), 1e-9)
        assert spec.slope == pytest.approx(1e-9)
        static = with_default_slope(
            InputSpec(arrival_rise=None, arrival_fall=None), 1e-9)
        assert static.slope == 0.0

    def test_line_with_label(self):
        vector = parse_vector_line("@fast a=0 b=100p", 3)
        assert vector.label == "fast"
        assert vector.inputs["b"].arrival_rise == pytest.approx(100e-12)

    def test_line_auto_label_and_duplicates(self):
        assert parse_vector_line("a=0", 7).label == "v7"
        with pytest.raises(SweepError):
            parse_vector_line("a=0 a=1n", 0)
        with pytest.raises(SweepError):
            parse_vector_line("@only-label", 0)

    def test_token_two_edge_form(self):
        _, spec = parse_timing_token("a=100p~300p")
        assert spec.arrival_rise == pytest.approx(100e-12)
        assert spec.arrival_fall == pytest.approx(300e-12)
        _, rise_only = parse_timing_token("a=100p~-")
        assert rise_only.arrival_rise == pytest.approx(100e-12)
        assert rise_only.arrival_fall is None
        _, fall_only = parse_timing_token("a=-~300p")
        assert fall_only.arrival_rise is None
        assert fall_only.arrival_fall == pytest.approx(300e-12)

    def test_token_slope_suffix(self):
        _, spec = parse_timing_token("a=2n/200p")
        assert spec.arrival_rise == pytest.approx(2e-9)
        assert spec.slope == pytest.approx(200e-12)
        _, two_edge = parse_timing_token("a=0~1n/0.5n")
        assert two_edge.slope == pytest.approx(0.5e-9)
        with pytest.raises(SweepError, match="slope"):
            parse_timing_token("a=-/200p")
        with pytest.raises(SweepError, match="bad slope"):
            parse_timing_token("a=1n/wat")

    def test_format_token_round_trips(self):
        from repro.batch import format_timing_token
        specs = [
            InputSpec(arrival_rise=1.3e-10, arrival_fall=1.3e-10,
                      slope=2e-10),
            InputSpec(arrival_rise=1e-10, arrival_fall=7.05e-10),
            InputSpec(arrival_rise=2.5e-10, arrival_fall=None,
                      slope=5e-10),
            InputSpec(arrival_rise=None, arrival_fall=3e-10),
            InputSpec(arrival_rise=None, arrival_fall=None),
        ]
        for spec in specs:
            name, parsed = parse_timing_token(
                format_timing_token("n1", spec))
            assert name == "n1"
            # repr-based formatting makes the round trip bit-exact
            assert parsed.arrival_rise == spec.arrival_rise
            assert parsed.arrival_fall == spec.arrival_fall
            assert parsed.slope == spec.slope


class TestVectorFile:
    def test_load_and_labels(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text(
            "# comment\n"
            "@first a=0 b=200p\n"
            "\n"
            "a=100p b=0   # trailing comment\n")
        source = load_vector_file(str(path))
        vectors = list(source)
        assert [v.label for v in vectors] == ["first", "v1"]
        assert vectors[1].inputs["a"].arrival_fall == pytest.approx(100e-12)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a=0\nb=oops\n")
        with pytest.raises(SweepError) as excinfo:
            load_vector_file(str(path))
        assert excinfo.value.line == 2
        assert "vecs.txt" in str(excinfo.value)

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("@x a=0\n@x a=1n\n")
        with pytest.raises(SweepError):
            load_vector_file(str(path))

    def test_duplicate_labels_name_both_indices(self, tmp_path):
        """ISSUE 8 S2: the error must say which two vectors collide —
        index and line of both sides, not just the label."""
        path = tmp_path / "vecs.txt"
        path.write_text("# header\n"
                        "@a x=0\n"
                        "@dup x=1n\n"
                        "@b x=0\n"
                        "@dup x=2n\n")
        with pytest.raises(SweepError) as excinfo:
            load_vector_file(str(path))
        message = str(excinfo.value)
        assert "duplicate vector label 'dup'" in message
        # colliding vector indices (0-based): vector 3 vs vector 1
        assert "vector 3" in message and "vector 1" in message
        # and the file lines of both occurrences
        assert "line 5" in message and "line 3" in message
        assert excinfo.value.line == 5

    def test_dump_vector_file_round_trips(self, tmp_path):
        from repro.batch import dump_vector_file
        vectors = [
            Vector(label="first",
                   inputs={"a": InputSpec(arrival_rise=1.3e-10,
                                          arrival_fall=4.7e-10,
                                          slope=2e-10),
                           "b": InputSpec(arrival_rise=None,
                                          arrival_fall=None)}),
            Vector(label="second",
                   inputs={"a": InputSpec(arrival_rise=0.0,
                                          arrival_fall=0.0),
                           "b": InputSpec(arrival_rise=None,
                                          arrival_fall=9e-10,
                                          slope=1e-10)}),
        ]
        path = tmp_path / "out.vec"
        dump_vector_file(vectors, str(path), header="round trip")
        loaded = list(load_vector_file(str(path)))
        assert [v.label for v in loaded] == ["first", "second"]
        for original, parsed in zip(vectors, loaded):
            assert set(parsed.inputs) == set(original.inputs)
            for name, spec in original.inputs.items():
                other = parsed.inputs[name]
                assert other.arrival_rise == spec.arrival_rise, name
                assert other.arrival_fall == spec.arrival_fall, name
                assert other.slope == spec.slope, name

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(SweepError):
            load_vector_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SweepError):
            load_vector_file(str(tmp_path / "absent.txt"))


class TestCartesianSweep:
    def test_row_major_product(self):
        sweep = CartesianSweep(base={"c": 0.0},
                               axes={"a": [0.0, 1e-9], "b": [0.0, 2e-9]})
        vectors = list(sweep)
        assert len(vectors) == 4
        assert vectors[0].inputs["a"].arrival_rise == 0.0
        assert vectors[0].inputs["c"].arrival_rise == 0.0
        # last vector has both axes at their last value
        assert vectors[-1].inputs["a"].arrival_rise == pytest.approx(1e-9)
        assert vectors[-1].inputs["b"].arrival_rise == pytest.approx(2e-9)
        assert len({v.label for v in vectors}) == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError):
            list(CartesianSweep(base={}, axes={"a": []}))
        with pytest.raises(SweepError):
            list(CartesianSweep(base={}, axes={}))


class TestRandomVectors:
    def test_seed_determinism(self):
        a = list(RandomVectors(["x", "y"], count=5, seed=42, span=1e-9))
        b = list(RandomVectors(["x", "y"], count=5, seed=42, span=1e-9))
        assert a == b
        c = list(RandomVectors(["x", "y"], count=5, seed=43, span=1e-9))
        assert a != c

    def test_span_and_slope_respected(self):
        vectors = list(RandomVectors(["x"], count=20, seed=0, span=1e-9,
                                     slope=0.2e-9))
        for vector in vectors:
            spec = vector.inputs["x"]
            assert 0.0 <= spec.arrival_rise <= 1e-9
            assert spec.arrival_rise == spec.arrival_fall
            assert spec.slope == pytest.approx(0.2e-9)

    def test_bad_parameters(self):
        with pytest.raises(SweepError):
            list(RandomVectors(["x"], count=0))
        with pytest.raises(SweepError):
            list(RandomVectors(["x"], count=1, span=-1.0))


@pytest.fixture(scope="module")
def rca4():
    return ripple_carry_adder(CMOS3, 4)


@pytest.fixture(scope="module")
def rca4_vectors():
    return list(RandomVectors(input_names=adder_input_names(4), count=6,
                              seed=7, span=1e-9, slope=0.3e-9))


class TestRunSweep:
    def test_matches_fresh_analyzers(self, rca4, rca4_vectors):
        sweep = run_sweep(rca4, rca4_vectors)
        assert len(sweep) == len(rca4_vectors)
        for vector, outcome in zip(rca4_vectors, sweep.outcomes):
            fresh = TimingAnalyzer(rca4).analyze(vector.inputs)
            assert set(outcome.result.arrivals) == set(fresh.arrivals)
            for event, arrival in outcome.result.arrivals.items():
                expected = fresh.arrivals[event]
                assert arrival.time == expected.time, event
                assert arrival.slope == expected.slope, event
                assert arrival.cause == expected.cause, event

    def test_cache_sharing_cuts_model_evals(self, rca4, rca4_vectors):
        sweep = run_sweep(rca4, rca4_vectors)
        per_scenario = [perf.get("model_evals")
                        for _, perf in sweep.batch_perf.scenarios]
        # the first scenario pays the setup; later ones ride the memo
        assert per_scenario[0] > 0
        assert sum(per_scenario[1:]) < per_scenario[0]
        assert sweep.batch_perf.cache_hit_rate > 0.5

    def test_stats_and_worst(self, rca4, rca4_vectors):
        sweep = run_sweep(rca4, rca4_vectors)
        stats = sweep.arrival_stats()
        assert stats.scenarios == len(rca4_vectors)
        assert stats.minimum <= stats.mean <= stats.maximum
        worst = sweep.worst()
        assert worst.worst_time == stats.maximum
        assert sweep.outcome(worst.label) is worst
        with pytest.raises(SweepError):
            sweep.outcome("no-such-label")

    def test_watch_restricts_ranking(self, rca4, rca4_vectors):
        sweep = run_sweep(rca4, rca4_vectors, watch=["s0"])
        for outcome in sweep.outcomes:
            assert outcome.worst_event.node == "s0"

    def test_raw_mapping_convenience(self, rca4):
        specs = [{n: 0.0 for n in adder_input_names(4)},
                 {n: 1e-9 for n in adder_input_names(4)}]
        sweep = run_scenarios(rca4, specs)
        assert [o.label for o in sweep.outcomes] == ["v0", "v1"]

    def test_empty_source_rejected(self, rca4):
        with pytest.raises(SweepError):
            run_sweep(rca4, ExplicitVectors([]))

    def test_warm_analyzer_can_be_reused(self, rca4, rca4_vectors):
        analyzer = TimingAnalyzer(rca4)
        first = run_sweep(rca4, rca4_vectors, analyzer=analyzer)
        again = run_sweep(rca4, rca4_vectors, analyzer=analyzer)
        # second sweep of the same vectors is pure cache hits
        assert again.batch_perf.total.get("model_evals") == 0
        for a, b in zip(first.outcomes, again.outcomes):
            assert a.worst_time == b.worst_time


class TestVectorValidation:
    """Bad vectors fail up front, naming the vector, before any analysis."""

    def test_unknown_node_raises_sweep_error(self, rca4):
        vectors = ExplicitVectors([
            Vector(label="ok",
                   inputs={n: 0.0 for n in adder_input_names(4)}),
            Vector(label="typo",
                   inputs={**{n: 0.0 for n in adder_input_names(4)},
                           "ghost": 1e-9}),
        ])
        with pytest.raises(SweepError) as excinfo:
            run_sweep(rca4, vectors)
        message = str(excinfo.value)
        assert "typo" in message and "ghost" in message

    def test_missing_primary_input_names_the_vector(self, rca4):
        vectors = ExplicitVectors([
            Vector(label="partial", inputs={"a0": 0.0})])
        with pytest.raises(SweepError, match="partial"):
            run_sweep(rca4, vectors)


class TestBatchPerf:
    def _batch(self):
        batch = BatchPerf()
        first = PerfCounters()
        first.incr("model_evals", 10)
        first.incr("model_cache_misses", 10)
        batch.add("a", first)
        second = PerfCounters()
        second.incr("model_cache_hits", 10)
        batch.add("b", second)
        return batch

    def test_cross_scenario_hit_rate(self):
        batch = self._batch()
        assert batch.cache_hit_rate == pytest.approx(0.5)
        assert batch.evals_per_scenario() == pytest.approx(5.0)
        assert len(batch) == 2

    def test_snapshots_are_isolated(self):
        batch = BatchPerf()
        live = PerfCounters()
        live.incr("model_evals", 1)
        batch.add("a", live)
        live.incr("model_evals", 99)
        assert batch.total.get("model_evals") == 1

    def test_format_table_shape(self):
        text = self._batch().format_table("batch perf")
        assert "batch perf" in text
        assert "total (2)" in text
        assert "model evals per scenario" in text


class TestSweepReports:
    def test_summary_contents(self, rca4, rca4_vectors):
        sweep = run_sweep(rca4, rca4_vectors, watch=["cout"])
        text = format_sweep_summary(sweep, count=3)
        assert "sweep summary" in text
        assert "worst vector" in text
        assert "critical path to" in text
        assert "more scenario(s)" in text  # 6 vectors, table capped at 3
        assert sweep.worst().label in text

    def test_summary_without_critical_path(self, rca4, rca4_vectors):
        sweep = run_sweep(rca4, rca4_vectors)
        text = format_sweep_summary(sweep, critical_path=False)
        assert "critical path to" not in text

    def test_profile_contents(self, rca4, rca4_vectors):
        sweep = run_sweep(rca4, rca4_vectors)
        text = format_sweep_profile(sweep)
        assert "shared analyzer" in text
        for vector in rca4_vectors:
            assert vector.label in text


class TestAnalyzeMany:
    def test_counts_batch_scenarios(self, rca4):
        analyzer = TimingAnalyzer(rca4)
        specs = [{n: 0.0 for n in adder_input_names(4)},
                 {n: 1e-9 for n in adder_input_names(4)}]
        results = analyzer.analyze_many(specs)
        assert len(results) == 2
        assert analyzer.perf.get("batch_scenarios") == 2
        assert analyzer.perf.elapsed("analyze_batch") > 0

    def test_reentrancy_guard_and_reset(self, rca4):
        from repro.errors import TimingError

        analyzer = TimingAnalyzer(rca4)
        inputs = {n: 0.0 for n in adder_input_names(4)}
        analyzer._run_perf = PerfCounters()  # simulate a corrupted run
        with pytest.raises(TimingError):
            analyzer.analyze(inputs)
        analyzer.reset_run_state()
        assert analyzer.analyze(inputs).arrivals

    def test_vector_dataclass_equality(self):
        a = Vector("x", {"a": InputSpec()})
        b = Vector("x", {"a": InputSpec()})
        assert a == b

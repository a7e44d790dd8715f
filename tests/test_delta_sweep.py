"""Tests for the delta-driven sweep engine (ISSUE 7).

Dirty cones on the stage graph, ``analyze_delta`` equivalence and
carryover life-cycle, delta-minimizing vector orderings (Gray code,
greedy Hamming), the sweep engine's delta/order plumbing, the
simulator's incremental vector API, and the CLI flags.
"""

import pytest

from repro.batch import (
    VECTOR_ORDERS,
    CartesianSweep,
    ExplicitVectors,
    RandomVectors,
    Vector,
    format_sweep_summary,
    greedy_hamming_order,
    order_vectors,
    pair_deltas,
    run_sweep,
    vector_delta,
)
from repro.circuits import (
    adder_input_names,
    inverter_chain,
    nand_gate,
    ripple_carry_adder,
)
from repro.cli import main
from repro.core.timing import InputSpec, TimingAnalyzer, worst_events
from repro.errors import SimulationError, SweepError
from repro.switchlevel import SwitchSimulator
from repro.tech import CMOS3

from .test_engine_golden import gray_sweep


def assert_identical(result, reference, context=None):
    assert set(result.arrivals) == set(reference.arrivals), context
    for event, arrival in result.arrivals.items():
        expected = reference.arrivals[event]
        assert arrival.time == expected.time, (context, event)
        assert arrival.slope == expected.slope, (context, event)
        assert arrival.cause == expected.cause, (context, event)


@pytest.fixture(scope="module")
def rca4():
    return ripple_carry_adder(CMOS3, 4)


@pytest.fixture(scope="module")
def rca4_vectors():
    return list(RandomVectors(input_names=adder_input_names(4), count=6,
                              seed=7, span=1e-9, slope=0.3e-9))


class TestDirtyCone:
    def test_cone_is_forward_closure(self, rca4):
        graph = TimingAnalyzer(rca4).graph
        cone = graph.node_cone("a0")
        assert cone  # a0 drives something
        for index in cone:
            stage = graph.stages[index]
            for successor in graph.successors(stage):
                assert successor.index in cone, (
                    "cone must be closed under stage successors")

    def test_carry_chain_cones_shrink_up_the_chain(self, rca4):
        # A low adder bit dirties the whole carry chain; a high bit only
        # its own slice — smaller cone, but sharing the carry-out tail.
        graph = TimingAnalyzer(rca4).graph
        low, high = graph.node_cone("a0"), graph.node_cone("a3")
        assert len(high) < len(low)
        assert high & low  # both reach the shared carry-out stages

    def test_feed_forward_graph_has_no_loop_stages(self, rca4):
        graph = TimingAnalyzer(rca4).graph
        assert graph.loop_stages() == frozenset()
        assert graph.inputs == {node.name for node in rca4.inputs()}

    def test_cone_memoized(self, rca4):
        graph = TimingAnalyzer(rca4).graph
        assert graph.node_cone("b1") is graph.node_cone("b1")

    def test_dirty_cone_unions(self, rca4):
        graph = TimingAnalyzer(rca4).graph
        union = graph.dirty_cone(["a0", "b2"])
        assert union == graph.node_cone("a0") | graph.node_cone("b2")
        assert graph.dirty_cone([]) == frozenset()


class TestAnalyzeDelta:
    def test_first_call_falls_back_to_cold(self, rca4, rca4_vectors):
        analyzer = TimingAnalyzer(rca4)
        result = analyzer.analyze_delta(rca4_vectors[0].inputs)
        reference = TimingAnalyzer(rca4).analyze(rca4_vectors[0].inputs)
        assert_identical(result, reference)
        assert result.perf.get("delta_scenarios") == 0

    def test_delta_matches_fresh_analyzers(self, rca4, rca4_vectors):
        analyzer = TimingAnalyzer(rca4)
        for vector in rca4_vectors:
            result = analyzer.analyze_delta(vector.inputs)
            reference = TimingAnalyzer(rca4).analyze(vector.inputs)
            assert_identical(result, reference, vector.label)

    def test_zero_delta_repeat_revisits_nothing(self, rca4, rca4_vectors):
        analyzer = TimingAnalyzer(rca4)
        first = analyzer.analyze_delta(rca4_vectors[0].inputs)
        again = analyzer.analyze_delta(rca4_vectors[0].inputs)
        assert_identical(again, first)
        assert again.perf.get("stage_visits") == 0
        assert again.perf.get("arrivals_reused") == len(first.arrivals)

    def test_small_delta_skips_stages(self, rca4):
        names = adder_input_names(4)
        base = {name: 0.0 for name in names}
        analyzer = TimingAnalyzer(rca4)
        cold = analyzer.analyze_delta(base)
        moved = dict(base)
        moved["a3"] = 0.4e-9  # high bit: small downstream cone
        warm = analyzer.analyze_delta(moved)
        assert warm.perf.get("delta_scenarios") == 1
        assert warm.perf.get("input_delta") == 1
        assert warm.perf.get("stages_skipped") > 0
        assert (warm.perf.get("stage_visits")
                < cold.perf.get("stage_visits"))
        assert_identical(warm, TimingAnalyzer(rca4).analyze(moved))

    def test_static_edge_transitions_handled(self):
        # Inputs whose rise/fall arrivals vanish (None = held level)
        # between vectors: both directions of the change must re-seed
        # correctly.
        net = nand_gate(CMOS3)
        analyzer = TimingAnalyzer(net)
        both = {"a0": InputSpec(arrival_rise=0.0, arrival_fall=0.0,
                                slope=0.2e-9),
                "a1": 0.0}
        held = {"a0": InputSpec(arrival_rise=None, arrival_fall=None),
                "a1": 0.0}
        for inputs in (both, held, both):
            result = analyzer.analyze_delta(inputs)
            assert_identical(result, TimingAnalyzer(net).analyze(inputs))

    def test_reports_rank_ties_like_cold(self):
        """A delta result iterates in another order than the cold result
        of its vector; the worst-event ranking and ``worst()`` break
        exact time ties by event id, so they read the same from both."""
        network, vectors = gray_sweep()
        results = TimingAnalyzer(network).analyze_many(vectors, delta=True)
        for position, (result, inputs) in enumerate(zip(results, vectors)):
            cold = TimingAnalyzer(network).analyze(inputs)
            ranking = [(event, arrival.time)
                       for event, arrival in worst_events(result)]
            assert ranking == [(event, arrival.time)
                               for event, arrival in worst_events(cold)], (
                position)
            assert result.worst()[0] == cold.worst()[0], position

    def test_vanished_events_propagate(self):
        # An input edge set to None takes its fanout's events with it:
        # each inverter of the chain loses its last candidate for that
        # edge, so the next one must be re-evaluated although none of
        # its triggers has a new value, only a missing one.
        net = inverter_chain(CMOS3, 3)
        analyzer = TimingAnalyzer(net)
        for spec in (InputSpec(0.0, 0.0, 0.2e-9),
                     InputSpec(arrival_rise=0.1e-9, arrival_fall=None),
                     InputSpec(arrival_rise=None, arrival_fall=None),
                     InputSpec(0.0, 0.0, 0.2e-9)):
            result = analyzer.analyze_delta({"in": spec})
            assert_identical(result, TimingAnalyzer(net).analyze(
                {"in": spec}), spec)

    def test_invalidate_caches_clears_carryover(self, rca4, rca4_vectors):
        analyzer = TimingAnalyzer(rca4)
        analyzer.analyze_delta(rca4_vectors[0].inputs)
        analyzer.invalidate_caches()
        result = analyzer.analyze_delta(rca4_vectors[0].inputs)
        # post-invalidation run is a cold analysis, not a zero-delta skip
        assert result.perf.get("delta_scenarios") == 0
        assert result.perf.get("stage_visits") > 0

    def test_resize_after_invalidate_is_correct(self):
        net = inverter_chain(CMOS3, 3)
        inputs = {"in": 0.0}
        analyzer = TimingAnalyzer(net)
        analyzer.analyze_delta(inputs)
        for device in net.transistors_gated_by("in"):
            net.resize_transistor(device.name, width=device.width / 4)
        analyzer.invalidate_caches()
        assert_identical(analyzer.analyze_delta(inputs),
                         TimingAnalyzer(net).analyze(inputs))

    def test_invalidation_racing_carryover_sequence(self, rca4,
                                                    rca4_vectors):
        """ISSUE 8 S3: invalidate_caches() interleaved at every position
        of a delta chain — each post-invalidation call must be a clean
        cold rebuild (delta_scenarios == 0, real stage visits), each
        other call a real delta, and every result must match a fresh
        analyzer.  Wrong numbers here would mean stale carryover
        survived the invalidation."""
        for break_at in range(len(rca4_vectors)):
            analyzer = TimingAnalyzer(rca4)
            for index, vector in enumerate(rca4_vectors):
                if index == break_at:
                    device = rca4.transistors[index % len(rca4.transistors)]
                    rca4.resize_transistor(device.name,
                                           width=device.width * 2.0)
                    analyzer.invalidate_caches()
                result = analyzer.analyze_delta(vector.inputs)
                cold = index == 0 or index == break_at
                assert (result.perf.get("delta_scenarios") == 0) == cold, (
                    break_at, index)
                assert result.perf.get("stage_visits") > 0
                assert_identical(result, TimingAnalyzer(rca4).analyze(
                    vector.inputs), ("race", break_at, index))
                if index == break_at:
                    # undo the edit so later break positions start equal
                    # power-of-two factor: the undo is bit-exact, so
                    # the module-scoped fixture is restored unchanged
                    rca4.resize_transistor(device.name,
                                           width=device.width / 2.0)
                    analyzer.invalidate_caches()
                    result = analyzer.analyze_delta(vector.inputs)
                    assert result.perf.get("delta_scenarios") == 0


class TestOrderings:
    def _binary_axes(self, names):
        return CartesianSweep(base={}, axes={n: [0.0, 0.5e-9]
                                             for n in names})

    def test_gray_permutation_adjacent_delta_one(self):
        source = self._binary_axes(["a", "b", "c"])
        vectors = list(source)
        permutation = source.gray_permutation()
        assert sorted(permutation) == list(range(8))
        ordered = [vectors[i] for i in permutation]
        assert pair_deltas(ordered) == [0] + [1] * 7

    def test_gray_mixed_radix(self):
        source = CartesianSweep(
            base={}, axes={"a": [0.0, 0.2e-9, 0.4e-9],
                           "b": [0.0, 0.5e-9]})
        vectors = list(source)
        permutation = source.gray_permutation()
        assert sorted(permutation) == list(range(6))
        ordered = [vectors[i] for i in permutation]
        assert all(d == 1 for d in pair_deltas(ordered)[1:])

    def test_vector_delta_counts_both_directions(self):
        a = Vector(label="a", inputs={"x": InputSpec(arrival_rise=0.0,
                                                     arrival_fall=0.0)})
        b = Vector(label="b", inputs={"y": InputSpec(arrival_rise=0.0,
                                                     arrival_fall=0.0)})
        assert vector_delta(a, a) == 0
        assert vector_delta(a, b) == 2  # x removed, y added

    def test_greedy_beats_given_on_shuffled_gray(self):
        source = self._binary_axes(["a", "b", "c", "d"])
        vectors = list(source)
        # worst-case-ish order: stride through the row-major list
        shuffled = [vectors[(5 * i) % 16] for i in range(16)]
        given = sum(pair_deltas(shuffled)[1:])
        greedy = [shuffled[i] for i in greedy_hamming_order(shuffled)]
        assert sum(pair_deltas(greedy)[1:]) < given
        assert greedy_hamming_order(shuffled)[0] == 0  # anchored start

    def test_order_vectors_validates_and_falls_back(self):
        vectors = list(self._binary_axes(["a", "b"]))
        assert order_vectors(vectors, "given") == list(range(4))
        with pytest.raises(SweepError):
            order_vectors(vectors, "sideways")
        # gray without a cartesian source degrades to greedy
        assert (order_vectors(vectors, "gray")
                == order_vectors(vectors, "greedy"))
        assert set(VECTOR_ORDERS) == {"given", "gray", "greedy"}


class TestRunSweepDelta:
    def test_delta_sweep_matches_full(self, rca4, rca4_vectors):
        full = run_sweep(rca4, rca4_vectors)
        for order in VECTOR_ORDERS:
            sweep = run_sweep(rca4, rca4_vectors, delta=True, order=order)
            assert ([o.label for o in sweep.outcomes]
                    == [o.label for o in full.outcomes])
            for a, b in zip(full.outcomes, sweep.outcomes):
                assert_identical(b.result, a.result, (order, a.label))

    def test_gray_order_reports_source_order(self, rca4):
        names = adder_input_names(4)
        source = CartesianSweep(base={n: 0.0 for n in names},
                                axes={"a2": [0.0, 0.4e-9],
                                      "b3": [0.0, 0.4e-9]})
        sweep = run_sweep(rca4, source, delta=True, order="gray")
        assert [o.label for o in sweep.outcomes] == [v.label for v in source]
        stats = sweep.order_stats
        assert stats.order == "gray" and stats.delta
        assert stats.deltas[0] == 0 and stats.max_delta == 1
        assert stats.mean_delta == pytest.approx(1.0)
        # the summary report mentions the mode
        summary = format_sweep_summary(sweep, critical_path=False)
        assert "delta (dirty-cone)" in summary and "order gray" in summary

    def test_delta_cuts_stage_visits(self, rca4):
        names = adder_input_names(4)
        source = CartesianSweep(base={n: 0.0 for n in names},
                                axes={"a1": [0.0, 0.4e-9],
                                      "a2": [0.0, 0.4e-9],
                                      "a3": [0.0, 0.4e-9]})
        full = run_sweep(rca4, source, order="gray")
        delta = run_sweep(rca4, source, delta=True, order="gray")
        assert (delta.batch_perf.total.get("stage_visits")
                < full.batch_perf.total.get("stage_visits"))
        assert delta.batch_perf.delta_skip_rate > 0
        assert "delta sweeps:" in delta.batch_perf.format_table()

    def test_duplicate_labels_rejected(self, rca4, rca4_vectors):
        doubled = rca4_vectors + [rca4_vectors[2]]
        with pytest.raises(SweepError, match="duplicate vector label"):
            run_sweep(rca4, doubled)
        with pytest.raises(SweepError, match=rca4_vectors[2].label):
            run_sweep(rca4, doubled)


class TestSimulatorIncrement:
    def test_set_vector_reports_changes_and_skips_unchanged(self):
        net = ripple_carry_adder(CMOS3, 2)
        sim = SwitchSimulator(net)
        names = adder_input_names(2)
        changed = sim.set_vector({name: 0 for name in names})
        first = sim.settle()
        assert changed == set(names)
        assert first.stages_solved > 0
        # identical vector: nothing dirty, nothing solved
        assert sim.set_vector({name: 0 for name in names}) == set()
        assert sim.settle().stages_solved == 0
        # single-bit flip: strictly less work than the cold settle
        assert sim.set_vector({"a1": 1}) == {"a1"}
        incremental = sim.settle()
        assert 0 < incremental.stages_solved < first.stages_solved

    def test_mark_dirty_rejects_unknown_node(self):
        net = nand_gate(CMOS3)
        sim = SwitchSimulator(net)
        with pytest.raises(SimulationError, match="unknown node"):
            sim._mark_dirty("no-such-node")


class TestRandomVectorDeterminism:
    def test_pinned_values_are_platform_stable(self):
        # RandomVectors documents platform determinism: a private
        # random.Random(seed) over an integer grid.  These exact values
        # pin that contract — a change here is a cross-platform or
        # cross-version reproducibility break, not noise.
        vecs = list(RandomVectors(input_names=["a", "b"], count=2, seed=42,
                                  span=1e-9, slope=0.3e-9))
        assert [v.label for v in vecs] == ["r0", "r1"]
        got = [(v.inputs["a"].arrival_rise, v.inputs["b"].arrival_rise)
               for v in vecs]
        assert got == [(6.54e-10, 1.14e-10), (2.5e-11, 7.59e-10)]

    def test_same_seed_same_vectors(self):
        a = list(RandomVectors(input_names=["x"], count=4, seed=9))
        b = list(RandomVectors(input_names=["x"], count=4, seed=9))
        assert [v.inputs["x"] for v in a] == [v.inputs["x"] for v in b]


class TestCliDeltaFlags:
    @pytest.fixture()
    def nand_file(self, tmp_path):
        path = tmp_path / "nand.sim"
        path.write_text("i a b\n"
                        "n a mid y 2 8\n"
                        "n b gnd mid 2 8\n"
                        "p a vdd y 2 8\n"
                        "p b vdd y 2 8\n")
        return str(path)

    def _vec_file(self, tmp_path, text):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        return str(path)

    def test_delta_flag_is_output_invariant(self, nand_file, tmp_path,
                                            capsys):
        vecs = self._vec_file(
            tmp_path, "@t0 a=0 b=0\n@t1 a=300p b=0\n@t2 a=0 b=150p\n")
        base = ["sweep", nand_file, "--tech", "cmos3", "--no-characterize",
                "--vectors", vecs, "--no-critical-path"]
        assert main(base + ["--no-delta"]) == 0
        cold = capsys.readouterr().out
        assert main(base + ["--delta"]) == 0
        delta = capsys.readouterr().out
        # same scenarios, same arrivals; only the mode line differs
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("analysis:")]
        assert strip(delta) == strip(cold)
        assert any(line.startswith("analysis: delta")
                   for line in delta.splitlines())

    def test_order_flag(self, nand_file, capsys):
        code = main(["sweep", nand_file, "--tech", "cmos3",
                     "--no-characterize", "--input", "b=0",
                     "--sweep", "a=0,200p,400p", "--order", "gray",
                     "--no-critical-path"])
        out = capsys.readouterr().out
        assert code == 0
        assert "order gray" in out

    def test_unknown_order_rejected(self, nand_file, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", nand_file, "--tech", "cmos3",
                  "--no-characterize", "--input", "b=0",
                  "--sweep", "a=0,200p", "--order", "sideways"])


def test_delta_sweep_visits_pinned(cmos3_shipped, rca32_gray_inputs):
    """Value-driven delta re-analysis against a full worklist per
    scenario over 64 Gray-ordered rca32 vectors on six high-order axes:
    the delta side's stage visits and its static dirty-cone total are
    pinned exactly, and the visits must stay at least 3x fewer with
    bit-identical arrivals."""
    network = ripple_carry_adder(cmos3_shipped, 32)
    vectors = rca32_gray_inputs(("a16", "b18", "a21", "b24", "a27", "b31"))
    full = TimingAnalyzer(network).analyze_many(vectors)
    delta = TimingAnalyzer(network).analyze_many(vectors, delta=True)
    delta_visits = sum(result.perf.get("stage_visits") for result in delta)
    full_visits = sum(result.perf.get("stage_visits") for result in full)
    cone = sum(result.perf.get("cone_stages") for result in delta)
    assert (delta_visits, full_visits, cone) == (919, 22528, 1899)
    assert full_visits >= 3 * delta_visits
    for position, (result, reference) in enumerate(zip(delta, full)):
        assert_identical(result, reference, position)


def test_delta_sweep_counter_totals_pinned(cmos3_shipped, rca32_gray_inputs):
    """Every counter of the delta side of the pin above, summed over its
    64 vectors: the worklist, candidate-loop and memo counters that pin
    does not name included, keys and all."""
    network = ripple_carry_adder(cmos3_shipped, 32)
    vectors = rca32_gray_inputs(("a16", "b18", "a21", "b24", "a27", "b31"))
    totals = {}
    for result in TimingAnalyzer(network).analyze_many(vectors, delta=True):
        for name, value in result.perf.counters.items():
            totals[name] = totals.get(name, 0) + value
    assert totals == {
        "arrival_updates": 3676, "arrivals_reused": 94500,
        "candidates": 15623, "cone_stages": 1899, "delta_scenarios": 63,
        "input_delta": 63, "kernel_batches": 257, "kernel_nodes": 1836,
        "model_cache_hits": 15011, "model_cache_misses": 612,
        "model_evals": 612, "path_enumerations": 16,
        "stage_full_evals": 919, "stage_visits": 919,
        "stages_skipped": 20277, "tree_template_hits": 588,
        "tree_template_misses": 24, "worklist_pushes": 1014,
        "worklist_stale_pops": 95}

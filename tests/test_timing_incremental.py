"""Regression tests for the incremental event-driven timing engine.

The demand-driven engine must be an *optimization*, not an approximation:
its arrivals — times, slopes, and causal chains — must be bit-identical to
a brute-force reference that re-evaluates every internal node of a stage
on every visit (``incremental=False``).  A second battery checks the
observability layer: the memo cache must actually eliminate model
evaluations on a warm re-analysis.
"""

import pytest

from repro.circuits import (
    adder_input_names,
    decoder,
    pass_chain,
    ripple_carry_adder,
)
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.errors import TimingError
from repro.switchlevel import SwitchSimulator
from repro.tech import CMOS3


def _fixtures():
    rca = ripple_carry_adder(CMOS3, 8)
    dec = decoder(CMOS3, 3)
    chain = pass_chain(CMOS3, 6)
    return [
        ("rca8", rca, {n: 0.0 for n in adder_input_names(8)}),
        ("decoder3", dec, {f"a{i}": 0.0 for i in range(3)}),
        ("passchain6", chain,
         {"in": InputSpec(arrival_rise=0.0, arrival_fall=0.0, slope=0.3e-9),
          "en": InputSpec(arrival_rise=None, arrival_fall=None)}),
    ]


class TestIncrementalIdentity:
    """Incremental vs brute-force full re-evaluation: bit-identical."""

    @pytest.mark.parametrize("name,network,inputs", _fixtures(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_bit_identical_arrivals(self, name, network, inputs):
        fast = TimingAnalyzer(network, incremental=True).analyze(inputs)
        reference = TimingAnalyzer(network, incremental=False).analyze(inputs)

        assert set(fast.arrivals) == set(reference.arrivals)
        for event, arrival in fast.arrivals.items():
            expected = reference.arrivals[event]
            assert arrival.time == expected.time, event
            assert arrival.slope == expected.slope, event
            assert arrival.cause == expected.cause, event

    @pytest.mark.parametrize("name,network,inputs", _fixtures(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_identical_causal_chains(self, name, network, inputs):
        fast = TimingAnalyzer(network, incremental=True).analyze(inputs)
        reference = TimingAnalyzer(network, incremental=False).analyze(inputs)
        worst_event, _ = fast.worst()
        chain_fast = fast.critical_path(worst_event.node,
                                        worst_event.transition)
        chain_ref = reference.critical_path(worst_event.node,
                                            worst_event.transition)
        assert [e for e, _ in chain_fast] == [e for e, _ in chain_ref]
        assert [a.time for _, a in chain_fast] == [
            a.time for _, a in chain_ref]

    def test_incremental_does_less_work(self):
        network = ripple_carry_adder(CMOS3, 8)
        inputs = {n: 0.0 for n in adder_input_names(8)}
        fast = TimingAnalyzer(network, incremental=True).analyze(inputs)
        reference = TimingAnalyzer(network, incremental=False).analyze(inputs)
        assert (fast.perf.get("candidates")
                <= reference.perf.get("candidates"))
        assert fast.perf.get("stage_visits") > 0

    def test_identity_with_state_pruning(self):
        """Sensitization states change which events exist; both engines
        must agree under pruning too."""
        network = ripple_carry_adder(CMOS3, 4)
        sim = SwitchSimulator(network)
        vector = {"cin": 0}
        for bit in range(4):
            vector[f"a{bit}"] = 1
            vector[f"b{bit}"] = 0
        pre = dict(sim.run(**vector))
        post = dict(sim.run(**{**vector, "cin": 1}))
        inputs = {n: 0.0 for n in adder_input_names(4)}
        fast = TimingAnalyzer(network, states=post, initial_states=pre,
                              incremental=True).analyze(inputs)
        reference = TimingAnalyzer(network, states=post, initial_states=pre,
                                   incremental=False).analyze(inputs)
        assert set(fast.arrivals) == set(reference.arrivals)
        for event, arrival in fast.arrivals.items():
            assert arrival.time == reference.arrivals[event].time, event


class TestWarmCaches:
    def test_second_analyze_skips_model_evaluations(self):
        network = ripple_carry_adder(CMOS3, 4)
        inputs = {n: 0.0 for n in adder_input_names(4)}
        analyzer = TimingAnalyzer(network)

        first = analyzer.analyze(inputs)
        second = analyzer.analyze(inputs)

        assert first.perf.get("model_evals") > 0
        # Identical scenario, warm memo: no model call should survive.
        assert second.perf.get("model_evals") < first.perf.get("model_evals")
        assert second.perf.get("model_cache_hits") > 0
        # And the answers are the same.
        for event, arrival in first.arrivals.items():
            assert second.arrivals[event].time == arrival.time

    def test_cumulative_counters_accumulate(self):
        network = ripple_carry_adder(CMOS3, 4)
        inputs = {n: 0.0 for n in adder_input_names(4)}
        analyzer = TimingAnalyzer(network)
        first = analyzer.analyze(inputs)
        second = analyzer.analyze(inputs)
        total = analyzer.perf.get("stage_visits")
        assert total == (first.perf.get("stage_visits")
                         + second.perf.get("stage_visits"))

    def test_invalidate_caches_forces_reevaluation(self):
        network = ripple_carry_adder(CMOS3, 4)
        inputs = {n: 0.0 for n in adder_input_names(4)}
        analyzer = TimingAnalyzer(network)
        analyzer.analyze(inputs)
        analyzer.invalidate_caches()
        rerun = analyzer.analyze(inputs)
        assert rerun.perf.get("model_evals") > 0

    def test_shifted_inputs_reuse_slope_cache(self):
        """Moving an input in time changes arrivals but not slopes, so the
        delay memo carries over between scenarios."""
        network = ripple_carry_adder(CMOS3, 4)
        analyzer = TimingAnalyzer(network)
        analyzer.analyze({n: 0.0 for n in adder_input_names(4)})
        shifted = analyzer.analyze(
            {n: 1e-9 for n in adder_input_names(4)})
        assert shifted.perf.get("model_evals") == 0


class TestPriorityWorklist:
    def test_feedforward_visits_each_stage_once(self):
        """On a feed-forward circuit the levelized worklist converges in a
        single visit per stage."""
        network = ripple_carry_adder(CMOS3, 8)
        inputs = {n: 0.0 for n in adder_input_names(8)}
        result = TimingAnalyzer(network).analyze(inputs)
        visits = result.perf.get("stage_visits")
        stages = len(TimingAnalyzer(network).graph.stages)
        assert visits <= stages

    def test_timing_loop_still_detected(self):
        from repro.circuits import Gates
        from repro.netlist import Network

        net = Network(CMOS3)
        gates = Gates(net)
        gates.nand(["set", "qb"], "q")
        gates.nand(["reset", "q"], "qb")
        net.mark_input("set", "reset")
        with pytest.raises(TimingError):
            TimingAnalyzer(net).analyze({"set": 0.0, "reset": 0.0})

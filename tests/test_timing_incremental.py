"""Regression tests for the event-driven timing engine.

The memo cache must actually eliminate model evaluations on a warm
re-analysis, the levelized worklist must visit a feed-forward stage
once and still catch a timing loop, and state pruning must give a warm
analyzer the same answers as a fresh one.
"""

import pytest

from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.timing import TimingAnalyzer
from repro.errors import TimingError
from repro.switchlevel import SwitchSimulator
from repro.tech import CMOS3


class TestStatePruning:
    def test_warm_analyzer_matches_fresh_under_pruning(self):
        """Sensitization states change which events exist; a warm
        analyzer's second scenario must still equal a fresh analyzer's,
        and the pruned run must lack events the unpruned one has."""
        network = ripple_carry_adder(CMOS3, 4)
        sim = SwitchSimulator(network)
        vector = {"cin": 0}
        for bit in range(4):
            vector[f"a{bit}"] = 1
            vector[f"b{bit}"] = 0
        pre = dict(sim.run(**vector))
        post = dict(sim.run(**{**vector, "cin": 1}))
        names = adder_input_names(4)
        early = {n: 0.0 for n in names}
        late = {n: 0.5e-9 if n == "cin" else 0.0 for n in names}
        warm = TimingAnalyzer(network, states=post, initial_states=pre)
        warm.analyze(early)
        again = warm.analyze(late)
        fresh = TimingAnalyzer(network, states=post,
                               initial_states=pre).analyze(late)
        assert again.arrivals == fresh.arrivals
        unpruned = TimingAnalyzer(network).analyze(late)
        assert set(fresh.arrivals) < set(unpruned.arrivals)


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

"""Tests for the static timing analyzer."""

import pytest

from repro.circuits import (
    Gates,
    adder_input_names,
    inverter_chain,
    nand_gate,
    ripple_carry_adder,
    xor_gate,
)
from repro.core.models import LumpedRCModel, SlopeModel
from repro.core.timing import (
    InputSpec,
    TimingAnalyzer,
    analyze,
    arrival_table,
    format_critical_path,
    format_worst_paths,
)
from repro.core.timing.analyzer import event_order
from repro.errors import NetlistError, TimingError
from repro.netlist import Network
from repro.switchlevel import Logic, SwitchSimulator
from repro.tech import CMOS3, NMOS4, DeviceKind, Transition


class TestBasicPropagation:
    def test_single_inverter_both_edges(self):
        result = analyze(inverter_chain(CMOS3, 1), {"in": 0.0})
        assert result.arrival("out", Transition.RISE).time > 0
        assert result.arrival("out", Transition.FALL).time > 0

    def test_chain_arrivals_increase(self):
        result = analyze(inverter_chain(CMOS3, 4), {"in": 0.0})
        nodes = ["n1", "n2", "n3", "out"]
        times = [max(result.arrival(n, t).time for t in Transition)
                 for n in nodes]
        assert times == sorted(times)
        assert times[0] > 0

    def test_input_offset_shifts_everything(self):
        base = analyze(inverter_chain(CMOS3, 2), {"in": 0.0})
        shifted = analyze(inverter_chain(CMOS3, 2), {"in": 1e-9})
        for transition in Transition:
            delta = (shifted.arrival("out", transition).time
                     - base.arrival("out", transition).time)
            assert delta == pytest.approx(1e-9, rel=1e-9)

    def test_longer_chains_slower(self):
        short = analyze(inverter_chain(CMOS3, 2), {"in": 0.0})
        long = analyze(inverter_chain(CMOS3, 6), {"in": 0.0})
        assert (long.arrival("out", Transition.RISE).time
                > short.arrival("out", Transition.RISE).time)

    def test_models_differ(self):
        net = inverter_chain(CMOS3, 3)
        lumped = analyze(net, {"in": 0.0}, model=LumpedRCModel())
        slope = analyze(net, {"in": 0.0}, model=SlopeModel())
        assert lumped.model_name == "lumped-rc"
        assert slope.model_name == "slope"
        assert lumped.arrival("out", Transition.FALL).time != pytest.approx(
            slope.arrival("out", Transition.FALL).time)


class TestInputSpecs:
    def test_single_edge_only(self):
        spec = InputSpec(arrival_rise=0.0, arrival_fall=None)
        result = analyze(inverter_chain(CMOS3, 1), {"in": spec})
        assert result.has_arrival("out", Transition.FALL)
        assert not result.has_arrival("out", Transition.RISE)

    def test_input_slope_slows_slope_model(self):
        net = inverter_chain(CMOS3, 1, load_cap=100e-15)
        fast = analyze(net, {"in": InputSpec(slope=0.0)})
        slow = analyze(net, {"in": InputSpec(slope=20e-9)})
        assert (slow.arrival("out", Transition.FALL).time
                > 1.5 * fast.arrival("out", Transition.FALL).time)

    def test_missing_input_rejected(self):
        with pytest.raises(TimingError):
            analyze(nand_gate(CMOS3, 2), {"a0": 0.0})

    def test_supply_as_input_rejected(self):
        with pytest.raises(TimingError):
            analyze(inverter_chain(CMOS3, 1), {"in": 0.0, "vdd": 0.0})

    def test_internal_node_as_input_rejected(self):
        # A re-seeded internal node is outside its own dirty cone, so a
        # delta run would keep the seed where a full run recomputes it.
        analyzer = TimingAnalyzer(inverter_chain(CMOS3, 2))
        analyzer.analyze({"in": 0.0})
        for run in (analyzer.analyze, analyzer.analyze_delta):
            with pytest.raises(TimingError,
                               match="input 'n1' is not a primary input"):
                run({"in": 0.0, "n1": 1e-9})

    def test_input_names_resolve_through_the_network(self):
        # A canonical primary-input name is taken as it is; any other
        # spelling resolves through the network, and so do its errors.
        net = nand_gate(CMOS3, 2)
        plain = analyze(net, {"a0": 0.0, "a1": 0.0})
        spaced = analyze(net, {" a0 ": 0.0, "a1": 0.0})
        assert ([(e, a.time) for e, a in spaced.arrivals.items()]
                == [(e, a.time) for e, a in plain.arrivals.items()])
        with pytest.raises(NetlistError, match="unknown node 'zz'"):
            analyze(net, {"a0": 0.0, "a1": 0.0, "zz": 0.0})

    def test_side_input_without_events(self):
        result = analyze(nand_gate(CMOS3, 2), {
            "a0": 0.0,
            "a1": InputSpec(arrival_rise=None, arrival_fall=None),
        })
        assert result.arrival("out", Transition.FALL).time > 0

    def test_bare_number_means_both_edges(self):
        result = analyze(inverter_chain(CMOS3, 1), {"in": 2e-9})
        assert result.arrival("out", Transition.RISE).time > 2e-9

    @pytest.mark.parametrize("spec", [
        float("nan"), float("inf"), -float("inf"),
        InputSpec(arrival_rise=0.0, arrival_fall=float("nan")),
        InputSpec(arrival_rise=float("inf"), arrival_fall=None),
        InputSpec(slope=float("nan")),
        InputSpec(slope=float("inf")),
    ], ids=["nan", "inf", "-inf", "fall-nan", "rise-inf", "slope-nan",
            "slope-inf"])
    def test_non_finite_timing_rejected(self, spec):
        net = nand_gate(CMOS3, 2)
        with pytest.raises(TimingError, match="input 'a1'.*not finite"):
            TimingAnalyzer(net).analyze({"a0": 0.0, "a1": spec})

    def test_negative_slope_rejected(self):
        net = nand_gate(CMOS3, 2)
        with pytest.raises(TimingError,
                           match=r"input 'a1': negative slope -1e-09"):
            TimingAnalyzer(net).analyze(
                {"a0": 0.0, "a1": InputSpec(0.0, 0.0, -1e-9)})


class TestResultAccess:
    @pytest.fixture
    def result(self):
        return analyze(inverter_chain(CMOS3, 3), {"in": 0.0})

    def test_unknown_arrival_raises(self, result):
        with pytest.raises(TimingError):
            result.arrival("in.bogus", Transition.RISE)

    def test_worst_over_all(self, result):
        event, arrival = result.worst()
        assert arrival.time == max(a.time for a in result.arrivals.values())

    def test_worst_over_subset(self, result):
        event, _ = result.worst(["n1", "n2"])
        assert event.node in ("n1", "n2")

    def test_worst_empty_subset_raises(self, result):
        with pytest.raises(TimingError):
            result.worst([])

    def test_worst_breaks_exact_ties_in_event_order(self):
        """Two identical inverters on one input tie exactly; the tie goes
        to the first event in event_order (``y10`` sorts before ``y2``),
        with or without a node filter."""
        net = Network(CMOS3)
        for out in ("y2", "y10"):
            net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", out)
            net.add_transistor(DeviceKind.PMOS, "a", "vdd", out)
        net.mark_input("a")
        result = analyze(net, {"a": InputSpec(0.0, 0.0, 0.2e-9)})
        latest = max(a.time for a in result.arrivals.values())
        tied = sorted((e for e, a in result.arrivals.items()
                       if a.time == latest), key=event_order)
        assert [e.node for e in tied] == ["y10", "y2"]
        assert result.worst()[0] == tied[0]
        assert result.worst(["y2", "y10"])[0] == tied[0]
        assert result.worst(["y2"])[0] == tied[1]

    def test_critical_path_starts_at_input(self, result):
        chain = result.critical_path("out", Transition.RISE)
        assert chain[0][0].node == "in"
        assert chain[0][1].is_primary
        assert chain[-1][0].node == "out"

    def test_critical_path_times_monotone(self, result):
        chain = result.critical_path("out", Transition.FALL)
        times = [a.time for _, a in chain]
        assert times == sorted(times)

    def test_critical_path_alternates_edges(self, result):
        chain = result.critical_path("out", Transition.FALL)
        transitions = [e.transition for e, _ in chain]
        for a, b in zip(transitions, transitions[1:]):
            assert a is not b  # inverters flip polarity every stage


class TestStatePruning:
    def test_xor_false_path_pruned(self):
        """With b held low, the nab node never moves; the analyzer must
        find the short (2-stage) path, not the false 4-stage one."""
        net = xor_gate(CMOS3)
        sim = SwitchSimulator(net)
        pre = dict(sim.run(a=0, b=0))
        post = dict(sim.run(a=1))
        inputs = {"a": InputSpec(arrival_rise=0.0, arrival_fall=None),
                  "b": InputSpec(arrival_rise=None, arrival_fall=None)}
        pruned = analyze(net, inputs, states=post, initial_states=pre)
        pessimistic = analyze(net, inputs)
        assert (pruned.arrival("out", Transition.RISE).time
                < 0.7 * pessimistic.arrival("out", Transition.RISE).time)
        # The unchanged internal node has no events at all.
        assert not pruned.has_arrival("nab" if pruned.network.has_node("nab")
                                      else "out.nab", Transition.FALL)

    def test_post_state_gates_transition_direction(self):
        net = inverter_chain(CMOS3, 1)
        sim = SwitchSimulator(net)
        pre = dict(sim.run(**{"in": 0}))
        post = dict(sim.run(**{"in": 1}))
        result = analyze(net, {"in": InputSpec(arrival_rise=0.0,
                                               arrival_fall=None)},
                         states=post, initial_states=pre)
        assert result.has_arrival("out", Transition.FALL)
        assert not result.has_arrival("out", Transition.RISE)


class TestLoopsAndScale:
    def test_timing_loop_detected(self):
        """A cross-coupled latch without state pruning loops forever; the
        visit cap must catch it."""
        net = Network(CMOS3)
        gates = Gates(net)
        gates.nand(["set", "qb"], "q")
        gates.nand(["reset", "q"], "qb")
        net.mark_input("set", "reset")
        with pytest.raises(TimingError):
            analyze(net, {"set": 0.0, "reset": 0.0})

    def test_adder_analyzes_cleanly(self):
        net = ripple_carry_adder(CMOS3, 4)
        result = analyze(net, {n: 0.0 for n in adder_input_names(4)})
        worst_event, worst = result.worst(["s3", "cout"])
        assert worst.time > 0

    def test_nmos_technology_works(self):
        result = analyze(inverter_chain(NMOS4, 2), {"in": 0.0})
        # nMOS rise through the depletion load is much slower than fall.
        rise = result.arrival("out", Transition.RISE)
        n1_fall = result.arrival("n1", Transition.FALL)
        assert rise.time > n1_fall.time


class TestReports:
    @pytest.fixture
    def result(self):
        return analyze(inverter_chain(CMOS3, 3), {"in": 0.0})

    def test_critical_path_report(self, result):
        text = format_critical_path(result, "out", Transition.FALL)
        assert "critical path" in text
        assert "out" in text and "primary input" in text
        assert "path delay" in text

    def test_worst_paths_report(self, result):
        text = format_worst_paths(result, count=3)
        assert "worst arrivals" in text
        assert len(text.splitlines()) == 4

    def test_arrival_table(self, result):
        text = arrival_table(result, nodes=["out", "n1"])
        assert "out" in text and "n1" in text and "rise" in text

    def test_arrival_table_dashes_for_missing(self):
        result = analyze(inverter_chain(CMOS3, 1),
                         {"in": InputSpec(arrival_rise=0.0,
                                          arrival_fall=None)})
        text = arrival_table(result, nodes=["out"])
        assert "-" in text

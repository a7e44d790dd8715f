"""Tests for stage path enumeration, triggers, and RC-tree construction."""

import pytest

from repro.circuits import Gates, inverter_chain, nand_gate, pass_chain
from repro.core.timing import effective_node_cap, enumerate_paths
from repro.core.timing.paths import compile_template, effective_node_caps
from repro.errors import TimingError
from repro.netlist import GND, VDD, Network, decompose_stages
from repro.switchlevel import Logic
from repro.tech import CMOS3, NMOS4, DeviceKind, Transition


def stage_for(net, node):
    for stage in decompose_stages(net):
        if stage.contains(node):
            return stage
    raise AssertionError(f"no stage contains {node}")


class TestInverterPaths:
    @pytest.fixture
    def cmos_inv(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y", name="mn")
        net.add_transistor(DeviceKind.PMOS, "a", "vdd", "y", name="mp")
        net.mark_input("a")
        return net

    def test_fall_path_from_gnd(self, cmos_inv):
        stage = stage_for(cmos_inv, "y")
        paths = enumerate_paths(cmos_inv, stage, "y", Transition.FALL)
        assert len(paths) == 1
        assert paths[0].source == GND
        assert [e.element.name for e in paths[0].elements] == ["mn"]

    def test_rise_path_from_vdd(self, cmos_inv):
        stage = stage_for(cmos_inv, "y")
        paths = enumerate_paths(cmos_inv, stage, "y", Transition.RISE)
        assert paths[0].source == VDD

    def test_fall_trigger_is_gate_rise(self, cmos_inv):
        stage = stage_for(cmos_inv, "y")
        paths = enumerate_paths(cmos_inv, stage, "y", Transition.FALL)
        triggers = {(t.input_node, t.input_transition, t.mechanism)
                    for t in paths[0].triggers}
        assert ("a", Transition.RISE, "on") in triggers

    def test_rise_also_has_off_trigger(self, cmos_inv):
        """The nMOS turning off releases the node to the pMOS: the same
        input event through the complementary mechanism."""
        stage = stage_for(cmos_inv, "y")
        paths = enumerate_paths(cmos_inv, stage, "y", Transition.RISE)
        mechanisms = {t.mechanism for t in paths[0].triggers}
        assert "on" in mechanisms  # pMOS turning on (a falls)
        # The off-trigger for the same event is deduplicated onto one
        # trigger per (node, transition):
        events = [(t.input_node, t.input_transition)
                  for t in paths[0].triggers]
        assert len(events) == len(set(events))

    def test_unknown_target_rejected(self, cmos_inv):
        stage = stage_for(cmos_inv, "y")
        with pytest.raises(TimingError):
            enumerate_paths(cmos_inv, stage, "a", Transition.RISE)


class TestNMOSInverterTriggers:
    def test_rise_is_release_through_load(self):
        net = Network(NMOS4)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y", name="mn")
        net.add_transistor(DeviceKind.NMOS_DEP, "y", "y", "vdd", name="ml")
        net.mark_input("a")
        stage = stage_for(net, "y")
        paths = enumerate_paths(net, stage, "y", Transition.RISE)
        assert len(paths) == 1
        assert paths[0].source == VDD
        (trigger,) = [t for t in paths[0].triggers if t.mechanism == "off"]
        assert trigger.input_node == "a"
        assert trigger.input_transition is Transition.FALL
        # The table the slope model should use: the depletion load's.
        assert trigger.device_kind is DeviceKind.NMOS_DEP


class TestSensitization:
    def test_blocked_series_path_pruned(self):
        """nand2 with one input held low: the pulldown path is dead."""
        net = nand_gate(CMOS3, 2)
        stage = stage_for(net, "out")
        states = {"a1": Logic.ZERO}
        paths = enumerate_paths(net, stage, "out", Transition.FALL, states)
        assert paths == []

    def test_enabled_series_path_kept(self):
        net = nand_gate(CMOS3, 2)
        stage = stage_for(net, "out")
        states = {"a0": Logic.ONE, "a1": Logic.ONE}
        paths = enumerate_paths(net, stage, "out", Transition.FALL, states)
        assert len(paths) == 1

    def test_x_states_permissive(self):
        net = nand_gate(CMOS3, 2)
        stage = stage_for(net, "out")
        paths = enumerate_paths(net, stage, "out", Transition.FALL, None)
        assert len(paths) == 1

    def test_off_trigger_requires_release(self):
        """An opposing device whose gate stays at the conducting level is
        not a release trigger."""
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y", name="mn")
        net.add_transistor(DeviceKind.PMOS, "b", "vdd", "y", name="mp")
        net.mark_input("a", "b")
        stage = stage_for(net, "y")
        states = {"a": Logic.ONE, "b": Logic.ZERO}  # pulldown stays on
        paths = enumerate_paths(net, stage, "y", Transition.RISE, states)
        for path in paths:
            for trigger in path.triggers:
                if trigger.mechanism == "off":
                    assert trigger.input_node != "a"


class TestPassChains:
    def test_through_trigger_on_driven_source(self):
        net = Network(CMOS3)
        gates = Gates(net)
        gates.pass_nmos("en", "in", "out")
        net.add_capacitor("out", "gnd", 10e-15)
        net.mark_input("in", "en")
        stage = stage_for(net, "out")
        paths = enumerate_paths(net, stage, "out", Transition.RISE,
                                {"en": Logic.ONE})
        (path,) = paths
        assert path.source == "in"
        mechanisms = {t.mechanism for t in path.triggers}
        assert "through" in mechanisms

    def test_full_chain_path_through_driver(self):
        net = pass_chain(CMOS3, 3)
        stage = stage_for(net, "out")
        states = {"en": Logic.ONE}
        paths = enumerate_paths(net, stage, "out", Transition.RISE, states)
        sources = {p.source for p in paths}
        assert VDD in sources  # through the driver's pMOS
        longest = max(len(p.elements) for p in paths)
        assert longest == 4  # pMOS + 3 pass devices


class TestTreeBuilding:
    def test_tree_matches_path_geometry(self):
        net = pass_chain(CMOS3, 2)
        stage = stage_for(net, "out")
        states = {"en": Logic.ONE, "in": Logic.ZERO}
        paths = enumerate_paths(net, stage, "out", Transition.RISE, states)
        path = max(paths, key=lambda p: len(p.elements))
        tree = compile_template(net, stage, path, states).to_rctree()
        assert tree.root == path.source
        assert tree.contains("out")
        assert tree.path_resistance("out") > 0

    def test_tree_caps_match_network(self):
        net = pass_chain(CMOS3, 2)
        stage = stage_for(net, "out")
        states = {"en": Logic.ONE}
        paths = enumerate_paths(net, stage, "out", Transition.RISE, states)
        path = max(paths, key=lambda p: len(p.elements))
        tree = compile_template(net, stage, path, states).to_rctree()
        assert tree.cap("out") == pytest.approx(
            effective_node_cap(net, "out"))

    def test_parallel_transmission_gate_merged(self):
        """Both t-gate devices conduct: the tree edge is their parallel
        combination, lower than either alone."""
        net = Network(CMOS3)
        gates = Gates(net)
        gates.transmission_gate("s", "sn", "in", "out")
        net.add_capacitor("out", "gnd", 20e-15)
        net.mark_input("in", "s", "sn")
        stage = stage_for(net, "out")
        states = {"s": Logic.ONE, "sn": Logic.ZERO}
        paths = enumerate_paths(net, stage, "out", Transition.RISE, states)
        tree = compile_template(net, stage, paths[0], states).to_rctree()
        merged = tree.path_resistance("out")
        # Compare against each device alone.
        singles = []
        for device in net.transistors:
            singles.append(net.tech.resistance(
                device.kind, Transition.RISE, device.width, device.length))
        assert merged < min(singles)
        expected = 1.0 / sum(1.0 / r for r in singles)
        assert merged == pytest.approx(expected)

    def test_side_branch_capacitance_included(self):
        """A conducting side branch loads the path tree."""
        net = Network(CMOS3)
        gates = Gates(net)
        gates.inverter("a", "y")
        gates.pass_nmos("en", "y", "side")
        net.add_capacitor("side", "gnd", 40e-15)
        net.mark_input("a", "en")
        stage = stage_for(net, "y")
        states_on = {"en": Logic.ONE}
        states_off = {"en": Logic.ZERO}
        paths = enumerate_paths(net, stage, "y", Transition.FALL, states_on)
        tree_on = compile_template(net, stage, paths[0],
                                   states_on).to_rctree()
        tree_off = compile_template(net, stage, paths[0],
                                    states_off).to_rctree()
        assert tree_on.total_cap() > tree_off.total_cap() + 30e-15
        assert tree_on.contains("side")
        assert not tree_off.contains("side")

    def test_branches_can_be_disabled(self):
        net = Network(CMOS3)
        gates = Gates(net)
        gates.inverter("a", "y")
        gates.pass_nmos("en", "y", "side")
        net.mark_input("a", "en")
        stage = stage_for(net, "y")
        paths = enumerate_paths(net, stage, "y", Transition.FALL)
        tree = compile_template(net, stage, paths[0],
                                include_branches=False).to_rctree()
        assert not tree.contains("side")


@pytest.mark.parametrize("build", [
    lambda: inverter_chain(CMOS3, 3),
    lambda: pass_chain(CMOS3, 4),
    lambda: nand_gate(NMOS4, 3),
], ids=["inverters", "pass-chain", "nmos-nand"])
def test_bulk_node_caps_are_bit_equal(build):
    """The one-pass capacitance map the analyzer classifies stages with
    sums each node's terms in the per-node order, so it is bit-equal."""
    net = build()
    net.add_capacitor("vdd", net.node_names[-1], 3e-15)
    signals = [node.name for node in net.signal_nodes]
    net.add_capacitor(signals[0], signals[-1], 7e-15)
    caps = effective_node_caps(net)
    assert set(caps) == set(net.node_names)
    for name in net.node_names:
        assert caps[name].hex() == effective_node_cap(net, name).hex(), name

"""Tests for nodes, elements and the Network container."""

import copy
import dataclasses
import pickle

import pytest

from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.models import characterize_technology
from repro.core.timing import TimingAnalyzer
from repro.errors import NetlistError
from repro.netlist import GND, VDD, Network, NodeRole, canonical_name
from repro.netlist.transistor import Capacitor, Resistor, Transistor
from repro.tech import CMOS3, NMOS4, DeviceKind


class TestCanonicalNames:
    @pytest.mark.parametrize("alias", ["vdd", "VDD", "Vcc", "vdd!"])
    def test_power_aliases(self, alias):
        assert canonical_name(alias) == VDD

    @pytest.mark.parametrize("alias", ["gnd", "GND", "vss", "0", "gnd!"])
    def test_ground_aliases(self, alias):
        assert canonical_name(alias) == GND

    def test_signal_names_preserved(self):
        assert canonical_name(" myNode ") == "myNode"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_name("   ")


class TestTransistorElement:
    def test_channel_and_other_terminal(self):
        t = Transistor("m1", DeviceKind.NMOS_ENH, "g", "s", "d", 4e-6, 2e-6)
        assert t.channel == ("s", "d")
        assert t.other_channel_terminal("s") == "d"
        assert t.other_channel_terminal("d") == "s"

    def test_other_terminal_rejects_stranger(self):
        t = Transistor("m1", DeviceKind.NMOS_ENH, "g", "s", "d", 4e-6, 2e-6)
        with pytest.raises(NetlistError):
            t.other_channel_terminal("g")

    def test_geometry_validated(self):
        with pytest.raises(NetlistError):
            Transistor("m1", DeviceKind.NMOS_ENH, "g", "s", "d", 0.0, 2e-6)

    def test_is_load_detection(self):
        load = Transistor("m1", DeviceKind.NMOS_DEP, "y", "y", "vdd",
                          2e-6, 8e-6)
        assert load.is_load
        switch = Transistor("m2", DeviceKind.NMOS_DEP, "clk", "a", "b",
                            2e-6, 8e-6)
        assert not switch.is_load
        enh = Transistor("m3", DeviceKind.NMOS_ENH, "y", "y", "vdd",
                         2e-6, 2e-6)
        assert not enh.is_load

    def test_shape_factor(self):
        t = Transistor("m1", DeviceKind.NMOS_ENH, "g", "s", "d", 8e-6, 2e-6)
        assert t.shape_factor() == pytest.approx(4.0)

    def test_frozen_value_object(self):
        # Slots filled through their descriptors: still frozen, equal and
        # hashed by value, picklable and copyable, and replace() works.
        t = Transistor("m1", DeviceKind.NMOS_ENH, "g", "s", "d", 4e-6, 2e-6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.width = 1e-6
        with pytest.raises(dataclasses.FrozenInstanceError):
            del t.gate
        twin = Transistor("m1", DeviceKind.NMOS_ENH, "g", "s", "d",
                          4e-6, 2e-6)
        assert t == twin and hash(t) == hash(twin)
        for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t),
                      copy.deepcopy(t)):
            assert clone == t and hash(clone) == hash(t)
        wider = dataclasses.replace(t, width=8e-6)
        assert (wider.width, wider.gate) == (8e-6, "g") and wider != t
        with pytest.raises(NetlistError):
            dataclasses.replace(t, length=0.0)

    def test_resistor_validation(self):
        with pytest.raises(NetlistError):
            Resistor("r1", "a", "b", 0.0)

    def test_capacitor_validation(self):
        with pytest.raises(NetlistError):
            Capacitor("c1", "a", "b", -1e-15)


class TestNetworkConstruction:
    def test_rails_exist_from_start(self):
        net = Network(CMOS3)
        assert net.has_node(VDD) and net.has_node(GND)
        assert net.node(VDD).role is NodeRole.POWER
        assert net.node(GND).role is NodeRole.GROUND

    def test_add_node_idempotent_accumulates_cap(self):
        net = Network(CMOS3)
        net.add_node("x", capacitance=1e-15)
        net.add_node("x", capacitance=2e-15)
        assert net.node("x").capacitance == pytest.approx(3e-15)

    def test_unknown_node_raises(self):
        net = Network(CMOS3)
        with pytest.raises(NetlistError):
            net.node("nope")

    def test_add_transistor_creates_nodes(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        assert net.has_node("a") and net.has_node("y")

    def test_add_transistor_default_geometry(self):
        net = Network(CMOS3)
        t = net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        assert t.width == CMOS3.default_width
        assert t.length == CMOS3.default_length

    def test_add_transistor_wrong_kind_for_tech(self):
        net = Network(CMOS3)
        with pytest.raises(NetlistError):
            net.add_transistor(DeviceKind.NMOS_DEP, "y", "y", "vdd")

    def test_duplicate_transistor_name(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y", name="m1")
        with pytest.raises(NetlistError):
            net.add_transistor(DeviceKind.NMOS_ENH, "b", "gnd", "z",
                               name="m1")

    def test_source_equals_drain_rejected(self):
        net = Network(CMOS3)
        with pytest.raises(NetlistError):
            net.add_transistor(DeviceKind.NMOS_ENH, "a", "y", "y")

    def test_mark_input(self):
        net = Network(CMOS3)
        net.add_node("a")
        net.mark_input("a")
        assert net.node("a").role is NodeRole.INPUT
        assert [n.name for n in net.inputs()] == ["a"]

    def test_mark_supply_as_input_rejected(self):
        net = Network(CMOS3)
        with pytest.raises(NetlistError):
            net.mark_input("vdd")

    def test_resistor_self_loop_rejected(self):
        net = Network(CMOS3)
        with pytest.raises(NetlistError):
            net.add_resistor("a", "a", 1e3)


class TestCapacitorFolding:
    def test_grounded_cap_folds_onto_node(self):
        net = Network(CMOS3)
        result = net.add_capacitor("y", "gnd", 10e-15)
        assert result is None
        assert net.node("y").capacitance == pytest.approx(10e-15)
        assert net.capacitors == []

    def test_vdd_cap_folds_too(self):
        net = Network(CMOS3)
        net.add_capacitor("vdd", "y", 5e-15)
        assert net.node("y").capacitance == pytest.approx(5e-15)

    def test_floating_cap_kept(self):
        net = Network(CMOS3)
        cap = net.add_capacitor("a", "b", 10e-15)
        assert cap is not None
        assert len(net.capacitors) == 1

    def test_rail_to_rail_cap_rejected(self):
        net = Network(CMOS3)
        with pytest.raises(NetlistError):
            net.add_capacitor("vdd", "gnd", 1e-15)

    def test_non_positive_cap_rejected(self):
        net = Network(CMOS3)
        with pytest.raises(NetlistError):
            net.add_capacitor("a", "gnd", 0.0)


class TestConnectivityQueries:
    @pytest.fixture
    def inverter(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y", name="mn")
        net.add_transistor(DeviceKind.PMOS, "a", "vdd", "y", name="mp")
        return net

    def test_transistors_gated_by(self, inverter):
        names = {t.name for t in inverter.transistors_gated_by("a")}
        assert names == {"mn", "mp"}

    def test_transistors_touching(self, inverter):
        names = {t.name for t in inverter.transistors_touching("y")}
        assert names == {"mn", "mp"}
        assert inverter.transistors_touching("a") == []

    def test_channel_neighbors(self, inverter):
        neighbors = dict(
            (t.name, other) for other, t in inverter.channel_neighbors("y"))
        assert neighbors == {"mn": GND, "mp": VDD}

    def test_conduction_edges(self, inverter):
        edges = list(inverter.conduction_edges())
        assert len(edges) == 2

    def test_externally_driven(self, inverter):
        inverter.mark_input("a")
        assert set(inverter.externally_driven()) == {VDD, GND, "a"}


class TestNodeCapacitance:
    def test_includes_gate_diffusion_and_explicit(self):
        net = Network(CMOS3)
        driver = net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y",
                                    width=6e-6, length=2e-6)
        loadgate = net.add_transistor(DeviceKind.NMOS_ENH, "y", "gnd", "z",
                                      width=6e-6, length=2e-6)
        net.add_capacitor("y", "gnd", 10e-15)
        params = CMOS3.params(DeviceKind.NMOS_ENH)
        expected = (10e-15
                    + params.gate_capacitance(6e-6, 2e-6)  # gate of loadgate
                    + params.diffusion_capacitance(6e-6))  # drain of driver
        assert net.node_capacitance("y") == pytest.approx(expected)

    def test_bare_node_zero(self):
        net = Network(CMOS3)
        net.add_node("x")
        assert net.node_capacitance("x") == 0.0


class TestMerge:
    def test_merge_with_prefix(self):
        a = Network(CMOS3, name="a")
        a.add_transistor(DeviceKind.NMOS_ENH, "in", "gnd", "out", name="m1")
        a.mark_input("in")
        b = Network(CMOS3, name="b")
        mapping = b.merge_from(a, prefix="u1_")
        assert mapping["out"] == "u1_out"
        assert mapping[VDD] == VDD
        assert b.has_node("u1_out")
        assert b.transistor("u1_m1").gate == "u1_in"
        assert b.node("u1_in").role is NodeRole.INPUT

    def test_merge_requires_same_tech(self):
        a = Network(CMOS3)
        b = Network(NMOS4)
        with pytest.raises(NetlistError):
            b.merge_from(a)

    def test_merge_preserves_floating_caps(self):
        a = Network(NMOS4)
        a.add_capacitor("x", "y", 3e-15)
        b = Network(NMOS4)
        b.merge_from(a, prefix="p_")
        assert len(b.capacitors) == 1
        cap = b.capacitors[0]
        assert {cap.node_a, cap.node_b} == {"p_x", "p_y"}

    def test_summary_counts(self):
        net = Network(CMOS3, name="demo")
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        text = net.summary()
        assert "demo" in text and "1 transistors" in text


class TestNetworkPickling:
    """Networks and characterized technologies survive a pickle round
    trip, so analyses can be shipped or cached by callers."""

    def test_round_trip_preserves_structure(self):
        net = ripple_carry_adder(CMOS3, 4)
        clone = pickle.loads(pickle.dumps(net))
        assert clone.name == net.name
        assert len(clone.nodes) == len(net.nodes)
        assert len(clone.transistors) == len(net.transistors)
        assert (sorted(n.name for n in clone.inputs())
                == sorted(n.name for n in net.inputs()))

    def test_clone_analyzes_identically(self):
        net = ripple_carry_adder(CMOS3, 4)
        inputs = {name: 0.0 for name in adder_input_names(4)}
        clone = pickle.loads(pickle.dumps(net))
        a = TimingAnalyzer(net).analyze(inputs)
        b = TimingAnalyzer(clone).analyze(inputs)
        assert set(a.arrivals) == set(b.arrivals)
        for event in a.arrivals:
            assert a.arrivals[event].time == b.arrivals[event].time
            assert a.arrivals[event].slope == b.arrivals[event].slope

    def test_characterized_technology_pickles(self):
        # Regression: the pass-gate fixture builder used to be a closure,
        # which made every characterized Technology (and so any network
        # built on one) unpicklable.
        for base in (CMOS3, NMOS4):
            tech = characterize_technology(base)
            clone = pickle.loads(pickle.dumps(tech))
            assert clone.name == tech.name

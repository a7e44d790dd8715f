"""Tests for channel-connected-region (stage) decomposition."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Gates, inverter_chain, pass_chain
from repro.errors import NetlistError
from repro.netlist import GND, VDD, Network, StageMap, decompose_stages, stage_of
from repro.tech import CMOS3, NMOS4, DeviceKind


class TestBasicDecomposition:
    def test_single_inverter_is_one_stage(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        net.add_transistor(DeviceKind.PMOS, "a", "vdd", "y")
        stages = decompose_stages(net)
        assert len(stages) == 1
        assert stages[0].internal_nodes == frozenset({"y"})
        assert stages[0].boundary_nodes == frozenset({VDD, GND})
        assert stages[0].gate_inputs == frozenset({"a"})

    def test_inverter_chain_stage_per_gate(self):
        net = inverter_chain(CMOS3, 4)
        stages = decompose_stages(net)
        assert len(stages) == 4
        internals = sorted(
            node for stage in stages for node in stage.internal_nodes)
        assert internals == ["n1", "n2", "n3", "out"]

    def test_nand_internal_node_shares_stage(self):
        net = Network(CMOS3)
        gates = Gates(net)
        gates.nand(["a", "b"], "y")
        stages = decompose_stages(net)
        assert len(stages) == 1
        assert "y" in stages[0].internal_nodes
        assert len(stages[0].internal_nodes) == 2  # y + series node

    def test_pass_chain_merges_driver_and_chain(self):
        """The driver inverter and pass devices are channel-connected:
        one big stage."""
        net = pass_chain(CMOS3, 4)
        stages = decompose_stages(net)
        assert len(stages) == 1
        assert {"drv", "p1", "p2", "p3", "out"} <= stages[0].internal_nodes

    def test_inputs_are_boundaries(self):
        """A pass device bridging two marked inputs forms a degenerate
        stage with no internal nodes."""
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "en", "a", "b")
        net.mark_input("a", "b")
        stages = decompose_stages(net)
        assert len(stages) == 1
        assert stages[0].internal_nodes == frozenset()
        assert stages[0].boundary_nodes == frozenset({"a", "b"})

    def test_one_degenerate_stage_per_boundary_pair(self):
        """A transmission gate between two inputs, and a resistor across
        the same pair, form one stage; each pair gets one stage, in the
        order of its first element."""
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "x", "gnd", "y", name="m1")
        net.add_transistor(DeviceKind.NMOS_ENH, "en", "b", "c", name="m2")
        net.add_transistor(DeviceKind.NMOS_ENH, "en", "a", "b", name="m3")
        net.add_transistor(DeviceKind.PMOS, "enb", "b", "a", name="m4")
        net.add_resistor("a", "b", 1e3, name="r1")
        net.mark_input("a", "b", "c")
        stages = decompose_stages(net)
        assert [s.index for s in stages] == [0, 1, 2]
        assert stages[0].internal_nodes == frozenset({"y"})
        assert [s.boundary_nodes for s in stages[1:]] == [
            frozenset({"b", "c"}), frozenset({"a", "b"})]
        assert [d.name for d in stages[2].transistors] == ["m3", "m4"]
        assert [r.name for r in stages[2].resistors] == ["r1"]
        assert stages[2].gate_inputs == frozenset({"en", "enb"})
        assert all(not s.internal_nodes for s in stages[1:])

    def test_input_separates_regions(self):
        """Two structures joined only through a driven input stay separate
        stages."""
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "g1", "x", "mid")
        net.add_transistor(DeviceKind.NMOS_ENH, "g2", "mid", "y")
        net.mark_input("mid")
        stages = decompose_stages(net)
        assert len(stages) == 2
        internals = {frozenset(s.internal_nodes) for s in stages}
        assert internals == {frozenset({"x"}), frozenset({"y"})}

    def test_resistors_merge_regions(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "x")
        net.add_resistor("x", "y", 1e3)
        net.add_capacitor("y", "gnd", 1e-15)
        stages = decompose_stages(net)
        assert len(stages) == 1
        assert stages[0].internal_nodes == frozenset({"x", "y"})
        assert len(stages[0].resistors) == 1

    def test_gate_only_net_not_a_stage(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        stages = decompose_stages(net)
        assert all("a" not in s.internal_nodes for s in stages)


class TestStageProperties:
    def test_self_loop_flag(self):
        """nMOS depletion load: the output gates its own load."""
        net = Network(NMOS4)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        net.add_transistor(DeviceKind.NMOS_DEP, "y", "y", "vdd")
        stage = decompose_stages(net)[0]
        assert stage.self_loop

    def test_no_self_loop_for_cmos_inverter(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        net.add_transistor(DeviceKind.PMOS, "a", "vdd", "y")
        assert not decompose_stages(net)[0].self_loop

    def test_all_nodes_union(self):
        net = Network(CMOS3)
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
        stage = decompose_stages(net)[0]
        assert stage.all_nodes == frozenset({"y", GND})

    def test_deterministic_indexing(self):
        net = inverter_chain(CMOS3, 3)
        first = [s.internal_nodes for s in decompose_stages(net)]
        second = [s.internal_nodes for s in decompose_stages(net)]
        assert first == second


class TestStageLookup:
    def test_stage_of_finds(self):
        net = inverter_chain(CMOS3, 2)
        stages = decompose_stages(net)
        assert stage_of(stages, "n1").contains("n1")

    def test_stage_of_unknown_raises(self):
        net = inverter_chain(CMOS3, 2)
        stages = decompose_stages(net)
        with pytest.raises(NetlistError):
            stage_of(stages, "in")  # an input is not internal to any stage

    def test_stage_map(self):
        net = inverter_chain(CMOS3, 3)
        stage_map = StageMap.build(net)
        assert stage_map.get("out").contains("out")
        assert stage_map.maybe("in") is None
        with pytest.raises(NetlistError):
            stage_map.get("in")

    def test_every_internal_node_in_exactly_one_stage(self):
        net = pass_chain(NMOS4, 5)
        stages = decompose_stages(net)
        counted = {}
        for stage in stages:
            for node in stage.internal_nodes:
                counted[node] = counted.get(node, 0) + 1
        assert all(count == 1 for count in counted.values())
        driven = set(net.externally_driven())
        channel_nodes = set()
        for device in net.transistors:
            channel_nodes.update(device.channel)
        assert set(counted) == channel_nodes - driven


# ---------------------------------------------------------------------------
# Differential: decompose_stages against a plain BFS over names
# ---------------------------------------------------------------------------

_NODES = ["vdd", "gnd", "a", "b", "c"] + [f"n{i}" for i in range(1, 12)]
_INPUTS = ("a", "b", "c")


def _reference_stages(net):
    """Stages by breadth-first search over node names: regions in order
    of their smallest node name, each with its elements in netlist
    insertion order, then one degenerate stage per boundary pair in the
    order of its first element (transistors scanned before resistors)."""
    driven = {node.name for node in net.nodes if node.is_driven_externally}
    elements = [(d, d.source, d.drain) for d in net.transistors]
    elements += [(r, r.node_a, r.node_b) for r in net.resistors]
    adjacent = {}
    for _, a, b in elements:
        if a not in driven and b not in driven:
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
    regions = {}
    for _, a, b in elements:
        for start in (a, b):
            if start in driven or start in regions:
                continue
            members, queue = {start}, deque([start])
            while queue:
                for other in adjacent.get(queue.popleft(), ()):
                    if other not in members:
                        members.add(other)
                        queue.append(other)
            region = frozenset(members)
            regions.update((member, region) for member in members)
    rows = []
    for region in sorted(set(regions.values()), key=min):
        inside = [(e, a, b) for e, a, b in elements
                  if a in region or b in region]
        devices = [e for e, _, _ in inside if e in net.transistors]
        resistors = [e for e, _, _ in inside if e in net.resistors]
        rows.append((region,
                     tuple(d.name for d in devices),
                     tuple(r.name for r in resistors),
                     frozenset(n for _, a, b in inside for n in (a, b)
                               if n in driven),
                     frozenset(d.gate for d in devices)))
    pairs = {}
    for element, a, b in elements:
        if a in driven and b in driven:
            pairs.setdefault(frozenset((a, b)), []).append(element)
    for pair, members in pairs.items():
        devices = [e for e in members if e in net.transistors]
        rows.append((frozenset(), tuple(d.name for d in devices),
                     tuple(r.name for r in members
                           if r in net.resistors),
                     pair, frozenset(d.gate for d in devices)))
    return rows


_element = st.tuples(
    st.sampled_from(["n", "p", "r", "c"]),
    st.sampled_from(_NODES), st.sampled_from(_NODES),
    st.sampled_from(_NODES))


@settings(max_examples=200, deadline=None)
@given(st.lists(_element, min_size=1, max_size=30),
       st.sets(st.sampled_from(_INPUTS)))
def test_decompose_matches_bfs_reference(elements, inputs):
    """Random netlists with transistors, resistors, floating caps and
    elements bridging two inputs: same stages, in the same order, with
    the same nodes, boundary, gates and elements."""
    net = Network(CMOS3)
    for kind, gate, a, b in elements:
        if a == b:
            continue
        if kind == "r":
            net.add_resistor(a, b, 1e3)
        elif kind == "c":
            if not (a in (VDD, GND) and b in (VDD, GND)):
                net.add_capacitor(a, b, 1e-15)
        else:
            net.add_transistor(
                DeviceKind.NMOS_ENH if kind == "n" else DeviceKind.PMOS,
                gate, a, b)
    for name in inputs:
        net.add_node(name)
    net.mark_input(*inputs)
    stages = decompose_stages(net)
    assert [s.index for s in stages] == list(range(len(stages)))
    assert [(s.internal_nodes, tuple(d.name for d in s.transistors),
             tuple(r.name for r in s.resistors), s.boundary_nodes,
             s.gate_inputs) for s in stages] == _reference_stages(net)

"""Stage-graph sensitivity around nMOS depletion loads.

A depletion load is always on in the delay models, so its gate never
triggers a path; tied to its own output, it must not make its stage
re-schedule itself or read as a feedback cycle.  A stage whose
enhancement device is gated by its own node does depend on that node,
and keeps the self-edge.
"""

from repro.circuits import inverter_chain
from repro.core.timing import StageGraph, TimingAnalyzer
from repro.netlist import Network
from repro.tech import NMOS4, DeviceKind


def _own_gated(stage):
    return stage.gate_inputs & stage.internal_nodes


def test_depletion_load_gate_does_not_sensitize_its_stage():
    graph = StageGraph.build(inverter_chain(NMOS4, 3))
    ids = graph.node_ids
    for stage in graph.stages:
        (load_gate,) = _own_gated(stage)
        assert stage.index not in graph.sensitivity[ids[load_gate]]
    # The output of one inverter still gates the next one's pull-down.
    by_node = graph.stage_map.by_node
    assert graph.sensitivity[ids["n1"]] == [by_node["n2"].index]


def test_depletion_chain_has_no_feedback():
    graph = StageGraph.build(inverter_chain(NMOS4, 3))
    assert all(stage.self_loop for stage in graph.stages)
    assert not graph.has_feedback()
    assert not graph.loop_stages()
    assert sorted(graph.levels().values()) == [0, 1, 2]


def test_own_gated_enhancement_device_keeps_its_self_edge():
    # y gates the enhancement pass device that joins y to z, in the same
    # stage as y's depletion load: that gate can fire a path to z.
    net = Network(NMOS4)
    net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y")
    net.add_transistor(DeviceKind.NMOS_DEP, "y", "y", "vdd")
    net.add_transistor(DeviceKind.NMOS_ENH, "y", "y", "z")
    net.mark_input("a")
    graph = StageGraph.build(net)
    (stage,) = graph.stages
    assert _own_gated(stage) == {"y"}
    assert graph.sensitivity[graph.node_ids["y"]] == [stage.index]
    assert graph.has_feedback()
    # y's own arrival re-schedules the stage once.
    result = TimingAnalyzer(net).analyze({"a": 0.0})
    assert result.perf.get("stage_visits") == 2

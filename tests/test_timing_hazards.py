"""Tests for charge-sharing hazard detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Gates, inverter_chain
from repro.core.timing import (
    find_charge_sharing_hazards,
    format_hazard_report,
)
from repro.netlist import Network
from repro.switchlevel import Logic
from repro.tech import CMOS3, NMOS4, DeviceKind


def storage_vs_bus(tech, storage_cap=10e-15, bus_cap=100e-15):
    """A small storage node connected to a big floating bus through a
    gated pass device — the canonical charge-sharing victim."""
    net = Network(tech)
    gates = Gates(net)
    net.add_node("store", capacitance=storage_cap)
    net.add_node("bigbus", capacitance=bus_cap)
    gates.pass_nmos("sel", "store", "bigbus")
    # Keep both sides writable so they are legitimate storage nodes.
    gates.pass_nmos("wr", "din", "store")
    gates.pass_nmos("pre", "drv", "bigbus")
    net.mark_input("sel", "wr", "pre", "din", "drv")
    return net


class TestDetection:
    def test_hazard_found(self):
        net = storage_vs_bus(CMOS3)
        # With wr/pre off, both sides are isolated charge.
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        hazards = find_charge_sharing_hazards(net, states)
        victims = {h.storage_node for h in hazards}
        assert "store" in victims
        hazard = next(h for h in hazards if h.storage_node == "store")
        assert hazard.surviving_fraction < 0.2  # 10fF vs >100fF
        assert hazard.severity > 0.8

    def test_driven_far_side_not_a_hazard(self):
        net = storage_vs_bus(CMOS3)
        # pre on: the bus side reaches the driven node 'drv' -> restoring.
        states = {"wr": Logic.ZERO, "pre": Logic.ONE}
        hazards = find_charge_sharing_hazards(net, states)
        assert all(h.storage_node != "store" for h in hazards)

    def test_small_exposure_below_threshold(self):
        net = storage_vs_bus(CMOS3, storage_cap=100e-15, bus_cap=10e-15)
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        hazards = find_charge_sharing_hazards(net, states, threshold=0.25)
        assert all(h.storage_node != "store" for h in hazards)

    def test_threshold_tunable(self):
        net = storage_vs_bus(CMOS3, storage_cap=100e-15, bus_cap=20e-15)
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        strict = find_charge_sharing_hazards(net, states, threshold=0.05)
        assert any(h.storage_node == "store" for h in strict)

    def test_static_logic_clean(self):
        """Plain inverter chains have no charge-sharing exposures."""
        net = inverter_chain(CMOS3, 4)
        assert find_charge_sharing_hazards(net) == []

    def test_depletion_devices_ignored(self):
        net = Network(NMOS4)
        gates = Gates(net)
        gates.inverter("a", "y")
        net.mark_input("a")
        assert find_charge_sharing_hazards(net) == []

    def test_device_bridging_driven_node_skipped(self):
        """A pass device straight off a primary input restores, never
        shares."""
        net = Network(CMOS3)
        gates = Gates(net)
        gates.pass_nmos("sel", "din", "store")
        net.add_node("store", capacitance=5e-15)
        net.mark_input("sel", "din")
        assert find_charge_sharing_hazards(net) == []


class TestSeverityMath:
    def test_surviving_fraction_is_cap_divider(self):
        net = storage_vs_bus(CMOS3, storage_cap=30e-15, bus_cap=60e-15)
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        hazards = find_charge_sharing_hazards(net, states, threshold=0.1)
        hazard = next(h for h in hazards if h.storage_node == "store")
        # Device diffusion caps add a little on both sides; the ratio is
        # near 30/(30+60).
        assert hazard.surviving_fraction == pytest.approx(30 / 90, abs=0.08)

    def test_sorted_worst_first(self):
        net = storage_vs_bus(CMOS3)
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        hazards = find_charge_sharing_hazards(net, states, threshold=0.05)
        severities = [h.severity for h in hazards]
        assert severities == sorted(severities, reverse=True)


class TestReport:
    def test_empty_report(self):
        assert "no hazards" in format_hazard_report([])

    def test_report_lists_nodes(self):
        net = storage_vs_bus(CMOS3)
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        hazards = find_charge_sharing_hazards(net, states)
        text = format_hazard_report(hazards)
        assert "store" in text and "fF" in text


class TestHazardUnits:
    """Direct unit coverage of the hazard dataclass and dedup logic."""

    def test_severity_complements_survival(self):
        from repro.core.timing.hazards import ChargeSharingHazard
        hazard = ChargeSharingHazard(
            storage_node="s", device="m1", storage_cap=10e-15,
            exposed_cap=40e-15, surviving_fraction=0.2)
        assert hazard.severity == pytest.approx(0.8)
        assert "m1" in str(hazard) and "20%" in str(hazard)

    def test_duplicate_storage_device_pairs_deduplicated(self):
        net = storage_vs_bus(CMOS3)
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        hazards = find_charge_sharing_hazards(net, states, threshold=0.01)
        keys = [(h.storage_node, h.device) for h in hazards]
        assert len(keys) == len(set(keys))

    def test_threshold_filters_monotonically(self):
        # Raising the threshold can only remove hazards, never add them.
        net = storage_vs_bus(CMOS3)
        states = {"wr": Logic.ZERO, "pre": Logic.ZERO}
        loose = find_charge_sharing_hazards(net, states, threshold=0.0)
        strict = find_charge_sharing_hazards(net, states, threshold=0.9)
        assert set(strict) <= set(loose)
        assert all(h.severity >= 0.9 for h in strict)

    @given(
        storage=st.floats(min_value=1e-15, max_value=200e-15),
        bus=st.floats(min_value=1e-15, max_value=200e-15),
        wr=st.sampled_from([Logic.ZERO, Logic.ONE, Logic.X]),
        pre=st.sampled_from([Logic.ZERO, Logic.ONE, Logic.X]),
    )
    @settings(max_examples=20, deadline=None)
    def test_scan_is_deterministic(self, storage, bus, wr, pre):
        net = storage_vs_bus(CMOS3, storage_cap=storage, bus_cap=bus)
        states = {"wr": wr, "pre": pre}
        first = find_charge_sharing_hazards(net, states)
        second = find_charge_sharing_hazards(net, states)
        assert first == second
        for hazard in first:
            assert 0.0 <= hazard.surviving_fraction <= 1.0

"""Tests for clocked timing analysis: schedules, setup checks, min period."""

import pytest

from repro.circuits import Gates, shift_register
from repro.core.timing import (
    ClockPhase,
    ClockSchedule,
    InputSpec,
    analyze_clocked,
    format_setup_report,
    minimum_period,
)
from repro.errors import TimingError
from repro.netlist import Network
from repro.tech import CMOS3, NMOS4


class TestSchedule:
    def test_phase_validation(self):
        with pytest.raises(TimingError):
            ClockPhase("p", 2.0, 1.0)
        with pytest.raises(TimingError):
            ClockPhase("p", -1.0, 1.0)

    def test_phase_width(self):
        assert ClockPhase("p", 1e-9, 4e-9).width == pytest.approx(3e-9)

    def test_period_validation(self):
        with pytest.raises(TimingError):
            ClockSchedule(period=0.0)

    def test_phase_must_fit_period(self):
        with pytest.raises(TimingError):
            ClockSchedule(period=1e-9,
                          phases={"p": ClockPhase("p", 0.0, 2e-9)})

    def test_two_phase_layout(self):
        schedule = ClockSchedule.two_phase(20e-9, separation=1e-9)
        phi1, phi2 = schedule.phase("phi1"), schedule.phase("phi2")
        assert phi1.fall <= phi2.rise  # non-overlapping
        assert phi2.fall <= schedule.period

    def test_two_phase_separation_validation(self):
        with pytest.raises(TimingError):
            ClockSchedule.two_phase(10e-9, separation=6e-9)

    def test_unknown_phase(self):
        schedule = ClockSchedule.two_phase(20e-9)
        with pytest.raises(TimingError):
            schedule.phase("phi3")


def half_stage(tech):
    """A clocked pass device into an inverter: the unit of two-phase
    dynamic logic."""
    net = Network(tech)
    gates = Gates(net)
    gates.pass_nmos("phi", "din", "store")
    gates.inverter("store", "q")
    net.mark_input("din", "phi")
    return net


class TestAnalyzeClocked:
    def test_setup_check_produced(self):
        net = half_stage(CMOS3)
        schedule = ClockSchedule(
            period=20e-9,
            phases={"phi1": ClockPhase("phi1", 0.0, 10e-9)})
        clocked = analyze_clocked(
            net,
            data_inputs={"din": InputSpec(arrival_rise=1e-9,
                                          arrival_fall=1e-9)},
            clocks={"phi": "phi1"},
            schedule=schedule)
        stores = [c for c in clocked.checks if c.storage_node == "store"]
        assert stores
        check = stores[0]
        assert check.phase == "phi1"
        assert check.required == pytest.approx(10e-9)
        assert check.ok

    def test_late_data_violates(self):
        net = half_stage(CMOS3)
        schedule = ClockSchedule(
            period=20e-9,
            phases={"phi1": ClockPhase("phi1", 0.0, 1e-9)})  # tiny window
        clocked = analyze_clocked(
            net,
            data_inputs={"din": InputSpec(arrival_rise=5e-9,
                                          arrival_fall=5e-9)},
            clocks={"phi": "phi1"},
            schedule=schedule)
        assert clocked.violations
        assert clocked.worst_slack() < 0

    def test_shift_register_two_phase(self):
        net = shift_register(CMOS3, stages=2)
        schedule = ClockSchedule.two_phase(40e-9, separation=2e-9)
        clocked = analyze_clocked(
            net,
            data_inputs={"din": InputSpec(arrival_rise=0.0,
                                          arrival_fall=0.0)},
            clocks={"phi1": "phi1", "phi2": "phi2"},
            schedule=schedule)
        # Every clocked storage node got a check; a generous period passes.
        assert len(clocked.checks) >= 4
        assert clocked.worst_slack() is not None

    def test_report_renders(self):
        net = half_stage(CMOS3)
        schedule = ClockSchedule(
            period=20e-9, phases={"phi1": ClockPhase("phi1", 0.0, 10e-9)})
        clocked = analyze_clocked(
            net, data_inputs={"din": 0.0}, clocks={"phi": "phi1"},
            schedule=schedule)
        text = format_setup_report(clocked)
        assert "setup checks" in text and "worst slack" in text

    def test_nmos_works_too(self):
        net = half_stage(NMOS4)
        schedule = ClockSchedule(
            period=100e-9, phases={"phi1": ClockPhase("phi1", 0.0, 50e-9)})
        clocked = analyze_clocked(
            net, data_inputs={"din": 0.0}, clocks={"phi": "phi1"},
            schedule=schedule)
        assert clocked.worst_slack() is not None


class TestMinimumPeriod:
    def test_min_period_brackets_behaviour(self):
        net = half_stage(CMOS3)
        template = ClockSchedule(
            period=40e-9, phases={"phi1": ClockPhase("phi1", 0.0, 20e-9)})
        period = minimum_period(
            net, data_inputs={"din": 0.0}, clocks={"phi": "phi1"},
            template=template)
        assert 0 < period < 40e-9
        # The returned period passes; 1/4 of it fails.
        scale = period / template.period
        passing = ClockSchedule(
            period=period,
            phases={"phi1": ClockPhase("phi1", 0.0, 20e-9 * scale)})
        clocked = analyze_clocked(net, {"din": 0.0}, {"phi": "phi1"},
                                  passing)
        assert not clocked.violations

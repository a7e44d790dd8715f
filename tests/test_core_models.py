"""Tests for the three delay models on synthetic stage requests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import (
    LumpedRCModel,
    RCTreeModel,
    SlopeModel,
    StageDelay,
    StageRequest,
    default_step_slope_factor,
    standard_models,
)
from repro.errors import TechnologyError, TimingError
from repro.rctree import RCTree, TreeTemplate
from repro.tech import CMOS3, DeviceKind, SlopeTable, SlopeTableSet, Transition


def single_node_request(r=1e3, c=1e-12, slope=0.0, tech=CMOS3):
    tree = RCTree("src")
    tree.add_edge("src", "out", r)
    tree.add_cap("out", c)
    return StageRequest(template=TreeTemplate.from_rctree(tree),
                        target="out", transition=Transition.FALL,
                        trigger_kind=DeviceKind.NMOS_ENH, input_slope=slope,
                        tech=tech)


def ladder_request(n=4, r=1e3, c=1e-12, slope=0.0, tech=CMOS3):
    tree = RCTree.chain([r] * n, [c] * n)
    return StageRequest(template=TreeTemplate.from_rctree(tree),
                        target=f"n{n}",
                        transition=Transition.FALL,
                        trigger_kind=DeviceKind.NMOS_ENH, input_slope=slope,
                        tech=tech)


class TestRequestValidation:
    def test_negative_slope_rejected(self):
        with pytest.raises(TimingError):
            single_node_request(slope=-1e-9)

    def test_target_must_be_in_tree(self):
        tree = RCTree("src")
        tree.add_edge("src", "a", 1e3)
        with pytest.raises(TimingError):
            StageRequest(template=TreeTemplate.from_rctree(tree),
                         target="ghost",
                         transition=Transition.RISE,
                         trigger_kind=DeviceKind.PMOS, input_slope=0.0,
                         tech=CMOS3)

    def test_stage_delay_validation(self):
        with pytest.raises(TimingError):
            StageDelay(delay=1.0, output_slope=-1.0, lower=0.0, upper=1.0,
                       model="x")
        with pytest.raises(TimingError):
            StageDelay(delay=1.0, output_slope=1.0, lower=2.0, upper=1.0,
                       model="x")

    def test_step_slope_factor_value(self):
        assert default_step_slope_factor() == pytest.approx(
            math.log(9.0) / 0.8)


class TestLumpedRC:
    def test_single_node_rc_product(self):
        result = LumpedRCModel().evaluate(single_node_request(2e3, 3e-12))
        assert result.delay == pytest.approx(6e-9)

    def test_ladder_uses_total_r_times_total_c(self):
        result = LumpedRCModel().evaluate(ladder_request(4, 1e3, 1e-12))
        assert result.delay == pytest.approx(4e3 * 4e-12)

    def test_ignores_input_slope(self):
        fast = LumpedRCModel().evaluate(single_node_request(slope=0.0))
        slow = LumpedRCModel().evaluate(single_node_request(slope=1e-6))
        assert fast.delay == slow.delay

    def test_bounds_collapse_to_estimate(self):
        result = LumpedRCModel().evaluate(single_node_request())
        assert result.lower == result.upper == result.delay

    def test_details_present(self):
        result = LumpedRCModel().evaluate(single_node_request())
        keys = dict(result.details)
        assert "path_resistance" in keys and "total_capacitance" in keys


class TestRCTreeModel:
    def test_single_node_equals_lumped(self):
        request = single_node_request(1e3, 1e-12)
        lumped = LumpedRCModel().evaluate(request).delay
        tree = RCTreeModel().evaluate(request).delay
        assert tree == pytest.approx(lumped)

    def test_ladder_less_than_lumped(self):
        request = ladder_request(6)
        lumped = LumpedRCModel().evaluate(request).delay
        tree = RCTreeModel().evaluate(request).delay
        assert tree < 0.75 * lumped

    def test_bounds_bracket_estimate_on_distributed(self):
        result = RCTreeModel().evaluate(ladder_request(6))
        assert result.lower < result.upper

    def test_midpoint_variant(self):
        request = ladder_request(4)
        elmore = RCTreeModel(point_estimate="elmore").evaluate(request)
        midpoint = RCTreeModel(point_estimate="midpoint").evaluate(request)
        assert midpoint.delay == pytest.approx(
            0.5 * (midpoint.lower + midpoint.upper))
        assert elmore.delay == pytest.approx(dict(elmore.details)["elmore"])

    def test_bad_point_estimate(self):
        with pytest.raises(ValueError):
            RCTreeModel(point_estimate="median")

    def test_ignores_input_slope(self):
        fast = RCTreeModel().evaluate(ladder_request(slope=0.0))
        slow = RCTreeModel().evaluate(ladder_request(slope=1e-6))
        assert fast.delay == slow.delay


def flat_tables(delay0=1.0, gain=0.5, slope0=3.0):
    """Synthetic slope tables with a known, simple shape."""
    table = SlopeTable.from_samples(
        [(r, delay0 + gain * r, slope0 + r) for r in (0.01, 0.1, 1, 10, 100)])
    tables = SlopeTableSet(source="synthetic")
    for kind in (DeviceKind.NMOS_ENH, DeviceKind.PMOS):
        for transition in Transition:
            tables.add(kind, transition, table)
    return tables


class TestSlopeModel:
    def test_step_input_uses_table_floor(self):
        model = SlopeModel(tables=flat_tables())
        result = model.evaluate(single_node_request(1e3, 1e-12, slope=0.0))
        # ratio clamps to the lowest sample: delay0 + gain*0.01.
        assert result.delay == pytest.approx((1.0 + 0.5 * 0.01) * 1e-9,
                                             rel=1e-6)

    def test_delay_scales_with_ratio(self):
        model = SlopeModel(tables=flat_tables())
        tau = 1e-9
        result = model.evaluate(single_node_request(1e3, 1e-12,
                                                    slope=10 * tau))
        assert result.delay == pytest.approx((1.0 + 5.0) * tau, rel=1e-6)

    def test_output_slope_reported(self):
        model = SlopeModel(tables=flat_tables())
        result = model.evaluate(single_node_request(1e3, 1e-12, slope=1e-9))
        assert result.output_slope == pytest.approx((3.0 + 1.0) * 1e-9,
                                                    rel=1e-6)

    def test_ablation_switch_freezes_ratio(self):
        model = SlopeModel(tables=flat_tables(), propagate_slopes=False)
        slow = model.evaluate(single_node_request(slope=1e-3))
        fast = model.evaluate(single_node_request(slope=0.0))
        assert slow.delay == fast.delay

    def test_uses_elmore_tau_on_ladders(self):
        model = SlopeModel(tables=flat_tables(gain=0.0))
        request = ladder_request(5)
        elmore = RCTreeModel().evaluate(request).delay
        assert model.evaluate(request).delay == pytest.approx(elmore)

    def test_falls_back_to_technology_tables(self):
        result = SlopeModel().evaluate(single_node_request())
        assert result.delay > 0

    def test_missing_tables_raises(self):
        import dataclasses
        bare = dataclasses.replace(CMOS3, slope_tables=None)
        with pytest.raises(TechnologyError):
            SlopeModel().evaluate(single_node_request(tech=bare))

    def test_details_expose_ratio(self):
        model = SlopeModel(tables=flat_tables())
        result = model.evaluate(single_node_request(1e3, 1e-12, slope=2e-9))
        details = dict(result.details)
        assert details["slope_ratio"] == pytest.approx(2.0)
        assert details["tau"] == pytest.approx(1e-9)


class TestStandardModels:
    def test_three_fresh_instances(self):
        models = standard_models()
        assert [m.name for m in models] == ["lumped-rc", "rc-tree", "slope"]

    @settings(max_examples=30, deadline=None)
    @given(r=st.floats(min_value=100, max_value=1e5),
           c=st.floats(min_value=1e-14, max_value=1e-11),
           slope=st.floats(min_value=0.0, max_value=1e-7))
    def test_all_models_positive_and_consistent(self, r, c, slope):
        request = single_node_request(r, c, slope)
        for model in standard_models():
            result = model.evaluate(request)
            assert result.delay > 0
            assert result.output_slope > 0
            assert result.lower <= result.upper

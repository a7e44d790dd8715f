"""Tests for slope-table containers, interpolation and serialization."""

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TechnologyError
from repro.tech import (
    DeviceKind,
    SlopeTable,
    SlopeTableSet,
    Transition,
    analytic_default_tables,
    logarithmic_ratio_grid,
)


def simple_table():
    return SlopeTable(
        ratios=(0.1, 1.0, 10.0),
        delay_factors=(1.0, 1.5, 4.0),
        slope_factors=(2.0, 3.0, 10.0),
    )


class TestSlopeTableValidation:
    def test_needs_two_samples(self):
        with pytest.raises(TechnologyError):
            SlopeTable(ratios=(1.0,), delay_factors=(1.0,),
                       slope_factors=(1.0,))

    def test_length_mismatch(self):
        with pytest.raises(TechnologyError):
            SlopeTable(ratios=(0.1, 1.0), delay_factors=(1.0,),
                       slope_factors=(1.0, 2.0))

    def test_ratios_must_increase(self):
        with pytest.raises(TechnologyError):
            SlopeTable(ratios=(1.0, 0.5), delay_factors=(1.0, 2.0),
                       slope_factors=(1.0, 2.0))

    def test_ratios_must_be_positive(self):
        with pytest.raises(TechnologyError):
            SlopeTable(ratios=(0.0, 1.0), delay_factors=(1.0, 2.0),
                       slope_factors=(1.0, 2.0))

    def test_slope_factors_positive(self):
        with pytest.raises(TechnologyError):
            SlopeTable(ratios=(0.1, 1.0), delay_factors=(1.0, 2.0),
                       slope_factors=(0.0, 2.0))

    def test_negative_delay_factors_allowed(self):
        """Skewed thresholds make negative stage delays physical."""
        table = SlopeTable(ratios=(0.1, 1.0), delay_factors=(-0.2, 0.5),
                           slope_factors=(1.0, 2.0))
        assert table.delay_factor(0.1) == pytest.approx(-0.2)


class TestInterpolation:
    def test_exact_sample_points(self):
        table = simple_table()
        assert table.delay_factor(1.0) == pytest.approx(1.5)
        assert table.slope_factor(10.0) == pytest.approx(10.0)

    def test_clamps_below_range(self):
        table = simple_table()
        assert table.delay_factor(0.001) == pytest.approx(1.0)

    def test_zero_ratio_clamps(self):
        assert simple_table().delay_factor(0.0) == pytest.approx(1.0)

    def test_linear_tail_above_range(self):
        table = simple_table()
        # Continue the last segment's slope: (4.0-1.5)/(10-1) per ratio.
        slope = (4.0 - 1.5) / (10.0 - 1.0)
        assert table.delay_factor(20.0) == pytest.approx(4.0 + 10.0 * slope)

    def test_log_interpolation_midpoint(self):
        table = simple_table()
        # Geometric midpoint of 0.1 and 1.0 maps to arithmetic midpoint
        # of the factors under log-linear interpolation.
        mid = math.sqrt(0.1 * 1.0)
        assert table.delay_factor(mid) == pytest.approx(1.25)

    def test_negative_ratio_raises(self):
        with pytest.raises(TechnologyError):
            simple_table().delay_factor(-1.0)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_interpolation_within_sample_hull(self, ratio):
        table = simple_table()
        value = table.delay_factor(ratio)
        assert min(table.delay_factors) - 1e-9 <= value
        assert value <= max(table.delay_factors) + 1e-9

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.01, max_value=100.0))
    def test_monotone_table_stays_monotone(self, a, b):
        table = simple_table()
        lo, hi = sorted((a, b))
        assert table.delay_factor(lo) <= table.delay_factor(hi) + 1e-9


class TestSerialization:
    def test_round_trip(self):
        table = simple_table()
        clone = SlopeTable.from_dict(table.to_dict())
        assert clone == table

    def test_hash_is_the_field_hash_and_survives_pickling(self):
        table = simple_table()
        assert hash(table) == hash(
            (table.ratios, table.delay_factors, table.slope_factors))
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert hash(clone) == hash(table)

    def test_from_samples_sorts(self):
        table = SlopeTable.from_samples([(1.0, 1.5, 3.0), (0.1, 1.0, 2.0)])
        assert table.ratios == (0.1, 1.0)

    def test_set_round_trip(self):
        table_set = SlopeTableSet(source="test")
        table_set.add(DeviceKind.NMOS_ENH, Transition.FALL, simple_table())
        clone = SlopeTableSet.from_dict(table_set.to_dict())
        assert clone.source == "test"
        assert clone.get(DeviceKind.NMOS_ENH,
                         Transition.FALL) == simple_table()


class TestSlopeTableSet:
    def test_get_exact(self):
        table_set = SlopeTableSet()
        table_set.add(DeviceKind.PMOS, Transition.RISE, simple_table())
        assert table_set.get(DeviceKind.PMOS, Transition.RISE)

    def test_get_falls_back_to_opposite_direction(self):
        table_set = SlopeTableSet()
        table_set.add(DeviceKind.PMOS, Transition.RISE, simple_table())
        assert table_set.get(DeviceKind.PMOS, Transition.FALL)

    def test_get_missing_raises(self):
        with pytest.raises(TechnologyError):
            SlopeTableSet().get(DeviceKind.NMOS_ENH, Transition.FALL)

    def test_has(self):
        table_set = SlopeTableSet()
        table_set.add(DeviceKind.NMOS_ENH, Transition.RISE, simple_table())
        assert table_set.has(DeviceKind.NMOS_ENH, Transition.FALL)
        assert not table_set.has(DeviceKind.PMOS, Transition.RISE)

    def test_keys_sorted(self):
        table_set = SlopeTableSet()
        table_set.add(DeviceKind.PMOS, Transition.RISE, simple_table())
        table_set.add(DeviceKind.NMOS_ENH, Transition.FALL, simple_table())
        keys = table_set.keys()
        assert keys[0][0] is DeviceKind.NMOS_DEP or keys == sorted(
            keys, key=lambda k: (k[0].value, k[1].value))


class TestDefaults:
    def test_grid_is_logarithmic(self):
        grid = logarithmic_ratio_grid(0.01, 100.0, 5)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        for r in ratios:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_grid_validation(self):
        with pytest.raises(TechnologyError):
            logarithmic_ratio_grid(0.0, 1.0, 5)
        with pytest.raises(TechnologyError):
            logarithmic_ratio_grid(1.0, 1.0, 5)
        with pytest.raises(TechnologyError):
            logarithmic_ratio_grid(0.1, 1.0, 1)

    def test_analytic_defaults_cover_kinds(self):
        tables = analytic_default_tables(
            [DeviceKind.NMOS_ENH, DeviceKind.PMOS])
        for kind in (DeviceKind.NMOS_ENH, DeviceKind.PMOS):
            for transition in Transition:
                assert tables.has(kind, transition)

    def test_analytic_defaults_step_limit(self):
        tables = analytic_default_tables([DeviceKind.NMOS_ENH])
        table = tables.get(DeviceKind.NMOS_ENH, Transition.FALL)
        # At step input the delay factor approaches ln 2.
        assert table.delay_factor(0.0) == pytest.approx(math.log(2), rel=0.05)

    def test_analytic_defaults_grow(self):
        tables = analytic_default_tables([DeviceKind.NMOS_ENH])
        table = tables.get(DeviceKind.NMOS_ENH, Transition.FALL)
        assert table.delay_factor(40.0) > 3 * table.delay_factor(0.1)

    def test_depletion_flatter_than_enhancement(self):
        tables = analytic_default_tables(
            [DeviceKind.NMOS_ENH, DeviceKind.NMOS_DEP])
        enh = tables.get(DeviceKind.NMOS_ENH, Transition.FALL)
        dep = tables.get(DeviceKind.NMOS_DEP, Transition.RISE)
        assert dep.delay_factor(40.0) < enh.delay_factor(40.0)

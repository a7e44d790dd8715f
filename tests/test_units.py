"""Tests for engineering-notation parsing and formatting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.units import format_value, parse_value


class TestParseValue:
    def test_plain_integer(self):
        assert parse_value("42") == 42.0

    def test_plain_float(self):
        assert parse_value("3.14") == pytest.approx(3.14)

    def test_scientific_notation(self):
        assert parse_value("1e-9") == pytest.approx(1e-9)

    def test_scientific_with_sign(self):
        assert parse_value("2.5e+3") == pytest.approx(2500.0)

    def test_negative_number(self):
        assert parse_value("-4.7") == pytest.approx(-4.7)

    @pytest.mark.parametrize("text,expected", [
        ("1t", 1e12),
        ("1g", 1e9),
        ("2meg", 2e6),
        ("4.7k", 4700.0),
        ("3m", 3e-3),
        ("10u", 10e-6),
        ("100n", 100e-9),
        ("0.05p", 0.05e-12),
        ("2f", 2e-15),
        ("5a", 5e-18),
    ])
    def test_suffixes(self, text, expected):
        assert parse_value(text) == pytest.approx(expected)

    def test_suffix_case_insensitive(self):
        assert parse_value("4.7K") == pytest.approx(4700.0)
        assert parse_value("2MEG") == pytest.approx(2e6)

    def test_meg_beats_m(self):
        assert parse_value("1meg") == pytest.approx(1e6)
        assert parse_value("1m") == pytest.approx(1e-3)

    def test_mil(self):
        assert parse_value("1mil") == pytest.approx(25.4e-6)

    def test_unit_letters_after_suffix(self):
        assert parse_value("10pF") == pytest.approx(10e-12)
        assert parse_value("4.7kohm") == pytest.approx(4700.0)

    def test_bare_unit_letters(self):
        assert parse_value("5v") == pytest.approx(5.0)

    def test_whitespace_stripped(self):
        assert parse_value("  2.2n ") == pytest.approx(2.2e-9)

    def test_empty_raises(self):
        with pytest.raises(ParseError):
            parse_value("")

    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_value("abc")

    def test_mixed_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_value("1.2.3k")

    def test_suffix_with_digits_raises(self):
        with pytest.raises(ParseError):
            parse_value("1k2")

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e308k"])
    def test_overflow_raises(self, text):
        with pytest.raises(ParseError, match="out of range"):
            parse_value(text)


class TestFormatValue:
    def test_zero(self):
        assert format_value(0.0, "F") == "0F"

    @pytest.mark.parametrize("value,expected", [
        (2.2e-12, "2.2pF"),
        (4700.0, "4.7kF"),
        (1e6, "1megF"),  # "M" means milli in SPICE, so mega is spelled out
        (3e-9, "3nF"),
        (5.0, "5F"),
    ])
    def test_engineering_prefixes(self, value, expected):
        assert format_value(value, "F") == expected

    def test_negative(self):
        assert format_value(-2.5e-9, "s") == "-2.5ns"

    def test_no_unit(self):
        assert format_value(1500.0) == "1.5k"

    def test_digits_control(self):
        assert format_value(1.23456e-9, "s", digits=2) == "1.2ns"

    def test_sub_atto_falls_back(self):
        text = format_value(1e-21, "s")
        assert "e-" in text


class TestRoundTrip:
    @given(st.floats(min_value=1e-17, max_value=1e12,
                     allow_nan=False, allow_infinity=False))
    def test_format_then_parse(self, value):
        text = format_value(value, digits=12)
        assert parse_value(text) == pytest.approx(value, rel=1e-9)

    @given(st.floats(min_value=-1e9, max_value=-1e-12,
                     allow_nan=False, allow_infinity=False))
    def test_negative_round_trip(self, value):
        text = format_value(value, digits=12)
        assert parse_value(text) == pytest.approx(value, rel=1e-9)

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e15, max_value=1e15))
    def test_parse_repr_of_float(self, value):
        assert parse_value(repr(value)) == pytest.approx(value, abs=1e-300)

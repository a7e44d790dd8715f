"""Tests for the .sim netlist format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.netlist import Network, sim_format
from repro.tech import CMOS3, NMOS4, DeviceKind


class TestParsing:
    def test_enhancement_transistor(self):
        net = sim_format.loads("e a gnd y 2 8\n", NMOS4)
        device = net.transistors[0]
        assert device.kind is DeviceKind.NMOS_ENH
        assert device.gate == "a"
        assert device.length == pytest.approx(2e-6)
        assert device.width == pytest.approx(8e-6)

    def test_depletion_and_pmos_letters(self):
        net = sim_format.loads("d y y vdd 8 2\n", NMOS4)
        assert net.transistors[0].kind is DeviceKind.NMOS_DEP
        net = sim_format.loads("p a vdd y 2 12\n", CMOS3)
        assert net.transistors[0].kind is DeviceKind.PMOS

    def test_n_alias_for_enhancement(self):
        net = sim_format.loads("n a gnd y\n", CMOS3)
        assert net.transistors[0].kind is DeviceKind.NMOS_ENH

    def test_default_geometry(self):
        net = sim_format.loads("e a gnd y\n", NMOS4)
        assert net.transistors[0].width == NMOS4.default_width

    def test_capacitance_in_femtofarads(self):
        net = sim_format.loads("C y gnd 50\n", CMOS3)
        assert net.node("y").capacitance == pytest.approx(50e-15)

    def test_floating_capacitor(self):
        net = sim_format.loads("C a b 10\n", CMOS3)
        assert len(net.capacitors) == 1
        assert net.capacitors[0].capacitance == pytest.approx(10e-15)

    def test_resistor(self):
        net = sim_format.loads("R a b 4.7k\n", CMOS3)
        assert net.resistors[0].resistance == pytest.approx(4700.0)

    def test_input_declaration(self):
        net = sim_format.loads("i a b\ne a gnd y\n", CMOS3)
        assert {n.name for n in net.inputs()} == {"a", "b"}

    def test_comments_and_blanks_skipped(self):
        text = "| a comment\n\n# another\ne a gnd y\n"
        net = sim_format.loads(text, CMOS3)
        assert len(net.transistors) == 1

    def test_supply_aliases_normalized(self):
        net = sim_format.loads("e a VSS y\n", CMOS3)
        assert net.transistors[0].source == "gnd"

    @pytest.mark.parametrize("alias, rail", [
        ("VDD", "vdd"), ("Vcc", "vdd"), ("vDD!", "vdd"),
        ("GND", "gnd"), ("Vss", "gnd"), ("gNd!", "gnd"), ("0", "gnd")])
    def test_supply_aliases_in_any_case_resolve_to_the_rails(self, alias,
                                                             rail):
        # The alias is met both before and after the rail's own name.
        net = sim_format.loads(f"e a {alias} y\ne b vdd z\ne c gnd w\n"
                               f"p d {alias} v\nC y {alias} 5\n", CMOS3)
        assert [d.source for d in net.transistors] == [rail, "vdd", "gnd",
                                                       rail]
        assert set(net.node_names) == set("vdd gnd a b c d v w y z".split())
        assert net.node("y").capacitance == pytest.approx(5e-15)

    def test_repeated_tokens_parse_alike(self):
        """A token that parsed once parses again to the same value, on
        every record type and across calls."""
        text = ("e a gnd y 2 12\np a vdd y 2 12\ne y gnd z 2 12\n"
                "C y gnd 12\nC z gnd 12\nR z w 2\nR w v 2\n")
        for _ in range(2):
            net = sim_format.loads(text, CMOS3)
            assert {(d.length, d.width) for d in net.transistors} == {
                (2 * CMOS3.lambda_units, 12 * CMOS3.lambda_units)}
            assert net.node("y").capacitance == net.node("z").capacitance \
                == 12 * 1e-15
            assert [r.resistance for r in net.resistors] == [2.0, 2.0]


class TestParseErrors:
    def test_unknown_record(self):
        with pytest.raises(ParseError) as info:
            sim_format.loads("q a b c\n", CMOS3)
        assert info.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            sim_format.loads("e a gnd\n", CMOS3)

    def test_bad_number(self):
        with pytest.raises(ParseError):
            sim_format.loads("C a gnd xyz\n", CMOS3)

    def test_line_number_in_message(self):
        with pytest.raises(ParseError) as info:
            sim_format.loads("e a gnd y\nbogus line\n", CMOS3)
        assert info.value.line == 2

    def test_wrong_kind_for_tech(self):
        with pytest.raises(ParseError):
            sim_format.loads("p a vdd y\n", NMOS4)

    def test_malformed_token_on_two_lines_fails_at_the_first(self):
        """A bad token is not remembered: the parse fails where a netlist
        holding only the first line fails, with the same message, and
        names that line."""
        first = "e a gnd y 2 1x2\n"
        with pytest.raises(ParseError) as alone:
            sim_format.loads(first, CMOS3)
        with pytest.raises(ParseError) as twice:
            sim_format.loads(first + "e b gnd z 2 1x2\n", CMOS3)
        assert str(twice.value) == str(alone.value) \
            == "<string>:1: malformed numeric value '1x2'"
        assert twice.value.line == alone.value.line == 1

    def test_source_and_drain_on_one_rail_under_two_spellings(self):
        with pytest.raises(ParseError) as info:
            sim_format.loads("e g VDD vdd\n", CMOS3)
        assert "source and drain are the same node 'vdd'" in str(info.value)
        assert info.value.line == 1


class TestRoundTrip:
    def build_sample(self):
        net = Network(NMOS4, name="sample")
        net.add_transistor(DeviceKind.NMOS_ENH, "a", "gnd", "y",
                           width=8e-6, length=2e-6, name="m1")
        net.add_transistor(DeviceKind.NMOS_DEP, "y", "y", "vdd",
                           width=2e-6, length=8e-6, name="m2")
        net.add_capacitor("y", "gnd", 50e-15)
        net.add_capacitor("y", "boot", 20e-15)
        net.add_resistor("y", "z", 2e3)
        net.mark_input("a")
        return net

    def test_dump_then_load(self):
        original = self.build_sample()
        text = sim_format.dumps(original)
        clone = sim_format.loads(text, NMOS4)
        assert len(clone.transistors) == len(original.transistors)
        assert len(clone.resistors) == len(original.resistors)
        assert len(clone.capacitors) == len(original.capacitors)
        assert {n.name for n in clone.inputs()} == {"a"}
        assert clone.node("y").capacitance == pytest.approx(
            original.node("y").capacitance)
        for mine, theirs in zip(original.transistors, clone.transistors):
            assert mine.kind is theirs.kind
            assert mine.width == pytest.approx(theirs.width)
            assert mine.length == pytest.approx(theirs.length)

    def test_file_round_trip(self, tmp_path):
        original = self.build_sample()
        path = tmp_path / "sample.sim"
        sim_format.dump(original, str(path))
        clone = sim_format.load(str(path), NMOS4)
        assert len(clone.transistors) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["e", "d"]),
                  st.integers(0, 5), st.integers(0, 5)),
        min_size=1, max_size=8))
    def test_random_networks_round_trip(self, recipe):
        net = Network(NMOS4)
        for i, (kind, gate_i, drain_i) in enumerate(recipe):
            gate = f"g{gate_i}"
            drain = f"d{drain_i}"
            if kind == "e":
                net.add_transistor(DeviceKind.NMOS_ENH, gate, "gnd",
                                   f"y{i}_{drain}")
            else:
                net.add_transistor(DeviceKind.NMOS_DEP, f"y{i}_{drain}",
                                   f"y{i}_{drain}", "vdd")
        text = sim_format.dumps(net)
        clone = sim_format.loads(text, NMOS4)
        assert len(clone.transistors) == len(net.transistors)
        # Idempotent after one round trip (ignoring the name header line).
        body = lambda t: t.splitlines()[1:]
        assert body(sim_format.dumps(clone)) == body(text)

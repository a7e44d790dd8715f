"""Tests for technology save/load."""

import fnmatch
import json
import pathlib

import pytest

from repro.errors import TechnologyError
from repro.tech import (
    CHARACTERIZED_DIR,
    CMOS3,
    NMOS4,
    TECHNOLOGIES,
    load_technology,
    save_technology,
    technologies_equivalent,
    technology_from_dict,
    technology_to_dict,
)


class TestRoundTrip:
    @pytest.mark.parametrize("tech", [CMOS3, NMOS4], ids=["cmos", "nmos"])
    def test_dict_round_trip(self, tech):
        clone = technology_from_dict(technology_to_dict(tech))
        assert technologies_equivalent(tech, clone)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cmos3.json"
        save_technology(CMOS3, str(path))
        clone = load_technology(str(path))
        assert technologies_equivalent(CMOS3, clone)
        assert clone.vdd == CMOS3.vdd
        assert clone.slope_tables is not None

    def test_characterized_round_trip(self, cmos_char, tmp_path):
        path = tmp_path / "fitted.json"
        save_technology(cmos_char, str(path))
        clone = load_technology(str(path))
        assert technologies_equivalent(cmos_char, clone)
        assert clone.slope_tables.source == "characterized:cmos3"

    def test_loaded_technology_is_usable(self, tmp_path):
        from repro.circuits import inverter_chain
        from repro.core.timing import analyze
        from repro.tech import Transition

        path = tmp_path / "t.json"
        save_technology(CMOS3, str(path))
        tech = load_technology(str(path))
        result = analyze(inverter_chain(tech, 2), {"in": 0.0})
        assert result.arrival("out", Transition.RISE).time > 0

    def test_tables_optional(self, tmp_path):
        import dataclasses
        bare = dataclasses.replace(CMOS3, slope_tables=None)
        path = tmp_path / "bare.json"
        save_technology(bare, str(path))
        clone = load_technology(str(path))
        assert clone.slope_tables is None


class TestErrors:
    def test_bad_version(self):
        data = technology_to_dict(CMOS3)
        data["format"] = 99
        with pytest.raises(TechnologyError):
            technology_from_dict(data)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(TechnologyError):
            load_technology(str(path))


class TestShippedFits:
    def test_declared_as_package_data(self):
        """Without the pyproject declaration, wheels and installs ship
        no JSON and every characterized entry point fails."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        globs = config["tool"]["setuptools"]["package-data"]["repro.tech"]
        shipped = sorted(CHARACTERIZED_DIR.glob("*.json"))
        assert {path.stem for path in shipped} == set(TECHNOLOGIES)
        for path in shipped:
            relative = path.relative_to(CHARACTERIZED_DIR.parent).as_posix()
            assert any(fnmatch.fnmatch(relative, glob) for glob in globs), (
                f"{relative} matches no [tool.setuptools.package-data] "
                f"glob of repro.tech in pyproject.toml")


class TestEquivalence:
    def test_different_techs_not_equivalent(self):
        assert not technologies_equivalent(CMOS3, NMOS4)

    def test_perturbed_parameter_detected(self):
        data = technology_to_dict(CMOS3)
        data["devices"]["e"]["kp"] *= 1.001
        clone = technology_from_dict(data)
        assert not technologies_equivalent(CMOS3, clone)

    def test_perturbed_table_detected(self):
        data = technology_to_dict(CMOS3)
        key = next(iter(data["slope_tables"]["tables"]))
        data["slope_tables"]["tables"][key]["delay_factors"][0] += 0.5
        clone = technology_from_dict(data)
        assert not technologies_equivalent(CMOS3, clone)

"""Golden-reference tolerance tests: slope model vs analog transient.

The slope model's whole claim (the paper's T1/T2 tables) is staying
within a tight band of circuit simulation.  These tests measure slope-
model stage delays against the :mod:`repro.analog` transient reference
on inverter chains and a pass-transistor chain, and compare the
*relative errors* against goldens committed in
``tests/goldens/golden_delays.json``:

* the error band itself must hold (|error| within the scenario's
  committed band), and
* the error must not *drift* more than 10 percentage points from the
  committed golden — a regression gate on every layer the number flows
  through (characterization, RC trees, slope tables, the analyzer).

The analog transients make that full check ``slow``.  A tier-1 class
re-runs only the switch-level side and measures it against the stored
reference delays, so any change to the model numerics fails fast.  A
second tier-1 class rebuilds T3's per-model error summary over the 21
T1/T2 cells from the shipped fits and the analog delays committed in
``benchmarks/suite/reference_delays.json``.

Goldens were recorded with the test suite's coarse characterization grid
(``TEST_RATIOS`` in conftest), which is deterministic.  After an
*intentional* model change, regenerate with::

    PYTHONPATH=src:. python tests/test_golden_reference.py --regenerate
"""

import json
import pathlib
import statistics

import pytest

from repro.bench import (cmos_scenarios, model_delay, nmos_scenarios,
                         reference_delay)
from repro.core.models import (LumpedRCModel, RCTreeModel, SlopeModel,
                               characterize_technology)
from repro.tech import CMOS3, NMOS4

GOLDEN_FILE = pathlib.Path(__file__).parent / "goldens" / \
    "golden_delays.json"

REFERENCE_DELAYS = (pathlib.Path(__file__).parent.parent / "benchmarks" /
                    "suite" / "reference_delays.json")

#: T3: (mean, max) |error| in percent of each model over the 21 T1/T2
#: cells, with the shipped fits of cmos3 and nmos4.
T3_SUMMARY = {LumpedRCModel: (28.78, 93.36), RCTreeModel: (18.79, 48.65),
              SlopeModel: (7.46, 31.52)}

#: Scenarios under the golden gate: the paper's bread-and-butter cases.
SCENARIO_NAMES = ["inverter+100fF", "inv-chain-4", "inv-chain-4-fo4",
                  "pass-chain-4"]

#: Allowed drift of the relative error vs the committed golden
#: (absolute, in error-fraction units: 0.10 = 10 percentage points).
MAX_DRIFT = 0.10

#: Accuracy band on |relative error| itself — the paper's slope-model
#: claim is ~10% average with pass-chain worst cases near 30%.
MAX_ABS_ERROR = 0.35


def _selected_scenarios(tech):
    by_name = {s.name: s for s in cmos_scenarios(tech)}
    return [by_name[name] for name in SCENARIO_NAMES]


def _measure(scenario):
    reference = reference_delay(scenario)
    estimate, _ = model_delay(scenario, SlopeModel())
    return {
        "reference": reference,
        "slope_delay": estimate,
        "rel_error": (estimate - reference) / reference,
    }


@pytest.fixture(scope="module")
def goldens():
    assert GOLDEN_FILE.exists(), (
        f"{GOLDEN_FILE} missing — regenerate with "
        "PYTHONPATH=src:. python tests/test_golden_reference.py "
        "--regenerate")
    return json.loads(GOLDEN_FILE.read_text())["scenarios"]


class TestStoredGoldens:
    """The slope model against the committed goldens, no transient run."""

    @pytest.fixture(scope="class")
    def estimated(self, cmos_char):
        return {s.name: model_delay(s, SlopeModel())[0]
                for s in _selected_scenarios(cmos_char)}

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_slope_delay_matches_golden(self, name, estimated, goldens):
        assert estimated[name] == pytest.approx(
            goldens[name]["slope_delay"], rel=1e-9), (
            f"{name}: slope-model delay moved from the committed golden")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_error_against_stored_reference(self, name, estimated, goldens):
        golden = goldens[name]
        error = (estimated[name] - golden["reference"]) / golden["reference"]
        assert abs(error) <= MAX_ABS_ERROR, (
            f"{name}: slope model off by {error:+.1%} vs the stored analog "
            f"reference (band ±{MAX_ABS_ERROR:.0%})")
        assert abs(error - golden["rel_error"]) <= MAX_DRIFT, (
            f"{name}: slope-model error drifted from the committed golden "
            f"({golden['rel_error']:+.1%} → {error:+.1%})")


class TestT3Summary:
    """T3's per-model summary against the committed analog delays, no
    transient run."""

    @pytest.fixture(scope="class")
    def errors(self):
        references = json.loads(REFERENCE_DELAYS.read_text())["delays"]
        cells = ([("cmos3", s) for s in
                  cmos_scenarios(characterize_technology(CMOS3))]
                 + [("nmos4", s) for s in
                    nmos_scenarios(characterize_technology(NMOS4))])
        errors = {model: [] for model in T3_SUMMARY}
        for tech, scenario in cells:
            reference = references[f"{tech}/{scenario.name}"]
            for model in T3_SUMMARY:
                delay, _ = model_delay(scenario, model())
                errors[model].append(100.0 * abs(delay - reference)
                                     / reference)
        return errors

    @pytest.mark.parametrize("model", list(T3_SUMMARY),
                             ids=lambda model: model.__name__)
    def test_model_error_summary(self, model, errors):
        mean, worst = T3_SUMMARY[model]
        assert len(errors[model]) == 21
        assert statistics.fmean(errors[model]) == pytest.approx(mean,
                                                                abs=0.01)
        assert max(errors[model]) == pytest.approx(worst, abs=0.01)


@pytest.mark.slow
class TestGoldenReference:
    @pytest.fixture(scope="class")
    def measured(self, cmos_char):
        return {s.name: _measure(s) for s in _selected_scenarios(cmos_char)}

    def test_goldens_cover_all_scenarios(self, goldens):
        assert sorted(goldens) == sorted(SCENARIO_NAMES)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_error_within_band(self, name, measured):
        error = measured[name]["rel_error"]
        assert abs(error) <= MAX_ABS_ERROR, (
            f"{name}: slope model off by {error:+.1%} vs analog reference "
            f"(band ±{MAX_ABS_ERROR:.0%})")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_error_does_not_drift_from_golden(self, name, measured,
                                              goldens):
        error = measured[name]["rel_error"]
        golden = goldens[name]["rel_error"]
        drift = abs(error - golden)
        assert drift <= MAX_DRIFT, (
            f"{name}: slope-model error drifted {drift:.1%} from the "
            f"committed golden ({golden:+.1%} → {error:+.1%}); if the "
            "change is intentional, regenerate tests/goldens/"
            "golden_delays.json")

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_reference_delay_itself_is_stable(self, name, measured,
                                              goldens):
        """The analog reference must not silently move either (it is the
        ruler everything else is measured with)."""
        reference = measured[name]["reference"]
        golden = goldens[name]["reference"]
        assert reference == pytest.approx(golden, rel=MAX_DRIFT), (
            f"{name}: analog reference moved {reference / golden - 1:+.1%}"
            " from the committed golden")


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    from repro.core.models import characterize_technology
    from repro.tech import CMOS3
    from tests.conftest import TEST_RATIOS

    tech = characterize_technology(CMOS3, ratios=TEST_RATIOS)
    payload = {
        "comment": "slope model vs analog reference; coarse TEST_RATIOS "
                   "characterization (tests/conftest.py). Regenerate: "
                   "PYTHONPATH=src:. python "
                   "tests/test_golden_reference.py --regenerate",
        "scenarios": {s.name: _measure(s)
                      for s in _selected_scenarios(tech)},
    }
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN_FILE}")
    for name, row in payload["scenarios"].items():
        print(f"  {name:<18} ref {row['reference']:.3e}s  "
              f"slope {row['slope_delay']:.3e}s  "
              f"err {row['rel_error']:+.1%}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)

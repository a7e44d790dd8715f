"""Self-tests of the benchmark suite (``PYTHONPATH=src python -m pytest
benchmarks/suite -q``): the tail rule, the compare rule, digest
stability, and ``BENCHMARK.json`` against the contract and against what
the runner emits.  No workload runs here.
"""

import json
import pathlib
import re
import time

import pytest

import measure
import run
import workloads

SUITE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads(run.BENCHMARK.read_text())
RESULTS = SUITE / "results" / "BENCH_suite.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- the tail rule ------------------------------------------------------------

@pytest.mark.parametrize("samples, pct", [
    (20, 50.0), (25, 60.0), (50, 80.0), (60, 80.0), (100, 90.0),
    (150, 90.0), (600, 98.0), (2520, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(samples, pct):
    assert measure.tail_percentile(samples) == pct
    assert measure.beyond(samples, pct) >= measure.TAIL_SAMPLES


def test_too_few_samples_have_no_tail():
    with pytest.raises(ValueError):
        measure.tail_percentile(19)


@pytest.mark.parametrize("pct", measure.LADDER)
def test_min_samples_is_the_threshold_of_each_percentile(pct):
    least = measure.min_samples(pct)
    assert measure.tail_percentile(least) == pct
    if pct == measure.LADDER[0]:
        with pytest.raises(ValueError):
            measure.tail_percentile(least - 1)
    else:
        assert measure.tail_percentile(least - 1) < pct


def test_every_workload_runs_enough_ops_for_its_tail():
    for cls in workloads.WORKLOADS.values():
        assert cls.tail_pct in measure.LADDER
        assert measure.beyond(measure.min_samples(cls.tail_pct),
                              cls.tail_pct) >= measure.TAIL_SAMPLES


def test_chunked_rate_ignores_one_slow_chunk():
    # two ops per chunk, 0.5 s each; the third chunk ran ten times slower
    ops = [(5.0 if index in (4, 5) else 0.5, 3) for index in range(10)]
    assert measure.chunk_median(ops, 5, measure.rate) == 6.0


def test_op_statistics_split_only_as_far_as_the_tail_allows():
    # 200 ops of 1 ms; a slow spell makes the last 40 take 3 ms
    ops = [(0.003 if i >= 160 else 0.001, 1) for i in range(200)]
    # p80 needs 50 samples per chunk: four chunks, the slow one outvoted
    p50, p80, throughput = measure.op_statistics(ops, 80.0)
    assert (p50, p80, throughput) == pytest.approx((1.0, 1.0, 1000.0))
    # p99 needs 1000 samples: one chunk, the plain percentile
    assert measure.op_statistics(ops, 99.0)[1] == pytest.approx(3.0)
    assert measure.op_statistics([], 80.0) == (0.0, 0.0, 0.0)


def test_calibration_scales_each_op_by_the_nearest_samples():
    # the host runs at half the reference speed from t = 10 s on
    calibration = measure.Calibration()
    calibration.samples = [
        (when, measure.CALIBRATION_S * (2.0 if when >= 10 else 1.0))
        for when in range(20)]
    assert calibration.scale_at(2.0) == 1.0
    assert calibration.scale_at(17.5) == 0.5
    assert calibration.scale() == pytest.approx(1 / 1.5)


def test_calibration_sample_is_short():
    # a window takes one every CALIBRATE_EVERY seconds
    assert 0 < measure.calibration_sample() < measure.CALIBRATE_EVERY


def _fake_workload(cost):
    class Fake:
        closed = 0

        def __init__(self, seed):
            self.seed = seed

        def setup(self):
            time.sleep(cost)

        def close(self):
            Fake.closed += 1

    return Fake


def test_cheap_setups_repeat_and_costly_ones_run_once(monkeypatch):
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.05)
    cheap = _fake_workload(0.0)
    workload, setups = run.set_up(cheap, 7)
    assert len(setups) == run.SETUP_REPEATS
    assert cheap.closed == run.SETUP_REPEATS - 1 and workload.seed == 7
    costly = _fake_workload(0.06)
    _, setups = run.set_up(costly, 7)
    assert len(setups) == 1 and costly.closed == 0


def test_percentile_interpolates():
    assert measure.percentile([4, 1, 3, 2], 50) == 2.5
    assert measure.percentile([1, 2, 3, 4, 5], 80) == pytest.approx(4.2)
    assert measure.percentile([7], 99) == 7


# -- the compare rule ---------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_same_code_is_unchanged():
    assert measure.verdict(PARENT, PARENT, "lower", 0.1)[0] == "unchanged"


def test_clear_speedup_is_improved():
    faster = [value * 0.8 for value in PARENT]
    assert measure.verdict(PARENT, faster, "lower", 0.1) == ("improved", 10)
    assert measure.verdict(PARENT, faster, "higher", 0.1)[0] == "regressed"


def test_slowdown_beyond_bound_is_regressed():
    slower = [value * 1.2 for value in PARENT]
    assert measure.verdict(PARENT, slower, "lower", 0.1)[0] == "regressed"
    assert measure.verdict(PARENT, [v * 1.05 for v in PARENT],
                           "lower", 0.1)[0] == "unchanged"


def test_eight_wins_of_ten_is_no_gain():
    change = [value * 0.8 for value in PARENT]
    change[0] = change[1] = 200.0
    assert measure.verdict(PARENT, change, "lower", 0.25)[0] != "improved"


def test_gain_must_exceed_the_parent_spread():
    # wins every pair, but by less than the parent's own IQR
    change = [value - 0.3 for value in PARENT]
    assert measure.verdict(PARENT, change, "lower", 0.1)[0] == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    change = list(reversed(noisy))
    assert measure.verdict(noisy, change, "lower", 0.1)[0] == "unresolved"


def test_fewer_than_ten_pairs_is_refused():
    with pytest.raises(ValueError):
        measure.verdict(PARENT[:9], PARENT[:9], "lower", 0.1)


def _runs(latency, failed):
    return [{name: {"attempted": 100, "failed": failed,
                    **{m["name"]: latency * (1 + 0.0001 * i)
                       for m in SPEC["end_to_end"]}}
             for name in (w["name"] for w in SPEC["workloads"])}
            for i in range(10)]


def test_more_failures_reject_and_void_gains():
    rows, ok = measure.compare_runs(_runs(10.0, 0), _runs(5.0, 1), SPEC)
    assert not ok
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("rca32_cold", "failed_frac")] == "regressed"
    assert verdicts[("rca32_cold", "latency_p50_ms")] == "void"


def test_identical_runs_are_accepted():
    rows, ok = measure.compare_runs(_runs(10.0, 0), _runs(10.0, 0), SPEC)
    assert ok
    assert {row["verdict"] for row in rows} == {"unchanged"}


# -- digests ------------------------------------------------------------------

ARRIVALS = [("out", "fall", 1.5e-9, 2.5e-10), ("in", "rise", 0.0, 3e-10)]


def test_digest_format_is_pinned():
    # expected/seed0.json depends on this exact format
    assert measure.arrivals_digest(ARRIVALS) == (
        "9dbd8368e09bd879afcf08c64d3831b0dac0a970acd15d21fc800df075bf09e1")
    assert measure.combined_digest(["a", "b"]) == (
        "7e18f737311b2dc3b2f269dd78396b0351f14fb66efa879f768cb23181883c78")


def test_digest_ignores_order_but_not_one_ulp():
    assert (measure.arrivals_digest(reversed(ARRIVALS))
            == measure.arrivals_digest(ARRIVALS))
    nudged = [("out", "fall", 1.5e-9 * (1 + 2 ** -52), 2.5e-10), ARRIVALS[1]]
    assert measure.arrivals_digest(nudged) != measure.arrivals_digest(ARRIVALS)


def test_engine_digest_repeats_and_matches_the_wire_form():
    from repro.circuits import inverter_chain
    from repro.core.timing import TimingAnalyzer
    from repro.tech import CMOS3

    network = inverter_chain(CMOS3, 3)
    first = TimingAnalyzer(network).analyze({"in": 0.0})
    second = TimingAnalyzer(network).analyze({"in": 0.0})
    assert measure.result_digest(first) == measure.result_digest(second)
    wire = [(e.node, e.transition.value, a.time, a.slope)
            for e, a in first.arrivals.items()]
    assert measure.arrivals_digest(wire) == measure.result_digest(first)


def test_committed_digests_cover_every_pool():
    expected = json.loads(run.EXPECTED.read_text())
    assert sorted(expected) == sorted(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        assert len(expected[name]) == cls.pool_size
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in expected[name])


def test_reference_delays_cover_the_paper_cells():
    delays = json.loads(workloads.REFERENCE_DELAYS.read_text())["delays"]
    assert len(delays) == 21
    assert all(value > 0 for value in delays.values())


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_has_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])


def test_names_and_units_are_valid_and_unique():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_declared_workloads_are_the_runners():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_runner_emits_every_declared_metric():
    results = json.loads(RESULTS.read_text())
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        row = results[workload]
        assert declared <= set(row), declared - set(row)
        assert all(isinstance(value, (int, float)) for value in row.values())

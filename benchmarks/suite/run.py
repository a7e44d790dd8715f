"""One seeded, layer-attributed benchmark suite for the timing engine.

Run from the repository root (no install, no ``PYTHONPATH`` needed)::

    # one workload, one pass: the last stdout line is the JSON result
    python3 benchmarks/suite/run.py --workload rca32_cold --seed 0 \\
        --seconds 10 --trace 0

    # every workload, untraced then traced, each in its own process
    python3 benchmarks/suite/run.py --seed 0 \\
        --out benchmarks/suite/results/BENCH_suite.json

    # the pair-wise compare rule over >=10 runs of each side (JSON Lines
    # files, one suite result per line, as written by --append)
    python3 benchmarks/suite/run.py compare PARENT.jsonl CHANGE.jsonl

    # regenerate the committed references (maintenance only)
    python3 benchmarks/suite/run.py record expected|references

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` splits the window into an untraced half (layers timed
from outside, engine counters) and a traced half (span self times) and
reports every per-layer metric.  See ``README.md`` for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import measure

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = SUITE / "expected" / "seed0.json"

#: At seeds without committed digests, every n-th op is recomputed
#: through the plain engine path (untimed, after the window).
CROSS_CHECK_EVERY = 10

#: Precision to which paper_cells must reproduce T3's slope row.
T3_TOLERANCE_PCT = 0.1

#: Calibration samples taken just before, and again just after, set-up.
SETUP_SAMPLES = 3

#: Most set-ups of one pass, and the seconds after which set-up stops
#: repeating (see set_up).
SETUP_REPEATS = 5
SETUP_BUDGET_S = 2.0

#: Per-layer times measured around public calls in the untraced pass.
OUTSIDE_LAYERS = ("netlist.parse_ms", "timing.build_ms", "timing.analyze_ms",
                  "switchlevel.settle_ms")

#: Per-layer self times of the traced pass: metric -> span names.
SPAN_LAYERS = {
    "timing.stage_eval_self_ms": ("stage_eval",),
    "timing.worklist_self_ms": ("analyze", "analyze_delta", "scenario"),
    "timing.path_enum_self_ms": ("path_enum",),
    "rctree.template_compile_self_ms": ("template_compile",),
    "rctree.template_share_self_ms": ("template_share",),
    "rctree.kernel_batch_self_ms": ("kernel_batch",),
    "rctree.kernel_constants_self_ms": ("kernel_constants",),
    "batch.sweep_self_ms": ("sweep",),
    "service.batch_self_ms": ("service_batch",),
    "service.sweep_self_ms": ("service_sweep",),
}

#: Spans left out of trace.attributed_frac: the op itself, and request
#: handlers, whose time overlaps the batches they wait for.
UNATTRIBUTED_SPANS = ("bench.op", "service_request")


def declared() -> dict:
    return json.loads(BENCHMARK.read_text())


def use_source_tree() -> None:
    """Import the package from this checkout's ``src/`` or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}; run "
                         "from the root of a full checkout")
    sys.path.insert(0, str(src))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# One workload, one pass
# ---------------------------------------------------------------------------

def check(workload, outcomes, seed: int) -> int:
    """Mark wrong answers on *outcomes*; return the failed-op count.

    At seed 0 every op is checked against the committed digests; at
    other seeds every :data:`CROSS_CHECK_EVERY`-th op is recomputed
    through the workload's plain reference path.
    """
    expected = None
    if seed == 0:
        expected = json.loads(EXPECTED.read_text())[workload.name]
        if len(expected) != len(workload.pool):
            raise SystemExit(f"error: {EXPECTED.name} holds {len(expected)} "
                             f"digests for {workload.name}, whose pool has "
                             f"{len(workload.pool)} entries")
    references = {}
    failed = 0
    for outcome in outcomes:
        if not outcome.error:
            slot = outcome.index % len(workload.pool)
            if expected is not None:
                want = expected[slot]
            elif outcome.index % CROSS_CHECK_EVERY == 0:
                if slot not in references:
                    references[slot] = workload.reference(slot)
                want = references[slot]
            else:
                continue
            if outcome.digest != want:
                outcome.error = f"wrong answer for pool entry {slot}"
        if outcome.error:
            failed += 1
            if failed <= 3:
                print(f"{workload.name}: op {outcome.index} failed: "
                      f"{outcome.error}", file=sys.stderr)
    return failed


def counter_metrics(raw) -> dict:
    """Per-item engine counters from summed raw counters."""
    def get(name):
        return raw.get(name, 0)

    def per_item(name):
        return ratio(get(name), get("items"))

    return {
        "timing.stage_visits": per_item("stage_visits"),
        "timing.model_evals": per_item("model_evals"),
        "timing.path_enumerations": per_item("path_enumerations"),
        "models.memo_hit_rate": ratio(
            get("model_cache_hits"),
            get("model_cache_hits") + get("model_cache_misses")),
        "rctree.template_compiles": per_item("tree_template_misses"),
        "rctree.template_shares": per_item("tree_template_shared"),
        "rctree.template_hit_rate": ratio(
            get("tree_template_hits"),
            get("tree_template_hits") + get("tree_template_misses")),
        "rctree.kernel_batches": per_item("kernel_batches"),
        "rctree.nodes_per_batch": ratio(get("kernel_nodes"),
                                        get("kernel_batches")),
        "timing.cone_stages": per_item("cone_stages"),
        "timing.delta_skip_rate": ratio(
            get("stages_skipped"), get("stages_skipped") + get("cone_stages")),
        "timing.stale_pop_rate": ratio(
            get("worklist_stale_pops"),
            get("worklist_stale_pops") + get("stage_visits")),
        "batch.mean_vector_delta": ratio(get("input_delta"),
                                         get("delta_scenarios")),
        "service.pool_hit_rate": ratio(
            get("pool_hits"), get("pool_hits") + get("pool_misses")),
    }


def span_metrics(records, outcomes, scale: float) -> dict:
    """Per-item self times of the traced pass, at the reference speed
    (*scale* is the pass's calibration scale)."""
    times = measure.span_times(records)
    items = sum(outcome.items for outcome in outcomes if not outcome.error)
    values = {
        metric: ratio(1e3 * scale * sum(times[name][2] for name in names
                                        if name in times), items)
        for metric, names in SPAN_LAYERS.items()}
    handlers = [record.duration for record in records
                if record.name == "service_request"
                and (record.args or {}).get("path") == "/analyze"]
    values["service.request_ms"] = 1e3 * scale * median_or_zero(handlers)
    covered = sum(self_time for name, (_, _, self_time) in times.items()
                  if name not in UNATTRIBUTED_SPANS)
    values["trace.attributed_frac"] = ratio(
        covered, sum(outcome.latency for outcome in outcomes))
    return values


def latencies(outcomes):
    """Op latencies in seconds at the reference host speed."""
    return [outcome.latency * outcome.scale for outcome in outcomes
            if not outcome.error]


def set_up(cls, seed: int):
    """A set-up instance of workload *cls*, and the seconds of each set-up.

    Set-up repeats, each time on a fresh instance, until
    :data:`SETUP_REPEATS` are done or they took :data:`SETUP_BUDGET_S`
    together: the cheap set-ups give a median, and the ones that
    characterize run once.  Each repeat characterizes afresh.
    """
    from repro.core.models.characterize import clear_cache

    setups = []
    while True:
        clear_cache()
        workload = cls(seed)
        start = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        setups.append(time.perf_counter() - start)
        if len(setups) == SETUP_REPEATS or sum(setups) >= SETUP_BUDGET_S:
            return workload, setups
        workload.close()
        del workload
        gc.collect()  # free it before the next set-up: peak RSS is gated


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the JSON result."""
    # One CPU for this process and every process it starts (the daemon,
    # CLI children), so the calibration samples time the CPU the ops run
    # on: the host's CPUs drift apart in speed, by up to 1.5x.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Set-up runs no ops to interleave samples with, so it is scaled by
    # samples taken just before and just after it.
    around_setup = measure.Calibration()
    for _ in range(SETUP_SAMPLES):
        around_setup.sample()
    started = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - started

    workload, setups = set_up(workloads.WORKLOADS[name], seed)
    try:
        setup_s = import_s + statistics.median(setups)
        for _ in range(SETUP_SAMPLES):
            around_setup.sample()
        if trace:
            half = seconds / 2
            plain = workload.window(half, workload.counter_ops, 0)
            raw = workload.counters(plain)
            floors = workload.floor_metrics()
            traced, records = workload.traced(lambda: workload.window(
                half, workload.counter_ops, len(plain)))
            outcomes = plain + traced
        else:
            outcomes = workload.window(
                seconds, measure.min_samples(workload.tail_pct), 0)
            peak_rss_mb = workload.peak_rss_mb()
        failed = check(workload, outcomes, seed)
    finally:
        workload.close()

    mean_err, max_err = workload.slope_err
    correct = failed == 0
    if workload.expect_slope_err is not None:
        want_mean, want_max = workload.expect_slope_err
        correct = correct and (abs(mean_err - want_mean) <= T3_TOLERANCE_PCT
                               and abs(max_err - want_max)
                               <= T3_TOLERANCE_PCT)
    # Every time below is at the reference host speed (measure.Calibration).
    scale = workload.calibration.scale()
    setup_scale = around_setup.scale()
    if trace:
        values = {layer: median_or_zero(
            [o.layers[layer] * o.scale for o in plain if layer in o.layers
             and not o.error]) for layer in OUTSIDE_LAYERS}
        values["models.characterize_s"] = (workload.characterize_s
                                           * setup_scale)
        for floor in ("cli.interpreter_ms", "cli.import_ms"):
            values[floor] = floors.get(floor, 0.0) * scale
        values.update(counter_metrics(raw))
        values.update(span_metrics(records, traced, scale))
        values["trace.overhead_frac"] = ratio(
            median_or_zero(latencies(traced)),
            median_or_zero(latencies(plain))) - 1.0
        section = "per_layer"
    else:
        p50_ms, tail_ms, throughput = measure.op_statistics(
            [(o.latency * o.scale, o.items)
             for o in outcomes if not o.error], workload.tail_pct)
        values = {
            "setup_s": setup_s * setup_scale,
            "latency_p50_ms": p50_ms,
            "latency_tail_ms": tail_ms,
            "throughput_per_s": throughput,
            "peak_rss_mb": peak_rss_mb,
            "slope_err_mean_pct": mean_err,
            "slope_err_max_pct": max_err,
        }
        section = "end_to_end"
    print(f"{name}: seed {seed}, trace {int(trace)}, {len(outcomes)} ops, "
          f"{failed} failed, tail p{workload.tail_pct:g}, "
          f"setup {setup_s:.2f} s as measured (median of {len(setups)}), "
          f"host at {scale:.2f}x the reference speed")
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in declared()[section]}
    return {"correct": correct, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# Every workload (the suite command)
# ---------------------------------------------------------------------------

def run_suite(seed: int, seconds: float) -> dict:
    """Run each workload untraced, then traced, in fresh processes."""
    suite = {}
    for entry in declared()["workloads"]:
        name = entry["name"]
        row = {"attempted": 0, "failed": 0, "correct": True}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(pathlib.Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"error: workload {name} (trace {trace}) "
                                 f"exited {proc.returncode}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            row["correct"] = row["correct"] and result["correct"]
            for metric, value in result["metrics"].items():
                row[metric] = value["value"]
        row["failed_frac"] = row["failed"] / row["attempted"]
        suite[name] = row
    return suite


def print_suite(suite: dict) -> None:
    spec = declared()
    units = {"failed_frac": "ratio"}
    units.update((m["name"], m["unit"])
                 for m in spec["end_to_end"] + spec["per_layer"])
    for name, row in suite.items():
        print(f"\n{name}  ({row['attempted']} ops, "
              f"{'correct' if row['correct'] else 'INCORRECT'})")
        for metric, unit in units.items():
            print(f"  {metric:<34} {row[metric]:>14.6g} {unit}")


# ---------------------------------------------------------------------------
# compare / record
# ---------------------------------------------------------------------------

def load_runs(path: str) -> list:
    """Suite results from a JSON Lines file, one run per line."""
    return [json.loads(line)
            for line in pathlib.Path(path).read_text().splitlines()
            if line.strip()]


def compare(parent_path: str, change_path: str) -> int:
    rows, ok = measure.compare_runs(load_runs(parent_path),
                                    load_runs(change_path), declared())
    header = (f"{'workload':<18} {'metric':<20} {'parent':>12} "
              f"{'change':>12} {'IQR':>10} {'wins':>5}  verdict")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<20} "
              f"{row['parent']:>12.6g} {row['change']:>12.6g} "
              f"{row['spread']:>10.4g} {row['wins']:>5}  {row['verdict']}")
    print("accept" if ok else "reject: a metric regressed or more ops failed")
    return 0 if ok else 1


def record(what: str) -> int:
    import workloads

    if what == "references":
        from repro.bench import reference_delay

        cells = workloads.paper_cells(
            workloads.characterize_technology(workloads.CMOS3),
            workloads.characterize_technology(workloads.NMOS4))
        payload = {
            "comment": "repro.analog transient delays of the T1/T2 cells: "
                       "the fixed ruler slope_err_*_pct is measured with",
            "delays": {f"{tech}/{scenario.name}": reference_delay(scenario)
                       for tech, scenario in cells}}
        path = workloads.REFERENCE_DELAYS
    else:
        payload = {}
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0)
            try:
                workload.setup()
                payload[name] = [workload.reference(slot)
                                 for slot in range(len(workload.pool))]
            finally:
                workload.close()
        path = EXPECTED
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        return compare(argv[1], argv[2])
    if argv[:1] == ["record"]:
        if argv[1:] not in (["expected"], ["references"]):
            raise SystemExit("usage: run.py record expected|references")
        use_source_tree()
        return record(argv[1])

    parser = argparse.ArgumentParser(
        prog="run.py", description="Seeded, layer-attributed benchmark "
        "suite (see benchmarks/suite/README.md).")
    parser.add_argument("--workload",
                        help="run one workload (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declared()["run_seconds"],
                        help="length of one measured window (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer "
                             "metrics of a traced pass")
    parser.add_argument("--out", metavar="FILE",
                        help="suite: write the results object to FILE")
    parser.add_argument("--append", metavar="FILE",
                        help="suite: append the results as one JSON line "
                             "(the input of compare)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = [w["name"] for w in declared()["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(names)}")
    use_source_tree()

    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0

    suite = run_suite(args.seed, args.seconds)
    print_suite(suite)
    payload = {"updated": time.strftime("%Y-%m-%dT%H:%M:%S"),
               "host": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "cpus": os.cpu_count()},
               "seed": args.seed, "seconds": args.seconds, **suite}
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(payload, indent=2)
                                          + "\n")
    if args.append:
        with open(args.append, "a") as handle:
            handle.write(json.dumps(payload) + "\n")
    return 0 if all(row["correct"] for row in suite.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

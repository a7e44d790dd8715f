"""The six workloads of the benchmark suite.

Each workload builds a seeded pool of inputs in :meth:`Workload.setup`
and answers one pool entry per op (op ``i`` takes entry ``i % len(pool)``,
so the inputs of an op depend only on the seed and its index).  Layers
are timed from outside, around calls into the package's public
functions, and the same calls open spans on the active tracer so a
traced pass attributes every op to the layers below it.  Every op's
answer is reduced to a digest of its exact arrivals; :meth:`reference`
recomputes that digest through a plain ``TimingAnalyzer.analyze()``.

Importing this module imports the package under test, so the runner
imports it only after its set-up clock has started.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import re
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import measure
from repro.batch import CartesianSweep, parse_timing_token, run_sweep
from repro.bench import cmos_scenarios, model_delay, nmos_scenarios
from repro.bench.harness import scenario_states
from repro.circuits import adder_input_names, decoder, ripple_carry_adder
from repro.core.models import (LumpedRCModel, RCTreeModel, SlopeModel,
                               characterize_technology)
from repro.core.timing import (InputSpec, TimingAnalyzer, arrival_table,
                               format_worst_paths)
from repro.netlist import sim_format
from repro.service import ServiceClient
from repro.tech import CMOS3, NMOS4
from repro.trace import spans as trace_spans

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
REFERENCE_DELAYS = SUITE / "reference_delays.json"

EARLY = 0.0
LATE = 0.5e-9
SLOPE = 0.3e-9
#: Arrival times a seeded vector draws each input from.
ARRIVALS = (0.0, 0.2e-9, 0.5e-9)
#: Subprocess time limit; an op that hangs fails instead of hanging.
CHILD_TIMEOUT = 120.0


@dataclass
class Outcome:
    """One op: its latency, answer digest, and per-layer measurements."""

    index: int
    start: float = 0.0
    latency: float = 0.0
    #: work items the op completed (analyses, vectors, requests, cells)
    items: int = 1
    digest: str = ""
    #: milliseconds spent in each layer timed from outside
    layers: Dict[str, float] = field(default_factory=dict)
    #: the engine's perf counters for this op
    counters: Dict[str, int] = field(default_factory=dict)
    #: factor to the reference host speed (:class:`measure.Calibration`)
    scale: float = 1.0
    error: str = ""


def child_env() -> Dict[str, str]:
    """Environment for spawned package processes (source tree first)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed(layers: Dict[str, float], name: str, call: Callable):
    """Run *call* inside a span named *name*; record its ms in *layers*."""
    start = time.perf_counter()
    with trace_spans.span(name):
        value = call()
    layers[f"{name}_ms"] = (time.perf_counter() - start) * 1e3
    return value


def seeded_vector(rng: random.Random, names: Sequence[str]
                  ) -> Dict[str, InputSpec]:
    vector = {}
    for name in names:
        arrival = rng.choice(ARRIVALS)
        vector[name] = InputSpec(arrival, arrival, SLOPE)
    return vector


def slope_errors(cells) -> Tuple[float, float]:
    """Mean and max slope-model |error| in percent over *cells*, a list
    of ``(technology name, Scenario)``, against the committed analog
    delays of ``reference_delays.json``."""
    references = json.loads(REFERENCE_DELAYS.read_text())["delays"]
    errors = []
    for tech_name, scenario in cells:
        reference = references[f"{tech_name}/{scenario.name}"]
        delay, _ = model_delay(scenario, SlopeModel())
        errors.append(abs(delay - reference) / reference)
    return 100.0 * statistics.fmean(errors), 100.0 * max(errors)


def paper_cells(cmos, nmos):
    """The 21 T1/T2 cells as ``(technology name, Scenario)``."""
    return ([("cmos3", s) for s in cmos_scenarios(cmos)]
            + [("nmos4", s) for s in nmos_scenarios(nmos)])


class Workload:
    """Set-up, one op, and its reference for one named workload."""

    name = ""
    #: tail percentile of latency_tail_ms; the run does at least enough
    #: ops to have ten samples beyond it
    tail_pct = 90.0
    pool_size = 64
    #: ops whose engine counters the per-layer counters average over
    counter_ops = 10
    #: T3's slope row (mean, max |err| %) the workload must reproduce
    expect_slope_err: Optional[Tuple[float, float]] = None

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool: List = []
        self.characterize_s = 0.0
        self.slope_err = (0.0, 0.0)
        self.calibration = measure.Calibration()

    def characterize(self, base):
        start = time.perf_counter()
        tech = characterize_technology(base)
        self.characterize_s += time.perf_counter() - start
        return tech

    def cmos(self, characterized: bool):
        """CMOS3, fitted or with its analytic default tables, recording
        the slope model's accuracy on the T2 cells with it."""
        tech = self.characterize(CMOS3) if characterized else CMOS3
        self.slope_err = slope_errors(
            [("cmos3", s) for s in cmos_scenarios(tech)])
        return tech

    # -- the parts a workload provides ---------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, entry, outcome: Outcome):
        """Answer *entry*; fill *outcome*'s layers/counters/items."""
        raise NotImplementedError

    def digest(self, answer) -> str:
        return measure.result_digest(answer)

    def reference(self, index: int) -> str:
        """Digest of pool entry *index* through the plain engine path."""
        raise NotImplementedError

    # -- running ----------------------------------------------------------

    def run_op(self, index: int) -> Outcome:
        outcome = Outcome(index)
        entry = self.pool[index % len(self.pool)]
        try:
            outcome.start = time.perf_counter()
            with trace_spans.span("bench.op"):
                answer = self.op(entry, outcome)
            outcome.latency = time.perf_counter() - outcome.start
            outcome.digest = self.digest(answer)
        except Exception as exc:  # a failed op is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    def window(self, seconds: float, min_ops: int, first: int
               ) -> List[Outcome]:
        """Sequential ops for *seconds*, and at least *min_ops* of them,
        with a calibration sample between ops every
        :data:`measure.CALIBRATE_EVERY` seconds."""
        outcomes: List[Outcome] = []
        deadline = time.perf_counter() + seconds
        next_sample = 0.0
        index = first
        while time.perf_counter() < deadline or len(outcomes) < min_ops:
            if time.perf_counter() >= next_sample:
                self.calibration.sample()
                next_sample = time.perf_counter() + measure.CALIBRATE_EVERY
            outcomes.append(self.run_op(index))
            index += 1
        self.calibration.sample()
        for outcome in outcomes:
            outcome.scale = self.calibration.scale_at(outcome.start)
        return outcomes

    def traced(self, run: Callable[[], List[Outcome]]):
        """*run* with tracing on; returns (outcomes, span records)."""
        tracer = trace_spans.Tracer()
        with trace_spans.activate(tracer):
            outcomes = run()
        return outcomes, tracer.records

    def counters(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Summed engine counters of the first :attr:`counter_ops` ops,
        plus ``items``: a fixed op set, so the sums repeat exactly."""
        raw: Dict[str, float] = {"items": 0}
        for outcome in outcomes[:self.counter_ops]:
            raw["items"] += outcome.items
            for name, value in outcome.counters.items():
                raw[name] = raw.get(name, 0) + value
        return raw

    def floor_metrics(self) -> Dict[str, float]:
        """Costs no change to the package can move (cli_cold only)."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Cold single-vector analysis: rca32_cold, dec5_cold
# ---------------------------------------------------------------------------

class ColdAnalysis(Workload):
    """``loads``, a fresh ``TimingAnalyzer``, ``analyze()`` of one
    seeded vector — the paper's T4 use case."""

    tail_pct = 80.0
    characterized = True

    def build(self, tech):
        raise NotImplementedError

    def setup(self) -> None:
        self.tech = self.cmos(self.characterized)
        self.text = sim_format.dumps(self.build(self.tech))
        # The reference analyzes the parsed network: the generator's own
        # sums node capacitances in another order (last-ulp differences).
        self.network = sim_format.loads(self.text, self.tech)
        names = sorted(node.name for node in self.network.inputs())
        self.pool = [seeded_vector(self.rng, names)
                     for _ in range(self.pool_size)]

    def op(self, inputs, outcome):
        layers = outcome.layers
        network = timed(layers, "netlist.parse",
                        lambda: sim_format.loads(self.text, self.tech))
        analyzer = timed(layers, "timing.build",
                         lambda: TimingAnalyzer(network))
        result = timed(layers, "timing.analyze",
                       lambda: analyzer.analyze(inputs))
        outcome.counters = dict(result.perf.counters)
        return result

    def reference(self, index):
        inputs = self.pool[index % len(self.pool)]
        return self.digest(TimingAnalyzer(self.network).analyze(inputs))


class Rca32Cold(ColdAnalysis):
    name = "rca32_cold"

    def build(self, tech):
        return ripple_carry_adder(tech, 32)


class Dec5Cold(ColdAnalysis):
    name = "dec5_cold"
    # rca32_cold already carries characterization in set-up; without it
    # the run budget goes to measured ops.
    characterized = False

    def build(self, tech):
        return decoder(tech, 5)


# ---------------------------------------------------------------------------
# Delta sweep with one warm analyzer: rca32_delta_sweep
# ---------------------------------------------------------------------------

class DeltaSweep(Workload):
    """``run_sweep(delta=True, order="gray")`` of a 16-vector cartesian
    sweep on four seeded axes from bits 16-31, one warm analyzer across
    every op."""

    name = "rca32_delta_sweep"
    tail_pct = 80.0
    #: adder bits each axis is drawn from, in declaration order.  Gray
    #: order toggles the last axis most often, and an input's dirty cone
    #: runs up the carry chain from its bit, so fixing each axis's group
    #: gives every op, at every seed, nearly the same work.
    groups = (range(28, 32), range(24, 28), range(20, 24), range(16, 20))

    def setup(self) -> None:
        self.network = ripple_carry_adder(self.cmos(characterized=False), 32)
        self.base = {name: InputSpec(EARLY, EARLY, SLOPE)
                     for name in adder_input_names(32)}
        self.pool = [[f"{self.rng.choice('ab')}{self.rng.choice(group)}"
                      for group in self.groups]
                     for _ in range(self.pool_size)]
        self.analyzer = TimingAnalyzer(self.network)
        # Warm the analyzer-lifetime caches: the workload measures the
        # steady state a long sweep session runs in.
        self.analyzer.analyze(self.base)
        self._reference = None

    def source(self, axes):
        edges = [InputSpec(EARLY, EARLY, SLOPE), InputSpec(LATE, LATE, SLOPE)]
        return CartesianSweep(base=self.base,
                              axes={name: edges for name in axes})

    def op(self, axes, outcome):
        sweep = run_sweep(self.network, self.source(axes),
                          analyzer=self.analyzer, delta=True, order="gray")
        outcome.items = len(sweep)
        outcome.counters = dict(sweep.batch_perf.total.counters)
        return sweep

    def digest(self, sweep):
        return measure.combined_digest(
            measure.result_digest(outcome.result)
            for outcome in sweep.outcomes)

    def reference(self, index):
        if self._reference is None:
            self._reference = TimingAnalyzer(self.network)
        axes = self.pool[index % len(self.pool)]
        return measure.combined_digest(
            measure.result_digest(self._reference.analyze(vector.inputs))
            for vector in self.source(axes))


# ---------------------------------------------------------------------------
# The timing daemon under a closed loop of one client: rca32_service
# ---------------------------------------------------------------------------

class Service(Workload):
    """Single-vector ``ServiceClient.analyze`` requests against a
    ``repro-crystal serve`` process from one client in a closed loop
    (the inherited sequential :meth:`Workload.window`).  Each input
    arrives late with probability 1/8."""

    name = "rca32_service"
    # p90 and p95 lie on and past the knee of this workload's latency
    # curve, where the few costly requests and pauses in the daemon land
    # differently each run: they swung by 13-14% between runs of the
    # same code.  p80, a median over 5 chunks, holds within 4%.
    tail_pct = 80.0
    pool_size = 256

    def setup(self) -> None:
        self.netlist = sim_format.dumps(
            ripple_carry_adder(self.cmos(characterized=False), 32))
        names = adder_input_names(32)
        early = InputSpec(EARLY, EARLY, SLOPE)
        late = InputSpec(LATE, LATE, SLOPE)
        self.base = {name: early for name in names}
        self.pool = [{name: late if self.rng.random() < 1 / 8 else early
                      for name in names} for _ in range(self.pool_size)]
        self.daemon: Optional[subprocess.Popen] = None
        self.workdir = tempfile.TemporaryDirectory(dir=SUITE, prefix=".work-")
        self._reference = None
        self.start_daemon()

    def start_daemon(self, trace: Optional[str] = None) -> None:
        """Spawn the daemon and wait for its first answer (a pool miss
        that builds the warm analyzer)."""
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--timeout", str(CHILD_TIMEOUT)]
        if trace:
            argv += ["--trace", trace]
        self.daemon = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                       text=True, cwd=ROOT, env=child_env())
        ready, _, _ = select.select([self.daemon.stdout], [], [], 60)
        line = self.daemon.stdout.readline() if ready else ""
        match = re.search(r"http://([^:\s]+):(\d+)", line)
        if not match:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.client = ServiceClient(match.group(1), int(match.group(2)),
                                    timeout=CHILD_TIMEOUT)
        self.client.analyze(self.netlist, [("warm", self.base)],
                            characterize=False)

    def stop_daemon(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            self.client.shutdown()
            daemon.communicate(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
            daemon.wait()

    def op(self, vector, outcome):
        (answer,) = self.client.analyze(self.netlist, [("q", vector)],
                                        characterize=False)
        return answer.arrivals

    def digest(self, arrivals):
        return measure.arrivals_digest(
            (node, edge, time_, slope)
            for (node, edge), (time_, slope) in arrivals.items())

    def reference(self, index):
        if self._reference is None:
            self._reference = TimingAnalyzer(
                sim_format.loads(self.netlist, CMOS3))
        vector = self.pool[index % len(self.pool)]
        return measure.result_digest(self._reference.analyze(vector))

    def traced(self, run):
        trace = str(pathlib.Path(self.workdir.name) / "serve.json")
        self.stop_daemon()
        self.start_daemon(trace=trace)
        outcomes = run()
        self.stop_daemon()
        events = json.loads(pathlib.Path(trace).read_text())["traceEvents"]
        # Drop the spans of the untimed first request: they end before
        # its handler span does, and the clients wait for that answer.
        first = min((e for e in events if e["name"] == "service_request"
                     and e.get("args", {}).get("path") == "/analyze"),
                    key=lambda e: e["ts"])
        warm_end = first["ts"] + first["dur"]
        timed_events = [e for e in events if e.get("ts", 0) >= warm_end]
        return outcomes, measure.records_from_chrome(timed_events)

    def counters(self, outcomes):
        metrics = self.client.metrics()
        service, pool = metrics["service"], metrics["pool"]
        raw = dict(metrics["perf"]["counters"])
        raw.update(pool_hits=pool["hits"], pool_misses=pool["misses"],
                   items=service.get("service_vectors", 0))
        return raw

    def peak_rss_mb(self):
        status = pathlib.Path(f"/proc/{self.daemon.pid}/status").read_text()
        kilobytes = re.search(r"VmHWM:\s+(\d+)", status).group(1)
        return int(kilobytes) / 1024.0

    def close(self):
        try:
            self.stop_daemon()
        finally:
            self.workdir.cleanup()


# ---------------------------------------------------------------------------
# CLI cold start: cli_cold
# ---------------------------------------------------------------------------

class CliCold(Workload):
    """``repro-crystal timing examples/datapath.sim --no-characterize``
    with every input named, from spawn to exit."""

    name = "cli_cold"
    tail_pct = 60.0
    pool_size = 32
    netlist = "examples/datapath.sim"
    tokens = ("0", "200p", "500p")
    floor_spawns = 5

    def setup(self) -> None:
        self.network = sim_format.load(str(ROOT / self.netlist),
                                       self.cmos(characterized=False))
        names = sorted(node.name for node in self.network.inputs())
        self.pool = [{name: self.rng.choice(self.tokens) for name in names}
                     for _ in range(self.pool_size)]
        self.env = child_env()
        self.trace_dir: Optional[str] = None

    def spawn(self, argv: List[str]) -> str:
        proc = subprocess.run([sys.executable] + argv, capture_output=True,
                              text=True, cwd=ROOT, env=self.env,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return proc.stdout

    def op(self, tokens, outcome):
        argv = ["-m", "repro.cli", "timing", self.netlist, "--tech", "cmos3",
                "--no-characterize"]
        for name, token in sorted(tokens.items()):
            argv += ["--input", f"{name}={token}"]
        if self.trace_dir:
            argv += ["--trace", os.path.join(self.trace_dir,
                                             f"op{outcome.index}.json")]
        return self.spawn(argv)

    def digest(self, stdout):
        report = [line for line in stdout.splitlines(keepends=True)
                  if not re.match(r"trace: \d+ event\(s\) written to ", line)]
        return measure.text_digest("".join(report))

    def analyze(self, index):
        tokens = self.pool[index % len(self.pool)]
        inputs = dict(parse_timing_token(f"{name}={token}")
                      for name, token in tokens.items())
        return TimingAnalyzer(self.network).analyze(inputs)

    def reference(self, index):
        # The report `repro-crystal timing` prints without --report.
        result = self.analyze(index)
        return measure.text_digest(
            f"{format_worst_paths(result, count=5)}\n\n"
            f"{arrival_table(result)}\n")

    def traced(self, run):
        with tempfile.TemporaryDirectory(dir=SUITE, prefix=".work-") as path:
            self.trace_dir = path
            try:
                outcomes = run()
            finally:
                self.trace_dir = None
            events = []
            for trace in sorted(pathlib.Path(path).glob("op*.json")):
                events += json.loads(trace.read_text())["traceEvents"]
        return outcomes, measure.records_from_chrome(events)

    def counters(self, outcomes):
        # The CLI prints no counters without --profile; the same engine
        # run in-process on the same inputs counts the same work.
        raw: Dict[str, float] = {"items": 0}
        for index in range(3):
            raw["items"] += 1
            for name, value in self.analyze(index).perf.counters.items():
                raw[name] = raw.get(name, 0) + value
        return raw

    def floor_metrics(self):
        def median_ms(argv):
            samples = []
            for _ in range(self.floor_spawns):
                start = time.perf_counter()
                self.spawn(argv)
                samples.append((time.perf_counter() - start) * 1e3)
            return statistics.median(samples)

        return {"cli.interpreter_ms": median_ms(["-c", "pass"]),
                "cli.import_ms": median_ms(["-c", "import repro.cli"])}

    def peak_rss_mb(self):
        return (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024.0)


# ---------------------------------------------------------------------------
# The paper's T1/T2 cells under all three models: paper_cells
# ---------------------------------------------------------------------------

class PaperCells(Workload):
    """One (cell, model) delay per op — ``scenario_states``, then
    ``TimingAnalyzer``, then ``analyze`` — over the 21 T1/T2 cells and
    the three delay models, in seeded order."""

    name = "paper_cells"
    tail_pct = 99.0
    pool_size = 63
    counter_ops = 63
    expect_slope_err = (7.5, 31.5)

    def setup(self) -> None:
        cells = paper_cells(self.characterize(CMOS3),
                            self.characterize(NMOS4))
        self.slope_err = slope_errors(cells)
        self.pool = [(scenario, model) for _, scenario in cells
                     for model in (LumpedRCModel, RCTreeModel, SlopeModel)]
        self.rng.shuffle(self.pool)

    def op(self, entry, outcome):
        scenario, model = entry
        layers = outcome.layers
        initial, states = timed(layers, "switchlevel.settle",
                                lambda: scenario_states(scenario))
        analyzer = timed(layers, "timing.build", lambda: TimingAnalyzer(
            scenario.network, model=model(), states=states,
            initial_states=initial))
        result = timed(layers, "timing.analyze",
                       lambda: analyzer.analyze(scenario.timing_inputs))
        outcome.counters = dict(result.perf.counters)
        return result

    def reference(self, index):
        # The op already is the plain path: a fresh analyzer per cell.
        entry = self.pool[index % len(self.pool)]
        return self.digest(self.op(entry, Outcome(index)))


WORKLOADS = {cls.name: cls for cls in (Rca32Cold, Dec5Cold, DeltaSweep,
                                       Service, CliCold, PaperCells)}

"""``repro-crystal`` — the command-line face of the reproduction.

Crystal was an interactive tool fed with a ``.sim`` netlist and a handful
of commands; this CLI reproduces that workflow non-interactively:

.. code-block:: sh

    repro-crystal validate  adder.sim --tech cmos3
    repro-crystal switch    adder.sim --tech cmos3 --set a0=1 --set b0=0
    repro-crystal timing    adder.sim --tech cmos3 --input "cin=0" \
                            --model slope --report cout
    repro-crystal sweep     adder.sim --tech cmos3 --vectors vecs.txt \
                            --profile
    repro-crystal hazards   datapath.sim --tech nmos4
    repro-crystal characterize --tech nmos4 --output nmos4.json

Timing ``--input`` syntax: ``name=TIME`` (both edges),
``name=TIME:rise`` (rising edge only), ``name=TIME:fall`` (falling only),
``name=-`` (static side input, no events).  Times accept engineering
suffixes (``2n``, ``500p``).

The ``sweep`` subcommand runs many input vectors through **one** shared
analyzer (cache-sharing batch mode, see DESIGN.md §5b).  Vectors come
from a ``--vectors`` file (one scenario per line of ``name=TIME``
tokens, optional leading ``@label``), from repeated
``--sweep name=T1,T2,…`` cartesian axes over a ``--input`` base, or
from ``--random N --seed S`` samples.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import List, Optional

# Module level imports only modules that ``timing`` runs (the vector
# sources and the fit live in two of them); every other subcommand
# imports its own, so a timing run never loads them (DESIGN.md §8).
from .batch import (
    VECTOR_ORDERS,
    CartesianSweep,
    RandomVectors,
    load_vector_file,
    parse_timing_token,
)
from .batch.vectors import with_default_slope
from .core.models import (
    LumpedRCModel,
    RCTreeModel,
    SlopeModel,
    characterize_technology,
    fit_technology,
)
from .core.models.characterize import table_summary
from .core.timing import (
    TimingAnalyzer,
    arrival_table,
    format_critical_path,
    format_worst_paths,
)
from .errors import ReproError
from .netlist import Network, sim_format
from .switchlevel import Logic
from .tech import TECHNOLOGIES, Technology, Transition, save_technology
from .units import parse_value

MODELS = {
    "lumped-rc": LumpedRCModel,
    "rc-tree": RCTreeModel,
    "slope": SlopeModel,
}


def _tech(name: str, characterized: bool) -> Technology:
    try:
        base = TECHNOLOGIES[name]
    except KeyError:
        raise ReproError(
            f"unknown technology {name!r}; choose from "
            f"{', '.join(sorted(TECHNOLOGIES))}"
        ) from None
    return characterize_technology(base) if characterized else base


def _load(path: str, tech: Technology) -> Network:
    if path.endswith((".sp", ".spi", ".spice", ".cir")):
        from .netlist import spice_format

        network, _ = spice_format.load(path, tech)
        return network
    return sim_format.load(path, tech)


def _parse_timing_input(token: str) -> tuple:
    """``name=TIME``, ``name=TIME:rise``, ``name=TIME:fall`` or ``name=-``.

    Shared with the vector-file format — see
    :func:`repro.batch.parse_timing_token`.
    """
    return parse_timing_token(token)


def _input_specs(args: argparse.Namespace, slope: float) -> dict:
    """The ``--input`` tokens as ``{node: InputSpec}``; a node given
    twice is an error, as in a vector file."""
    inputs = {}
    for token in args.input or []:
        name, spec = _parse_timing_input(token)
        if name in inputs:
            raise ReproError(f"duplicate node {name!r} in --input")
        inputs[name] = with_default_slope(spec, slope)
    return inputs


def _parse_set(token: str) -> tuple:
    if "=" not in token:
        raise ReproError(f"bad --set {token!r}; expected name=0|1|x")
    name, value = token.split("=", 1)
    mapping = {"0": Logic.ZERO, "1": Logic.ONE, "x": Logic.X, "X": Logic.X}
    try:
        return name, mapping[value.strip()]
    except KeyError:
        raise ReproError(f"bad logic value {value!r} in --set") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    from .netlist.validate import validate_network

    tech = _tech(args.tech, characterized=False)
    network = _load(args.netlist, tech)
    print(network.summary())
    findings = validate_network(network)
    if not findings:
        print("validation: clean")
        return 0
    for finding in findings:
        print(finding)
    errors = [f for f in findings if f.severity.value == "error"]
    return 1 if errors else 0


def cmd_switch(args: argparse.Namespace) -> int:
    from .switchlevel.simulator import SwitchSimulator

    tech = _tech(args.tech, characterized=False)
    network = _load(args.netlist, tech)
    sim = SwitchSimulator(network)
    for token in args.set or []:
        name, value = _parse_set(token)
        sim.set_input(name, value)
    sim.settle()
    names = args.show or sorted(
        n.name for n in network.signal_nodes)
    for name in names:
        print(f"{name} = {sim.value(name)}")
    return 0


def _slope_arg(args: argparse.Namespace) -> float:
    """The ``--slope`` value in seconds (0 when absent); negative slopes
    are rejected rather than silently ignored."""
    slope = parse_value(args.slope) if args.slope else 0.0
    if slope < 0.0:
        raise ReproError(f"--slope must not be negative, got {args.slope}")
    return slope


def _check_count(count: int) -> None:
    if count < 0:
        raise ReproError(f"--count must not be negative, got {count}")


@contextlib.contextmanager
def _traced_run(args: argparse.Namespace):
    """Install a run tracer when ``--trace``/``--trace-summary`` ask for
    one, and flush it in the ``finally`` — an aborted run still writes
    the partial trace collected up to the failure (DESIGN.md §7)."""
    if not (args.trace or args.trace_summary):
        yield None
        return
    from .trace import spans as trace_spans
    from .trace.export import format_trace_summary, write_chrome_trace

    tracer = trace_spans.Tracer()
    trace_spans.install(tracer)
    try:
        yield tracer
    finally:
        trace_spans.uninstall()
        if args.trace:
            count = write_chrome_trace(tracer, args.trace)
            print(f"trace: {count} event(s) written to {args.trace}")
        if args.trace_summary:
            print(format_trace_summary(tracer.records))
            print()


def cmd_timing(args: argparse.Namespace) -> int:
    slope = _slope_arg(args)
    _check_count(args.count)
    tech = _tech(args.tech, characterized=not args.no_characterize)
    network = _load(args.netlist, tech)
    model = MODELS[args.model]()
    inputs = _input_specs(args, slope)
    analyzer = TimingAnalyzer(network, model=model)
    result = None
    try:
        with _traced_run(args):
            result = analyzer.analyze(inputs)
    finally:
        # An aborted analysis (timing loop, bad input) still merged
        # its run counters into the analyzer's cumulative set — flush
        # them so --profile shows how far the run got.
        if args.profile and result is None:
            print(analyzer.perf.format_table("analysis perf counters "
                                             "(partial: run aborted)"))
            print()

    if args.profile and result.perf is not None:
        print(result.perf.format_table("analysis perf counters"))
        print()

    if args.report:
        for node in args.report:
            for transition in Transition:
                if result.has_arrival(node, transition):
                    print(format_critical_path(result, node, transition))
                    print()
    else:
        print(format_worst_paths(result, count=args.count))
        print()
        print(arrival_table(result))
    return 0


def _sweep_source(args: argparse.Namespace, network: Network, slope: float):
    """Build the vector source from the mutually exclusive sweep flags."""
    chosen = [flag for flag, given in (
        ("--vectors", args.vectors),
        ("--sweep", args.sweep),
        ("--random", args.random is not None),
    ) if given]
    if len(chosen) != 1:
        raise ReproError(
            "sweep needs exactly one vector source: a --vectors file, "
            "one or more --sweep axes, or --random N"
        )
    if args.vectors:
        return load_vector_file(args.vectors, default_slope=slope)
    base = _input_specs(args, slope)
    if args.sweep:
        axes = {}
        for token in args.sweep:
            if "=" not in token:
                raise ReproError(
                    f"bad --sweep {token!r}; expected name=T1,T2,…")
            name, values = token.split("=", 1)
            if name in axes:
                raise ReproError(f"duplicate --sweep axis {name!r}")
            specs = []
            for value in values.split(","):
                _, spec = _parse_timing_input(f"{name}={value.strip()}")
                specs.append(with_default_slope(spec, slope))
            axes[name] = specs
        return CartesianSweep(base=base, axes=axes)
    free = [n.name for n in network.inputs() if n.name not in base]
    if not free:
        raise ReproError("--random has no free inputs to randomize "
                         "(every primary input is pinned by --input)")
    span = parse_value(args.span) if args.span else 1e-9
    source = RandomVectors(input_names=free, count=args.random,
                           seed=args.seed, span=span, slope=slope)
    if not base:
        return source
    return ([type(v)(label=v.label, inputs={**base, **v.inputs})
             for v in source])


def cmd_sweep(args: argparse.Namespace) -> int:
    from .batch.report import format_sweep_profile, format_sweep_summary
    from .batch.sweep import run_sweep

    slope = _slope_arg(args)
    _check_count(args.count)
    tech = _tech(args.tech, characterized=not args.no_characterize)
    network = _load(args.netlist, tech)
    model = MODELS[args.model]()
    source = _sweep_source(args, network, slope)
    analyzer = TimingAnalyzer(network, model=model)
    sweep = None
    try:
        with _traced_run(args):
            sweep = run_sweep(network, source, watch=args.watch,
                              analyzer=analyzer, delta=args.delta,
                              order=args.order)
    finally:
        # Scenarios analyzed before an abort already merged their run
        # counters into the analyzer's cumulative set — flush them.
        if args.profile and sweep is None:
            print(analyzer.perf.format_table("sweep perf counters "
                                             "(partial: run aborted)"))
            print()
    if args.profile:
        print(format_sweep_profile(sweep))
        print()
    print(format_sweep_summary(sweep, count=args.count,
                               critical_path=not args.no_critical_path))
    return 0


def cmd_hazards(args: argparse.Namespace) -> int:
    from .core.timing.hazards import (find_charge_sharing_hazards,
                                      format_hazard_report)

    tech = _tech(args.tech, characterized=False)
    network = _load(args.netlist, tech)
    states = dict(_parse_set(t) for t in args.set or []) or None
    hazards = find_charge_sharing_hazards(network, states,
                                          threshold=args.threshold)
    print(format_hazard_report(hazards))
    return 1 if hazards and args.strict else 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .perf import PerfCounters
    from .verify import (ConformanceConfig, ConformanceRunner,
                         format_verify_report, parse_modes, replay_reproducer)
    from .verify.modes import REFERENCE

    tech = _tech(args.tech, characterized=False)
    perf = PerfCounters()
    completed = False
    try:
        with _traced_run(args):
            if args.replay:
                case, findings, manifest = replay_reproducer(
                    args.replay, tech, perf)
                expected = len(manifest.get("discrepancies", []))
                print(f"replay {case.name}: {len(findings)} "
                      f"discrepancy(ies) (manifest recorded {expected})")
                for finding in findings:
                    print(f"  {finding}")
                completed = True
                if args.profile:
                    print()
                    print(perf.format_table("verify perf counters"))
                return 1 if findings else 0

            if args.cases < 1:
                raise ReproError(
                    f"--cases must be at least 1, got {args.cases}")
            modes = parse_modes(args.modes)
            if args.no_invariants and set(modes) == {REFERENCE}:
                # Every mode is compared against the reference, so the
                # reference alone compares nothing; only the invariants
                # could check it.
                raise ReproError(
                    "--modes reference with --no-invariants checks "
                    "nothing: add a mode to compare or drop "
                    "--no-invariants")
            config = ConformanceConfig(
                tech=tech, tech_name=args.tech, model_name=args.model,
                seed=args.seed, cases=args.cases, max_size=args.max_size,
                vectors_per_case=args.vectors, modes=modes,
                invariants=not args.no_invariants, shrink=not args.no_shrink,
                out_dir=args.out)
            report = ConformanceRunner(config, perf=perf).run()
            print(format_verify_report(report, modes))
            completed = True
            if args.profile:
                print()
                print(perf.format_table("verify perf counters"))
            return 0 if report.ok else 1
    finally:
        # Cases checked before an abort already counted — flush them.
        if args.profile and not completed:
            print(perf.format_table("verify perf counters "
                                    "(partial: run aborted)"))
            print()


def cmd_serve(args: argparse.Namespace) -> int:
    from .service.daemon import ServiceConfig, serve

    if args.pool_size < 1:
        raise ReproError(f"--pool-size must be at least 1, "
                         f"got {args.pool_size}")
    if args.queue_limit < 1:
        raise ReproError(f"--queue-limit must be at least 1, "
                         f"got {args.queue_limit}")
    if not (math.isfinite(args.timeout) and args.timeout > 0):
        raise ReproError(f"--timeout must be a positive number of seconds, "
                         f"got {args.timeout}")
    if not 0 <= args.port <= 65535:
        raise ReproError(f"--port must be in 0..65535, got {args.port}")
    return serve(ServiceConfig(
        host=args.host, port=args.port, pool_size=args.pool_size,
        queue_limit=args.queue_limit, timeout=args.timeout,
        trace=args.trace))


def cmd_characterize(args: argparse.Namespace) -> int:
    base = _tech(args.tech, characterized=False)
    if args.output:
        open(args.output, "w").close()  # refuse a bad path before the fit
    tech = fit_technology(base)
    print(table_summary(tech))
    if args.output:
        save_technology(tech, args.output)
        print(f"technology written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-crystal",
        description="Switch-level delay analysis (Ousterhout, DAC 1984)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, netlist=True):
        if netlist:
            p.add_argument("netlist", help=".sim or SPICE-subset file")
        p.add_argument("--tech", default="cmos3",
                       choices=sorted(TECHNOLOGIES),
                       help="technology (default: cmos3)")

    def add_tracing(p):
        p.add_argument("--trace", metavar="FILE",
                       help="write a Chrome trace_event JSON of the run "
                            "(open in chrome://tracing or "
                            "ui.perfetto.dev)")
        p.add_argument("--trace-summary", action="store_true",
                       help="print the flat per-span time table "
                            "(count, total, self) after the run")

    p = sub.add_parser("validate", help="netlist sanity checks")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("switch", help="switch-level steady state")
    add_common(p)
    p.add_argument("--set", action="append", metavar="NODE=0|1|x",
                   help="force an input (repeatable)")
    p.add_argument("--show", action="append", metavar="NODE",
                   help="nodes to print (default: all signals)")
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("timing", help="static timing analysis")
    add_common(p)
    p.add_argument("--input", action="append", metavar="NODE=TIME[r|f]|-",
                   help="primary input timing (repeatable)")
    p.add_argument("--model", default="slope", choices=sorted(MODELS))
    p.add_argument("--slope", metavar="TIME",
                   help="input transition time (e.g. 500p)")
    p.add_argument("--report", action="append", metavar="NODE",
                   help="print the critical path to NODE")
    p.add_argument("--count", type=int, default=5,
                   help="worst arrivals to list (default 5)")
    p.add_argument("--no-characterize", action="store_true",
                   help="use analytic default tables (fast, less accurate)")
    p.add_argument("--profile", action="store_true",
                   help="print engine perf counters (stage visits, model "
                        "evaluations, cache hits, worklist traffic)")
    add_tracing(p)
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser(
        "sweep", help="batch scenario sweep through one shared analyzer")
    add_common(p)
    p.add_argument("--vectors", metavar="FILE",
                   help="vector file: one scenario per line of NODE=TIME "
                        "tokens (optional leading @label)")
    p.add_argument("--input", action="append", metavar="NODE=TIME[r|f]|-",
                   help="base input timing for --sweep/--random "
                        "(repeatable)")
    p.add_argument("--sweep", action="append", metavar="NODE=T1,T2,…",
                   help="cartesian axis: sweep NODE over the listed times "
                        "(repeatable; crossed with other axes)")
    p.add_argument("--random", type=int, metavar="N",
                   help="N seeded-random vectors over the unpinned inputs")
    p.add_argument("--seed", type=int, default=0,
                   help="random-vector seed (default 0)")
    p.add_argument("--span", metavar="TIME", default="1n",
                   help="random arrival window [0, SPAN] (default 1n)")
    p.add_argument("--model", default="slope", choices=sorted(MODELS))
    p.add_argument("--slope", metavar="TIME",
                   help="input transition time applied to every vector")
    p.add_argument("--watch", action="append", metavar="NODE",
                   help="rank scenarios by these nodes only (repeatable)")
    p.add_argument("--count", type=int, default=20,
                   help="scenarios listed in the summary table (default 20)")
    p.add_argument("--no-critical-path", action="store_true",
                   help="skip the worst vector's critical-path report")
    p.add_argument("--no-characterize", action="store_true",
                   help="use analytic default tables (fast, less accurate)")
    p.add_argument("--profile", action="store_true",
                   help="print per-scenario and batch perf counters "
                        "(cross-scenario cache hit rate)")
    p.add_argument("--delta", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="dirty-cone delta re-analysis between consecutive "
                        "vectors (default on; results are bit-identical, "
                        "--no-delta re-analyzes every vector from scratch)")
    p.add_argument("--order", default="given", choices=VECTOR_ORDERS,
                   help="analysis order: given (source order), gray "
                        "(cartesian Gray code, minimal input deltas), or "
                        "greedy (nearest-neighbour Hamming); reports stay "
                        "in source order (default: given)")
    add_tracing(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hazards", help="charge-sharing hazard scan")
    add_common(p)
    p.add_argument("--set", action="append", metavar="NODE=0|1|x")
    p.add_argument("--threshold", type=float, default=0.25,
                   help="minimum level loss reported (default 0.25)")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when hazards are found")
    p.set_defaults(func=cmd_hazards)

    p = sub.add_parser(
        "verify",
        help="cross-engine conformance: differential fuzzing over "
             "generated netlists, metamorphic invariants, failure "
             "shrinking")
    add_common(p, netlist=False)
    p.add_argument("--seed", type=int, default=0,
                   help="case-stream seed (default 0)")
    p.add_argument("--cases", type=int, default=20, metavar="N",
                   help="generated conformance cases (default 20)")
    p.add_argument("--modes", metavar="M1,M2,…",
                   help="engine modes to cross-check (default: all); see "
                        "DESIGN.md §6 for the matrix")
    p.add_argument("--max-size", type=int, default=24, metavar="N",
                   help="max transistors per generated case (default 24)")
    p.add_argument("--vectors", type=int, default=4, metavar="N",
                   help="input vectors per case (default 4)")
    p.add_argument("--model", default="rc-tree", choices=sorted(MODELS),
                   help="delay model under test (default rc-tree)")
    p.add_argument("--no-invariants", action="store_true",
                   help="skip the metamorphic invariant checks")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without delta-debugging them")
    p.add_argument("--out", metavar="DIR",
                   help="write .sim/.vec/manifest reproducers for failing "
                        "cases into DIR")
    p.add_argument("--replay", metavar="MANIFEST.json",
                   help="re-run a previously emitted reproducer instead "
                        "of generating cases")
    p.add_argument("--profile", action="store_true",
                   help="print verify_* perf counters")
    add_tracing(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "serve",
        help="JSON-over-HTTP timing daemon: warm analyzer pool keyed by "
             "netlist content hash, cross-request delta coalescing "
             "(DESIGN.md §10)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8351,
                   help="TCP port; 0 picks a free one and prints it "
                        "(default 8351)")
    p.add_argument("--pool-size", type=int, default=4, metavar="N",
                   help="warm analyzers kept (LRU beyond this; default 4)")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="pending requests before 429 rejection "
                        "(default 64)")
    p.add_argument("--timeout", type=float, default=30.0, metavar="SECONDS",
                   help="per-request analysis timeout → 504 (default 30)")
    p.add_argument("--trace", metavar="FILE",
                   help="write the whole serving session as Chrome "
                        "trace_event JSON at shutdown (request spans "
                        "nest batch and engine spans)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("characterize",
                       help="re-fit a technology against the analog "
                            "reference; -o writes its full JSON")
    add_common(p, netlist=False)
    p.add_argument("--output", "-o", metavar="FILE.json")
    p.set_defaults(func=cmd_characterize)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, dispatch, and turn engine failures into exit 2.

    Every subcommand funnels through this one handler: a
    :class:`ReproError` of any flavour (parse, timing, sweep, trace,
    service) or an :class:`OSError` that escaped the engine layers
    (unwritable ``--output``/``--trace`` targets, unreadable inputs)
    becomes a one-line ``error: …`` diagnostic on stderr and exit code
    2 — never a raw traceback.  So does a subcommand that simulates
    (``characterize``, ``verify``) run where numpy is not installed.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy, which is not installed",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

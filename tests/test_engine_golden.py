"""Ordered-result golden: every arrival, in the order a result yields it.

``TimingResult.arrivals`` iterates in the order the engine committed
its events.  The reports do not lean on that order
(:meth:`TimingResult.worst` and :func:`~repro.core.timing.worst_events`
break time ties by event id), and the differential tests compare
arrivals as sets, so nothing else pins it.  This test does, together with every field a
reader sees: for each case it hashes one line per arrival,
``node edge time.hex() slope.hex() cause path mechanism``, taken over
``result.arrivals`` in iteration order, and compares the sha256 and the
line count with ``tests/goldens/engine_results.json``.  A second digest,
``sorted_sha256``, hashes the same lines sorted within each result
(each ``vector N`` block of a sweep), so it pins what the results hold
but not the order they yield it in: a change that moves only the order
moves ``sha256`` and keeps ``sorted_sha256``.  A third,
``times_sha256``, hashes only ``node edge time.hex() slope.hex()``,
sorted within each result the same way: it pins the times and slopes
and ignores the causes, so a change that moves only the cause of an
exactly tied arrival keeps it.

The cases cover a cold analysis with little sharing (dec5), one with
switch-level states (rca8), a large shipped example and a Gray-ordered
delta sweep, whose results start from the previous vector's arrivals.

After an *intentional* engine change, regenerate every case, or only
the named ones, with::

    PYTHONPATH=src:. python tests/test_engine_golden.py --regenerate [CASE ...]
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.batch import CartesianSweep, order_vectors
from repro.circuits import adder_input_names, decoder, ripple_carry_adder
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.core.timing.stage_iso import stage_signature
from repro.netlist import Network, sim_format
from repro.switchlevel import Logic, SwitchSimulator
from repro.tech import CMOS3, DeviceKind, Transition

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN_FILE = pathlib.Path(__file__).parent / "goldens" / "engine_results.json"


def _input_names(network):
    return sorted(node.name for node in network.inputs())


def _seeded_vector(network, seed=0):
    rng = random.Random(seed)
    vector = {}
    for name in _input_names(network):
        arrival = rng.choice((0.0, 0.2e-9, 0.5e-9))
        vector[name] = InputSpec(arrival, arrival, 0.3e-9)
    return vector


def _seeded_states(network, seed=0):
    rng = random.Random(seed)
    sim = SwitchSimulator(network)
    sim.set_vector({name: rng.choice((Logic.ZERO, Logic.ONE))
                    for name in _input_names(network)})
    sim.settle()
    return sim.values()


def _lines(result):
    for event, arrival in result.arrivals.items():
        path, trigger = arrival.path, arrival.trigger
        yield " ".join((
            event.node, event.transition.value, arrival.time.hex(),
            arrival.slope.hex(), str(arrival.cause),
            path.describe() if path is not None else "-",
            trigger.mechanism if trigger is not None else "-"))


def _cold(build, states=False):
    def lines():
        network = build()
        analyzer = TimingAnalyzer(
            network, states=_seeded_states(network) if states else None)
        return list(_lines(analyzer.analyze(_seeded_vector(network))))
    return lines


def gray_sweep():
    """rca8 and the inputs of a 16-vector sweep on four axes, in Gray
    order."""
    network = ripple_carry_adder(CMOS3, 8)
    source = CartesianSweep(
        base={name: InputSpec(0.0, 0.0, 0.3e-9)
              for name in adder_input_names(8)},
        axes={name: [InputSpec(0.0, 0.0, 0.3e-9),
                     InputSpec(0.5e-9, 0.5e-9, 0.3e-9)]
              for name in ("cin", "a2", "b5", "a7")})
    vectors = list(source)
    return network, [vectors[position].inputs
                     for position in order_vectors(vectors, "gray", source)]


def _gray_delta_sweep():
    network, ordered = gray_sweep()
    lines = []
    results = TimingAnalyzer(network).analyze_many(ordered, delta=True)
    for position, result in enumerate(results):
        lines.append(f"vector {position}")
        lines.extend(_lines(result))
    return lines


CASES = {
    "dec5_cold": _cold(lambda: decoder(CMOS3, 5)),
    "rca8_states": _cold(lambda: ripple_carry_adder(CMOS3, 8), states=True),
    "datapath_example": _cold(
        lambda: sim_format.load(str(ROOT / "examples" / "datapath.sim"),
                                CMOS3)),
    "rca8_gray_delta_sweep": _gray_delta_sweep,
}


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sorted_blocks(lines):
    """*lines* sorted within each result; a sweep's ``vector N`` lines
    stay in place and separate its results."""
    ordered, block = [], []
    for line in lines:
        if line.startswith("vector "):
            ordered += sorted(block) + [line]
            block = []
        else:
            block.append(line)
    return ordered + sorted(block)


def _times(lines):
    """*lines* cut to ``node edge time slope``: the cause, path and
    mechanism dropped."""
    return [line if line.startswith("vector ")
            else " ".join(line.split(" ", 4)[:4]) for line in lines]


def _summary(lines):
    return {"sha256": _sha256(lines),
            "sorted_sha256": _sha256(_sorted_blocks(lines)),
            "times_sha256": _sha256(_sorted_blocks(_times(lines))),
            "lines": len(lines)}


@pytest.fixture(scope="module")
def goldens():
    assert GOLDEN_FILE.exists(), (
        f"{GOLDEN_FILE} missing — regenerate with PYTHONPATH=src:. python "
        "tests/test_engine_golden.py --regenerate")
    return json.loads(GOLDEN_FILE.read_text())["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_ordered_results_match_golden(name, goldens):
    summary, golden = _summary(CASES[name]()), goldens[name]
    if summary["sorted_sha256"] == golden["sorted_sha256"]:
        moved = "only their order"
    elif summary["times_sha256"] == golden["times_sha256"]:
        moved = "only the causes (times and slopes held)"
    else:
        moved = "the times or slopes"
    assert summary == golden, (
        f"{name}: {moved} moved; if the change is intentional, regenerate "
        f"this case with tests/test_engine_golden.py --regenerate {name}")


def test_stage_events_commit_in_name_order():
    """A stage commits its targets in its own node-name order, even when
    its representative's names sort the other way: the NAND2s below are
    one isomorphism class whose output and series node swap order."""
    net = Network(CMOS3)
    for out, mid in (("p", "q"), ("s", "r")):
        net.add_transistor(DeviceKind.NMOS_ENH, "a", mid, out)
        net.add_transistor(DeviceKind.NMOS_ENH, "b", "gnd", mid)
        net.add_transistor(DeviceKind.PMOS, "a", "vdd", out)
        net.add_transistor(DeviceKind.PMOS, "b", "vdd", out)
    net.mark_input("a", "b")
    first, second = TimingAnalyzer(net).graph.stages
    assert (stage_signature(net, first)[0]
            == stage_signature(net, second)[0])
    result = TimingAnalyzer(net).analyze({"a": 0.0, "b": 0.0})
    order = [(event.node, list(Transition).index(event.transition))
             for event in result.arrivals if event.node in "pqrs"]
    assert [node for node, _ in order[:4]] == ["p", "p", "q", "q"]
    assert order[4:] == sorted(order[4:])
    assert {node for node, _ in order[4:]} == {"r", "s"}


def regenerate(names=()) -> None:  # pragma: no cover - maintenance entry
    """Rewrite the named cases' entries (every case when none is named)
    and keep the others as they are."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s) {', '.join(unknown)}; choose "
                         f"from {', '.join(sorted(CASES))}")
    names = list(names) or sorted(CASES)
    cases = (json.loads(GOLDEN_FILE.read_text())["cases"]
             if GOLDEN_FILE.exists() else {})
    cases.update((name, _summary(CASES[name]())) for name in names)
    payload = {
        "comment": "sha256 and line count of every arrival in iteration "
                   "order, sorted_sha256 over the lines sorted within "
                   "each result, and times_sha256 over the sorted lines "
                   "cut to node, edge, time and slope. Regenerate: "
                   "PYTHONPATH=src:. python tests/test_engine_golden.py "
                   "--regenerate [CASE ...]",
        "cases": dict(sorted(cases.items())),
    }
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN_FILE}")
    for name in names:
        row = cases[name]
        print(f"  {name:<22} {row['lines']:>5} lines  {row['sha256'][:16]}"
              f"  sorted {row['sorted_sha256'][:16]}"
              f"  times {row['times_sha256'][:16]}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regenerate" in sys.argv:
        regenerate(sys.argv[sys.argv.index("--regenerate") + 1:])
    else:
        print(__doc__)

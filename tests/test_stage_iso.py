"""Isomorphism oracle for structural stage sharing.

The analyzer enumerates paths and compiles RC-tree templates only for
the representative (lowest-index stage) of each signature class; every
other member reads the representative's results under the signature's
name correspondence.  That is exact only if equal signatures really mean
equal derivations, and every engine mode shares the same classes, so the
conformance matrix cannot catch an unsound signature.  These tests derive
each shared stage's paths and templates on the stage itself and compare.
"""

import pathlib
import random

import pytest

from repro.circuits import decoder, inverter_chain, ripple_carry_adder
from repro.core.models import characterize_technology
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.core.timing.paths import compile_template, enumerate_paths
from repro.core.timing.stage_iso import stage_signature, translate_path
from repro.netlist import sim_format
from repro.switchlevel import Logic, SwitchSimulator
from repro.tech import CMOS3, NMOS4, Transition
from repro.verify.generate import generate_case

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

CIRCUITS = {
    "dec5": lambda: decoder(CMOS3, 5),
    "rca8": lambda: ripple_carry_adder(CMOS3, 8),
}


def _input_names(network):
    return sorted(node.name for node in network.inputs())


def _seeded_states(network, seed=0):
    """Settled switch-level states under one seeded input vector."""
    rng = random.Random(seed)
    sim = SwitchSimulator(network)
    sim.set_vector({name: rng.choice((Logic.ZERO, Logic.ONE))
                    for name in _input_names(network)})
    sim.settle()
    return sim.values()


def _seeded_vector(network, seed=0):
    rng = random.Random(seed)
    vector = {}
    for name in _input_names(network):
        arrival = rng.choice((0.0, 0.2e-9, 0.5e-9))
        vector[name] = InputSpec(arrival, arrival, 0.3e-9)
    return vector


def _bits(values):
    return [value.hex() for value in values]


def _check_shared_stages(network, states):
    """Check every non-representative stage against its own derivations;
    returns how many stages were checked."""
    analyzer = TimingAnalyzer(network, states=states)
    checked = 0
    for stage in analyzer.graph.stages:
        member = analyzer._member(stage)
        iso = member.iso
        if iso is None:
            continue
        rep = member.program.rep
        inverse = {mine: theirs for theirs, mine in iso[0].items()}
        checked += 1
        for node in sorted(stage.internal_nodes):
            for transition in Transition:
                where = (stage.index, node, transition)
                rep_paths = enumerate_paths(network, rep, inverse[node],
                                            transition, states)
                own = enumerate_paths(network, stage, node, transition,
                                      states)
                assert [translate_path(path, *iso)
                        for path in rep_paths] == own, where
                for rep_path, path in zip(rep_paths, own):
                    mine = compile_template(network, stage, path, states)
                    theirs = compile_template(network, rep, rep_path,
                                              states)
                    assert mine.parent == theirs.parent, where
                    assert _bits(mine.r) == _bits(theirs.r), where
                    assert _bits(mine.c) == _bits(theirs.c), where
    return checked


@pytest.mark.parametrize("seeded", [False, True], ids=["no-states",
                                                      "seeded-states"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_shared_stages_match_their_own_derivations(name, seeded):
    network = CIRCUITS[name]()
    states = _seeded_states(network) if seeded else None
    assert _check_shared_stages(network, states) > 0


def test_datapath_example_shared_stages():
    network = sim_format.load(str(EXAMPLES / "datapath.sim"), CMOS3)
    assert _check_shared_stages(network, None) > 0


def test_generated_cases_shared_stages():
    checked = sum(
        _check_shared_stages(generate_case(CMOS3, 0, index).network, None)
        for index in range(20))
    assert checked > 0


@pytest.mark.parametrize("seeded", [False, True], ids=["no-states",
                                                      "seeded-states"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_arrival_causes_match_own_enumeration(name, seeded):
    """An arrival's path and trigger, resolved from its (table, rank)
    link, are the winning rank of the stage's own enumeration."""
    network = CIRCUITS[name]()
    states = _seeded_states(network) if seeded else None
    analyzer = TimingAnalyzer(network, states=states)
    vector = _seeded_vector(network)
    result = analyzer.analyze(vector)
    # Equality compares what a reader sees, not the link, so another
    # analyzer's arrivals (other tables, same answers) compare equal.
    again = TimingAnalyzer(network, states=states).analyze(vector)
    assert again.arrivals == result.arrivals
    by_node = analyzer.graph.stage_map.by_node
    computed = [(event, arrival) for event, arrival in result.arrivals.items()
                if not arrival.is_primary]
    assert computed
    for event, arrival in computed:
        candidates = [
            (path, trigger)
            for path in enumerate_paths(network, by_node[event.node],
                                        event.node, event.transition, states)
            for trigger in path.triggers]
        _, rank = arrival.link
        assert (arrival.path, arrival.trigger) == candidates[rank], event


def test_dec5_shares_one_class_per_gate_shape():
    # The 32 NAND5s differ only in whether each gate is an address bit
    # or its complement, which no derivation reads: they form one class.
    # Their devices are scanned in insertion order, so a NAND5 whose
    # device names cross a digit boundary does not split off: three
    # classes, the address inverters, the NAND5s and the output
    # inverters.
    network = decoder(CMOS3, 5)
    analyzer = TimingAnalyzer(network)
    signatures = {stage_signature(network, stage)[0]
                  for stage in analyzer.graph.stages}
    assert len(signatures) == 3
    result = analyzer.analyze(_seeded_vector(network))
    assert result.perf.get("path_enumerations") == 14
    assert result.perf.get("tree_template_misses") == 34


@pytest.mark.parametrize("build, counts", [
    (lambda: ripple_carry_adder(CMOS3, 32),
     (352, 16, 5984, 711, 24, 298, 2133)),
    (lambda: decoder(CMOS3, 5), (69, 14, 7434, 134, 34, 28, 780)),
    (lambda: ripple_carry_adder(characterize_technology(CMOS3), 32),
     (352, 16, 5984, 612, 24, 257, 1836)),
], ids=["rca32", "dec5", "rca32-characterized"])
def test_cold_analysis_counters_pinned(build, counts):
    """Exact work of one cold analysis with every input at 0, on analytic
    CMOS3 and on the shipped characterized CMOS3: a change to sharing,
    enumeration, templates or batching moves one of these."""
    network = build()
    result = TimingAnalyzer(network).analyze(
        {node: 0.0 for node in _input_names(network)})
    assert tuple(result.perf.get(counter) for counter in (
        "stage_visits", "path_enumerations", "candidates", "model_evals",
        "tree_template_misses", "kernel_batches", "kernel_nodes")) == counts


#: Every counter one cold analysis reports, per case of the pin above:
#: the worklist, candidate-loop and memo counters that pin does not
#: name, and that the suite's ``models.memo_hit_rate`` and
#: ``timing.stale_pop_rate`` read, are pinned here with the rest.  The
#: nMOS chain adds the depletion-load stages the CMOS cases lack.
_COLD_COUNTERS = {
    "rca32": {
        "arrival_updates": 1408, "candidates": 5984, "kernel_batches": 298,
        "kernel_nodes": 2133, "model_cache_hits": 5273,
        "model_cache_misses": 711, "model_evals": 711,
        "path_enumerations": 16, "stage_visits": 352,
        "tree_template_hits": 687,
        "tree_template_misses": 24, "worklist_pushes": 384,
        "worklist_stale_pops": 32},
    "dec5": {
        "arrival_updates": 394, "candidates": 7434, "kernel_batches": 28,
        "kernel_nodes": 780, "model_cache_hits": 7300,
        "model_cache_misses": 134, "model_evals": 134,
        "path_enumerations": 14, "stage_visits": 69,
        "tree_template_hits": 100,
        "tree_template_misses": 34, "worklist_pushes": 70,
        "worklist_stale_pops": 1},
    "rca32-characterized": {
        "arrival_updates": 1408, "candidates": 5984, "kernel_batches": 257,
        "kernel_nodes": 1836, "model_cache_hits": 5372,
        "model_cache_misses": 612, "model_evals": 612,
        "path_enumerations": 16, "stage_visits": 352,
        "tree_template_hits": 588,
        "tree_template_misses": 24, "worklist_pushes": 384,
        "worklist_stale_pops": 32},
    "nmos-chain4": {
        "arrival_updates": 8, "candidates": 8, "kernel_batches": 8,
        "kernel_nodes": 16, "model_cache_misses": 8, "model_evals": 8,
        "path_enumerations": 4, "stage_visits": 4,
        "tree_template_hits": 4, "tree_template_misses": 4,
        "worklist_pushes": 6, "worklist_stale_pops": 2},
}


@pytest.mark.parametrize("case, build", [
    ("rca32", lambda: ripple_carry_adder(CMOS3, 32)),
    ("dec5", lambda: decoder(CMOS3, 5)),
    ("rca32-characterized",
     lambda: ripple_carry_adder(characterize_technology(CMOS3), 32)),
    ("nmos-chain4", lambda: inverter_chain(NMOS4, 4)),
], ids=["rca32", "dec5", "rca32-characterized", "nmos-chain4"])
def test_cold_analysis_counter_dicts_pinned(case, build):
    """The whole counter dict of the same cold analyses, keys included:
    a counter that appears, vanishes or moves is different work."""
    network = build()
    result = TimingAnalyzer(network).analyze(
        {node: 0.0 for node in _input_names(network)})
    assert result.perf.counters == _COLD_COUNTERS[case]

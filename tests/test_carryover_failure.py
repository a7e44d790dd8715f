"""Failure-path regression tests for the delta-carryover state.

A propagation that raises mid-run must leave the analyzer in a state
where the *next* ``analyze_delta()`` is still bit-identical to a cold
``analyze()`` on a fresh analyzer.  The engine guarantees this by
invalidating ``_carryover`` whenever ``analyze()`` or ``analyze_delta()``
raises (see ``TimingAnalyzer.analyze``): a failed run's carryover
provenance is ambiguous, so the next delta run cold-starts.

These tests inject an exception *mid-propagation* — after some stages
have already been evaluated and committed into the run's arrival dict —
and then diff every arrival of the subsequent delta run against a fresh
analyzer, exactly (``==`` on times and slopes, not approx).

A completed run's result reads the very dict the next delta run starts
from, so the last test checks that a result cannot write to it.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.timing import TimingAnalyzer, format_critical_path
from repro.core.timing.analyzer import Event, InputSpec
from repro.tech import Transition

BITS = 4


def _vector(late_names, late=0.4e-9, slope=0.2e-9):
    inputs = {}
    for name in adder_input_names(BITS):
        time = late if name in late_names else 0.0
        inputs[name] = InputSpec(arrival_rise=time, arrival_fall=time,
                                 slope=slope)
    return inputs


def _assert_identical(result, reference):
    assert set(result.arrivals) == set(reference.arrivals)
    for event, arrival in result.arrivals.items():
        ref = reference.arrivals[event]
        assert arrival.time == ref.time, event
        assert arrival.slope == ref.slope, event


class _BoomState:
    __slots__ = ("calls", "armed", "healthy")

    def __init__(self, healthy):
        self.calls = 0
        self.armed = False
        self.healthy = healthy


def _mid_propagation_boom(healthy=3):
    """A patchable ``_evaluate_full`` that raises after *healthy* armed
    calls — by then the run has committed arrivals for several stages, so
    the failure happens with genuinely partial run state in flight."""
    real = TimingAnalyzer._evaluate_full
    state = _BoomState(healthy)

    def boom(analyzer, stage, arrivals, ranks):
        if state.armed:
            state.calls += 1
            if state.calls > state.healthy:
                raise RuntimeError("injected mid-propagation failure")
        return real(analyzer, stage, arrivals, ranks)

    return boom, state


def _cached_groups(analyzer):
    """Path enumerations cached in the class programs."""
    return sum(len(program.groups) for program in analyzer._programs)


def _cached_answers(analyzer):
    """Stage delays cached in the delay memo, over all its rows."""
    return sum(len(row) for row in analyzer._memo_rows)


@pytest.fixture
def network(cmos):
    return ripple_carry_adder(cmos, BITS)


def test_delta_after_failed_analyze_matches_cold(network):
    analyzer = TimingAnalyzer(network)
    analyzer.analyze(_vector({"a0"}))

    boom, state = _mid_propagation_boom()
    with mock.patch.object(TimingAnalyzer, "_evaluate_full", boom):
        state.armed = True
        with pytest.raises(RuntimeError):
            analyzer.analyze(_vector({"b1", "a2"}))
        state.armed = False

        assert state.calls > 1  # the failure really was mid-propagation

        follow_up = _vector({"a3"})
        result = analyzer.analyze_delta(follow_up)
        reference = TimingAnalyzer(network).analyze(follow_up)
    _assert_identical(result, reference)


def test_delta_after_failed_delta_matches_cold(network):
    analyzer = TimingAnalyzer(network)
    analyzer.analyze(_vector({"a0"}))

    boom, state = _mid_propagation_boom(healthy=1)
    with mock.patch.object(TimingAnalyzer, "_evaluate_full", boom):
        state.armed = True
        with pytest.raises(RuntimeError):
            # Changing cin dirties the whole carry chain, so the delta
            # cone forces enough full evaluations to trip the injection.
            analyzer.analyze_delta(_vector({"cin", "a1"}))
        state.armed = False

        follow_up = _vector({"b2"})
        result = analyzer.analyze_delta(follow_up)
        reference = TimingAnalyzer(network).analyze(follow_up)
    _assert_identical(result, reference)


def test_failed_run_invalidates_carryover(network):
    analyzer = TimingAnalyzer(network)
    analyzer.analyze(_vector({"a0"}))
    assert analyzer._carryover is not None

    boom, state = _mid_propagation_boom()
    with mock.patch.object(TimingAnalyzer, "_evaluate_full", boom):
        state.armed = True
        with pytest.raises(RuntimeError):
            analyzer.analyze(_vector({"b1"}))
    assert analyzer._carryover is None
    # The run-state guard was released by the finally: the analyzer is
    # immediately usable again.
    analyzer.analyze(_vector({"b1"}))
    assert analyzer._carryover is not None


def test_failed_run_merges_what_it_counted(network):
    """A run that raises at its 9th stage evaluation still merges its
    counters into the analyzer's lifetime ones: 9 visits and the
    worklist traffic that led to them, and the candidates, memo answers
    and commits of the 8 evaluations that finished."""
    analyzer = TimingAnalyzer(network)
    boom, state = _mid_propagation_boom(healthy=8)
    with mock.patch.object(TimingAnalyzer, "_evaluate_full", boom):
        state.armed = True
        with pytest.raises(RuntimeError):
            analyzer.analyze(_vector({"b1", "a2"}))
    assert state.calls == 9
    counters = analyzer.perf.counters
    assert counters["stage_visits"] == counters["stage_full_evals"] == 9
    assert counters == {
        "arrival_updates": 32, "candidates": 136, "kernel_batches": 8,
        "kernel_nodes": 48, "model_cache_hits": 120,
        "model_cache_misses": 16, "model_evals": 16,
        "path_enumerations": 8, "stage_full_evals": 9, "stage_visits": 9,
        "tree_template_hits": 4, "tree_template_misses": 12,
        "worklist_pushes": 25, "worklist_stale_pops": 2}


def test_failed_run_keeps_lifetime_caches_warm(network):
    """Invalidation drops only carryover — the path/template/memo caches
    are input-independent and must survive a failed run."""
    analyzer = TimingAnalyzer(network)
    analyzer.analyze(_vector({"a0"}))
    cached_paths = _cached_groups(analyzer)
    cached_delays = _cached_answers(analyzer)
    assert cached_paths and cached_delays

    boom, state = _mid_propagation_boom()
    with mock.patch.object(TimingAnalyzer, "_evaluate_full", boom):
        state.armed = True
        with pytest.raises(RuntimeError):
            analyzer.analyze(_vector({"b1", "a2"}))
    assert _cached_groups(analyzer) >= cached_paths
    assert _cached_answers(analyzer) >= cached_delays


def test_result_cannot_corrupt_the_next_delta_run(network):
    """``result.arrivals`` is a read-only view of the committed int-keyed
    dict that the next delta run carries over: it reads as the
    Event-keyed dict of that run, in commit order, and refuses writes."""
    analyzer = TimingAnalyzer(network)
    result = analyzer.analyze(_vector({"a0"}))
    names, transitions = analyzer.graph.node_names, tuple(Transition)
    committed = {Event(names[event >> 1], transitions[event & 1]): arrival
                 for event, arrival in analyzer._carryover[1].items()}
    arrivals = dict(result.arrivals)
    assert list(arrivals) == list(committed)
    assert all(arrivals[event] is committed[event] for event in committed)

    event, arrival = next(iter(result.arrivals.items()))
    with pytest.raises(TypeError):
        result.arrivals[event] = arrival
    with pytest.raises(TypeError):
        result.arrivals[Event("nowhere", Transition.RISE)] = arrival
    with pytest.raises(TypeError):
        del result.arrivals[event]

    follow_up = _vector({"b1", "cin"})
    _assert_identical(analyzer.analyze_delta(follow_up),
                      TimingAnalyzer(network).analyze(follow_up))
    assert list(dict(result.arrivals).items()) == list(committed.items())


def test_arrival_records_are_read_only(network):
    """The records themselves are shared with the carryover too: writing
    or deleting a field raises, and the result still reads whole."""
    analyzer = TimingAnalyzer(network)
    result = analyzer.analyze_delta(_vector(set()))
    arrival = result.arrival("s0", Transition.RISE)
    before = (arrival.time, arrival.slope)
    with pytest.raises(AttributeError):
        arrival.time = 1.0
    with pytest.raises(AttributeError):
        del arrival.slope
    assert (arrival.time, arrival.slope) == before

    follow_up = _vector({"a3"})
    _assert_identical(analyzer.analyze_delta(follow_up),
                      TimingAnalyzer(network).analyze(follow_up))
    report = format_critical_path(result, "s0", Transition.RISE)
    assert report.startswith("critical path to s0")
    assert arrival.path is not None and arrival.trigger is not None

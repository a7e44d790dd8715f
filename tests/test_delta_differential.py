"""Property-based differential tests for delta-driven sweeps.

Random feed-forward gate networks × random vector batches, asserting the
dirty-cone delta engine agrees bit-identically with the full batch and
with per-vector fresh analyzers — across every analysis order and across
mid-sequence cache invalidation (including a real ``resize_transistor``
edit).  Random NAND latches with random fanout do the same for stage
graphs with a feedback cycle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import VECTOR_ORDERS, ExplicitVectors, RandomVectors, run_sweep
from repro.batch.vectors import Vector
from repro.circuits import Gates, shift_register
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.core.timing.clocking import (ClockSchedule, clock_input_spec,
                                        setup_checks)
from repro.netlist import Network
from repro.switchlevel import SwitchSimulator
from repro.tech import CMOS3

from .test_batch_differential import assert_identical
from .test_properties import build_dag, gate_recipe

#: Arrival times on a coarse deterministic grid; slopes from a small set.
_TIME_STEP = 0.1e-9
_SLOPES = (0.0, 0.2e-9, 1.0e-9)

vector_recipe = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20),
              st.integers(0, len(_SLOPES) - 1)),
    min_size=2, max_size=5)


def _vectors_from_recipe(inputs, recipe):
    vectors = []
    for ticks in recipe:
        slope = _SLOPES[ticks[-1]]
        vectors.append({
            name: InputSpec(arrival_rise=ticks[i] * _TIME_STEP,
                            arrival_fall=ticks[i] * _TIME_STEP,
                            slope=slope)
            for i, name in enumerate(inputs)
        })
    return vectors


class TestDeltaEqualsFull:
    @settings(max_examples=12, deadline=None)
    @given(recipe=gate_recipe, vecs=vector_recipe)
    def test_delta_batch_equals_full_and_fresh(self, recipe, vecs):
        net, inputs, _, _ = build_dag(CMOS3, recipe)
        vectors = _vectors_from_recipe(inputs, vecs)

        delta = TimingAnalyzer(net).analyze_many(vectors, delta=True)
        full = TimingAnalyzer(net).analyze_many(vectors)
        for index, spec in enumerate(vectors):
            fresh = TimingAnalyzer(net).analyze(spec)
            assert_identical(delta[index], fresh, ("delta-vs-fresh", index))
            assert_identical(delta[index], full[index], ("delta-vs-full",
                                                         index))

    @settings(max_examples=8, deadline=None)
    @given(recipe=gate_recipe, seed=st.integers(0, 10 ** 6),
           order=st.sampled_from(VECTOR_ORDERS))
    def test_sweep_delta_and_order_invariant(self, recipe, seed, order):
        """run_sweep(delta=True) under every ordering against the plain
        sweep: same labels, same arrivals, source order preserved."""
        net, inputs, _, _ = build_dag(CMOS3, recipe)
        source = ExplicitVectors(list(RandomVectors(
            input_names=inputs, count=4, seed=seed, span=1e-9,
            slope=0.3e-9)))
        plain = run_sweep(net, source)
        sweep = run_sweep(net, source, delta=True, order=order)
        assert ([o.label for o in sweep.outcomes]
                == [o.label for o in plain.outcomes])
        for expected, outcome in zip(plain.outcomes, sweep.outcomes):
            assert_identical(outcome.result, expected.result,
                             (order, outcome.label))

    @settings(max_examples=6, deadline=None)
    @given(recipe=gate_recipe, vecs=vector_recipe,
           break_at=st.integers(0, 3))
    def test_mid_sequence_invalidation(self, recipe, vecs, break_at):
        """invalidate_caches() (after a real geometry edit) mid-sequence:
        the delta engine must rebuild and keep matching fresh analyzers
        for the edited network."""
        net, inputs, _, _ = build_dag(CMOS3, recipe)
        vectors = _vectors_from_recipe(inputs, vecs)
        break_at = min(break_at, len(vectors) - 1)

        analyzer = TimingAnalyzer(net)
        for index, spec in enumerate(vectors):
            if index == break_at:
                device = net.transistors[0]
                net.resize_transistor(device.name, width=device.width * 2)
                analyzer.invalidate_caches()
            result = analyzer.analyze_delta(spec)
            assert_identical(result, TimingAnalyzer(net).analyze(spec),
                             ("invalidate", index))


class TestClockedGreedyDelta:
    """A clocked circuit swept with dirty-cone delta and greedy vector
    ordering at once: arrivals and the setup-check reports must both be
    bit-identical to the plain sweep."""

    @staticmethod
    def _clocked_sweep_inputs(stages, seed):
        net = shift_register(CMOS3, stages=stages)
        schedule = ClockSchedule.two_phase(2e-9, separation=0.1e-9,
                                           clock_slope=0.1e-9)
        pinned = {name: clock_input_spec(schedule.phase(name),
                                         schedule.clock_slope)
                  for name in ("phi1", "phi2")}
        rng = random.Random(seed)
        vectors = []
        for index in range(4):
            time = rng.randint(0, 10) * _TIME_STEP
            din = InputSpec(arrival_rise=time, arrival_fall=time,
                            slope=_SLOPES[rng.randrange(len(_SLOPES))])
            vectors.append(Vector(label=f"v{index}",
                                  inputs={"din": din, **pinned}))
        return net, schedule, vectors

    @settings(max_examples=4, deadline=None)
    @given(stages=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
    def test_clocked_delta_greedy_equals_plain(self, stages, seed):
        net, schedule, vectors = self._clocked_sweep_inputs(stages, seed)
        clocks = {"phi1": "phi1", "phi2": "phi2"}
        plain = run_sweep(net, ExplicitVectors(vectors))
        fancy = run_sweep(net, ExplicitVectors(vectors), delta=True,
                          order="greedy")
        assert ([o.label for o in fancy.outcomes]
                == [o.label for o in plain.outcomes])
        for expected, outcome in zip(plain.outcomes, fancy.outcomes):
            assert_identical(outcome.result, expected.result,
                             ("clocked-greedy-delta", outcome.label))
            want = [str(c) for c in setup_checks(net, expected.result,
                                                 clocks, schedule)]
            got = [str(c) for c in setup_checks(net, outcome.result,
                                                clocks, schedule)]
            assert got == want, (outcome.label, got, want)


class TestDeltaOnALoop:
    """Delta re-analysis on a stage graph with a feedback cycle: a NAND
    latch feeding two NANDs in a row, so all four stages sit on the
    overflow level, where stages pop in time order rather than in
    topological order."""

    @staticmethod
    def _latch_fanout():
        net = Network(CMOS3)
        gates = Gates(net)
        gates.nand(["set", "qb"], "q")
        gates.nand(["reset", "q"], "qb")
        gates.nand(["q", "w"], "a")
        gates.nand(["a", "x"], "b")
        net.mark_input("set", "reset", "w", "x")
        sim = SwitchSimulator(net)
        states = []
        for vector in ({"set": 0, "reset": 1, "w": 0, "x": 1},
                       {"set": 1, "reset": 1, "w": 0, "x": 1},
                       {"set": 1, "reset": 1, "w": 1, "x": 1}):
            sim.set_vector(vector)
            sim.settle()
            states.append(sim.values())
        # The latch holds q = 1 through the last two vectors, so it makes
        # no event; w rises, a falls and b rises.
        return net, states[1], states[2]

    def test_latch_fanout_delta_equals_fresh(self):
        net, pre, post = self._latch_fanout()
        analyzer = TimingAnalyzer(net, states=post, initial_states=pre)
        assert analyzer.graph.has_feedback()
        assert analyzer.graph.loop_stages() == frozenset(range(4))
        # In the second vector, b (dirtied by x at 0.1 ns) pops before a
        # (dirtied by w at 0.2 ns) on the shared level: b must not keep
        # an arrival computed from a's stale, later value.
        for index, (w, x) in enumerate(((1.0, 0.0), (0.2, 0.1), (1.0, 0.3),
                                        (0.0, 0.0))):
            times = {"set": 0.0, "reset": 0.0, "w": w * 1e-9, "x": x * 1e-9}
            inputs = {name: InputSpec(time, time, 0.2e-9)
                      for name, time in times.items()}
            result = analyzer.analyze_delta(inputs)
            fresh = TimingAnalyzer(net, states=post,
                                   initial_states=pre).analyze(inputs)
            assert_identical(result, fresh, ("latch", index))
            assert result.perf.get("delta_scenarios") == (index > 0)


#: Per value a NAND latch holds (q = 1, q = 0), the (set, reset) pairs
#: that keep it: its write vector and the hold vector.  A latch that
#: flips is a genuine timing loop (q falls, so qb rises, so q falls
#: later), which the analyzer refuses whichever way it runs.
_LATCH_KEEPS = (({"set": 0, "reset": 1}, {"set": 1, "reset": 1}),
                ({"set": 1, "reset": 0}, {"set": 1, "reset": 1}))

#: The fanout: a chain of NAND/NOR gates from q or qb, each gate also fed
#: by a side input, so paths from the two side inputs reconverge.
latch_fanout = st.tuples(
    st.sampled_from(("q", "qb")),
    st.lists(st.tuples(st.sampled_from(("nand", "nor")),
                       st.sampled_from(("w", "x"))),
             min_size=1, max_size=4))

#: A switch-level vector: which keeping (set, reset) pair, then w and x.
latch_state = st.tuples(st.integers(0, 1), st.integers(0, 1),
                        st.integers(0, 1))

#: Per timing vector, each input's arrival in ticks (-1: static) and a
#: slope.
latch_vectors = st.lists(
    st.tuples(st.integers(-1, 10), st.integers(-1, 10), st.integers(-1, 10),
              st.integers(-1, 10), st.integers(0, len(_SLOPES) - 1)),
    min_size=3, max_size=6)


class TestDeltaOnRandomLatches:
    """A NAND latch with a random NAND/NOR fanout, timed between two
    switch-level states in which the latch keeps its value and w
    toggles: one analyzer's ``analyze_delta`` over a random vector
    sequence must match a fresh ``analyze`` of each vector.  Every stage
    sits on the loop or downstream of it, so every one is a loop stage."""

    @staticmethod
    def _latch_fanout(fanout, value, before, after):
        net = Network(CMOS3)
        gates = Gates(net)
        gates.nand(["set", "qb"], "q")
        gates.nand(["reset", "q"], "qb")
        for node in ("w", "x"):
            net.add_node(node)
        previous, chain = fanout
        for index, (kind, side) in enumerate(chain):
            getattr(gates, kind)([previous, side], f"g{index}")
            previous = f"g{index}"
        net.mark_input("set", "reset", "w", "x")
        keeps = _LATCH_KEEPS[value]
        sim = SwitchSimulator(net)
        states = []
        for keep, w, x in ((0, 0, 0), before,
                           (after[0], 1 - before[1], after[2])):
            sim.set_vector({**keeps[keep], "w": w, "x": x})
            sim.settle()
            states.append(sim.values())
        return net, states[1], states[2]

    @settings(max_examples=300, deadline=None)
    @given(fanout=latch_fanout, value=st.integers(0, 1),
           before=latch_state, after=latch_state, vecs=latch_vectors)
    def test_latch_fanout_delta_equals_fresh(self, fanout, value, before,
                                             after, vecs):
        net, pre, post = self._latch_fanout(fanout, value, before, after)
        analyzer = TimingAnalyzer(net, states=post, initial_states=pre)
        assert analyzer.graph.loop_stages() == frozenset(
            range(len(analyzer.graph.stages)))
        for index, (*ticks, slope) in enumerate(vecs):
            inputs = {name: InputSpec(*(
                (None, None) if tick < 0 else (tick * _TIME_STEP,) * 2),
                slope=_SLOPES[slope])
                for name, tick in zip(("set", "reset", "w", "x"), ticks)}
            result = analyzer.analyze_delta(inputs)
            fresh = TimingAnalyzer(net, states=post,
                                   initial_states=pre).analyze(inputs)
            assert_identical(result, fresh, ("latch", index))

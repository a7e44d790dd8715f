"""Property-based differential tests for delta-driven sweeps (ISSUE 7).

Random feed-forward gate networks × random vector batches, asserting the
dirty-cone delta engine agrees bit-identically with the full batch and
with per-vector fresh analyzers — across every analysis order, across
mid-sequence cache invalidation (including a real ``resize_transistor``
edit), and on both RC-tree kernel backends.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import VECTOR_ORDERS, ExplicitVectors, RandomVectors, run_sweep
from repro.batch.vectors import Vector
from repro.circuits import shift_register
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.core.timing.clocking import (ClockSchedule, clock_input_spec,
                                        setup_checks)
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

    @settings(max_examples=6, deadline=None)
    @given(recipe=gate_recipe, vecs=vector_recipe)
    def test_delta_on_python_kernel(self, recipe, vecs):
        """The dirty cone must be kernel-agnostic: delta on the scalar
        reference kernel equals full analysis on the same kernel."""
        net, inputs, _, _ = build_dag(CMOS3, recipe)
        vectors = _vectors_from_recipe(inputs, vecs)
        delta = TimingAnalyzer(net, kernel="python").analyze_many(
            vectors, delta=True)
        full = TimingAnalyzer(net, kernel="python").analyze_many(vectors)
        for index in range(len(vectors)):
            assert_identical(delta[index], full[index], index)


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

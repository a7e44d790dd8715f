"""Property-based differential tests: every fast path vs its reference.

Random feed-forward gate networks × random input vectors, asserting
that batched ``analyze_many()`` through one shared analyzer, and the
sweep engine on top of it, agree bit-identically on every (event →
time, slope, cause) triple with a fresh analyzer per vector: the shared
analyzer must keep the answers although its caches are warm with other
vectors' work.

Maier's "Gain and Pain of a Reliable Delay Model" point: a fast delay
model is only trustworthy while it is continuously checked against its
reference — this file is that check on randomized inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import ExplicitVectors, RandomVectors, run_sweep
from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.timing import InputSpec, TimingAnalyzer
from repro.tech import CMOS3

from .test_properties import build_dag, gate_recipe

#: Arrival times on a coarse deterministic grid; slopes from a small set.
_TIME_STEP = 0.1e-9
_SLOPES = (0.0, 0.2e-9, 1.0e-9)

vector_recipe = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20),
              st.integers(0, len(_SLOPES) - 1)),
    min_size=1, max_size=4)


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


def assert_identical(result, reference, context):
    assert set(result.arrivals) == set(reference.arrivals), context
    for event, arrival in result.arrivals.items():
        expected = reference.arrivals[event]
        assert arrival.time == expected.time, (context, event)
        assert arrival.slope == expected.slope, (context, event)
        assert arrival.cause == expected.cause, (context, event)


class TestRandomNetworksRandomVectors:
    @settings(max_examples=12, deadline=None)
    @given(recipe=gate_recipe, vecs=vector_recipe)
    def test_batched_equals_fresh(self, recipe, vecs):
        net, inputs, _, _ = build_dag(CMOS3, recipe)
        vectors = _vectors_from_recipe(inputs, vecs)

        batched = TimingAnalyzer(net).analyze_many(vectors)
        for index, (spec, batch_result) in enumerate(zip(vectors, batched)):
            fresh = TimingAnalyzer(net).analyze(spec)
            assert_identical(batch_result, fresh, ("batched", index))

    @settings(max_examples=8, deadline=None)
    @given(recipe=gate_recipe, seed=st.integers(0, 10 ** 6))
    def test_sweep_engine_equals_reference(self, recipe, seed):
        """The full sweep engine (vector source + run_sweep) against a
        fresh analyzer per scenario."""
        net, inputs, _, _ = build_dag(CMOS3, recipe)
        source = ExplicitVectors(list(RandomVectors(
            input_names=inputs, count=3, seed=seed, span=1e-9,
            slope=0.3e-9)))
        sweep = run_sweep(net, source)
        for outcome in sweep.outcomes:
            reference = TimingAnalyzer(net).analyze(outcome.vector.inputs)
            assert_identical(outcome.result, reference, outcome.label)


@pytest.mark.slow
class TestAdderSweepDifferential:
    """A heavier seeded (non-hypothesis) battery on a real carry chain."""

    def test_rca8_random_sweep_matches_reference(self):
        network = ripple_carry_adder(CMOS3, 8)
        source = RandomVectors(input_names=adder_input_names(8), count=16,
                               seed=2026, span=2e-9, slope=0.3e-9)
        sweep = run_sweep(network, source)
        for outcome in sweep.outcomes:
            reference = TimingAnalyzer(network).analyze(
                outcome.vector.inputs)
            assert_identical(outcome.result, reference, outcome.label)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.tech import CMOS3, NMOS4


@pytest.fixture(scope="session")
def cmos():
    return CMOS3


@pytest.fixture(scope="session")
def nmos():
    return NMOS4


#: Coarse ratio grid: characterization for tests runs in a few seconds.
TEST_RATIOS = [0.05, 0.2, 0.8, 3.0, 12.0, 40.0]


@pytest.fixture(scope="session")
def cmos_char():
    from repro.core.models import characterize_technology
    return characterize_technology(CMOS3, ratios=TEST_RATIOS)


@pytest.fixture(scope="session")
def nmos_char():
    from repro.core.models import characterize_technology
    return characterize_technology(NMOS4, ratios=TEST_RATIOS)


@pytest.fixture(scope="session")
def cmos3_shipped():
    """CMOS3 with the shipped characterized tables: the technology the
    sweep, delta and trace counter pins run on."""
    from repro.core.models import characterize_technology
    return characterize_technology(CMOS3)


@pytest.fixture(scope="session")
def rca32_gray_inputs():
    """``rca32_gray_inputs(axes)``: every rca32 vector of a binary
    cartesian sweep (each axis input at 0 or 0.5 ns, the rest at 0), in
    Gray order, so neighbours differ in exactly one input."""
    from repro.batch import CartesianSweep, order_vectors
    from repro.circuits import adder_input_names

    def build(axes):
        source = CartesianSweep(
            base={name: 0.0 for name in adder_input_names(32)},
            axes={name: [0.0, 0.5e-9] for name in axes})
        vectors = list(source)
        return [vectors[position].inputs
                for position in order_vectors(vectors, "gray", source)]

    return build

"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.circuit import (
    c17,
    mini_fsm,
    parity_tracker,
    resettable_counter,
    s27,
    shift_register,
    synthesize_named,
    uninitializable_loop,
)
from repro.sim.compile import clear_circuit_cache


@pytest.fixture(autouse=True)
def fresh_circuit_cache():
    """Each test starts with an empty compiled-circuit cache, as a new
    process does, so kernel-build counts do not depend on test order."""
    clear_circuit_cache()


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def s27_circuit():
    return s27()


@pytest.fixture(scope="session")
def c17_circuit():
    return c17()


@pytest.fixture(scope="session")
def minifsm_circuit():
    return mini_fsm()


@pytest.fixture(scope="session")
def counter3_circuit():
    return resettable_counter(3)


@pytest.fixture(scope="session")
def tiny_synth():
    """A small synthetic circuit (scaled s298) used by integration tests."""
    return synthesize_named("s298", seed=3, scale=0.15)


def random_vectors(circuit, count, seed=0):
    """Deterministic random binary vectors for a circuit."""
    rng = random.Random(seed)
    return [
        [rng.randint(0, 1) for _ in range(circuit.num_inputs)]
        for _ in range(count)
    ]

"""Pinned GA and CRIS outputs: refactors must not move a single bit.

Each case pins the sha256 of a run's test sequence (as JSON) together
with its detected-fault count, test length and GA evaluation count.
The runs cover phase 1 (every run below starts uninitialized), both
fault models, fault sampling and both kernels, so a change to any
simulation path that alters a fitness value, a tie or a random draw
shows up here.  The GATEST pins were computed before the GA memoized
fitness, so they also hold the memo to exactness.  Update a pin only
together with a change that is meant to alter GA output, and say so in
CHANGES.md.
"""

import hashlib
import json

import pytest

from repro.baselines.cris import CrisLikeGenerator
from repro.circuit import s27, synthesize_named
from repro.core import GaTestGenerator, TestGenConfig

KERNELS = ("interp", "codegen")

S27_STUCK = ("b7df447366531f72bc1ea46f106576f4fde259a39ac02c08cb87e8a5bdd4c1f7",
             26, 14, 3312)
S27_TRANSITION = ("b519c3b802ab726002ab395d888afeb007a49ef976148ffff28730a7bda1b332",
                  33, 18, 6048)
S298_SAMPLED = ("eabf66e119ec390159d31b6ef2c145599889e1bf8d261a558bf8e64c84dee871",
                111, 65, 8424)
CRIS_S298 = ("af73671f1707a7c7dddbe620213bc7d91353ebdb19733af73ab5d6a57b849198",
             65, 24, 3456)


def _s298():
    return synthesize_named("s298", seed=0, scale=0.3)


def _pin(result):
    sequence = json.dumps(result.test_sequence).encode()
    return (hashlib.sha256(sequence).hexdigest(), result.detected,
            result.vectors, result.ga_evaluations)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("circuit,options,expected", [
    (s27, {}, S27_STUCK),
    (s27, {"fault_model": "transition"}, S27_TRANSITION),
    (_s298, {"fault_sample": 32}, S298_SAMPLED),
], ids=["s27", "s27-transition", "s298-sampled"])
def test_gatest_outputs_pinned(kernel, circuit, options, expected):
    config = TestGenConfig(seed=1, sim_kernel=kernel, **options)
    assert _pin(GaTestGenerator(circuit(), config).run()) == expected


def test_cris_outputs_pinned():
    assert _pin(CrisLikeGenerator(_s298(), seed=1).run()) == CRIS_S298

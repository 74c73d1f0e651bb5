"""Tests for the GATEST configuration and parameter schedules."""

import json

import pytest

from repro.core import (
    TestGenConfig,
    config_from_json,
    config_to_json,
    ga_params_for_vector_length,
)
from repro.core.config import DEEP_CIRCUITS
from repro.service.jobs import parse_job


class TestTable1Schedule:
    @pytest.mark.parametrize("length,pop,rate", [
        (1, 8, 1 / 8),
        (3, 8, 1 / 8),
        (4, 16, 1 / 16),
        (16, 16, 1 / 16),
        (17, 16, 1 / 17),
        (35, 16, 1 / 35),
    ])
    def test_schedule(self, length, pop, rate):
        schedule = ga_params_for_vector_length(length)
        assert schedule.population_size == pop
        assert schedule.mutation_rate == pytest.approx(rate)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            ga_params_for_vector_length(0)


class TestTestGenConfig:
    def test_defaults_match_paper_main_config(self):
        config = TestGenConfig()
        assert config.selection == "tournament"
        assert config.crossover == "uniform"
        assert config.coding == "binary"
        assert config.generations == 8
        assert config.seq_population_size == 32
        assert config.seq_mutation_rate == pytest.approx(1 / 64)
        assert config.vector_progress_multiplier == 4.0
        assert config.seq_length_multipliers == (1.0, 2.0, 4.0)
        assert config.seq_fail_limit == 4

    @pytest.mark.parametrize("name", DEEP_CIRCUITS)
    def test_deep_circuit_overrides(self, name):
        config = TestGenConfig().for_circuit(name)
        assert config.vector_progress_multiplier == 1.0
        assert config.seq_length_multipliers == (0.25, 0.5, 1.0)

    def test_scaled_names_still_match_overrides(self):
        config = TestGenConfig().for_circuit("s5378@0.3")
        assert config.vector_progress_multiplier == 1.0

    def test_normal_circuit_unchanged(self):
        config = TestGenConfig()
        assert config.for_circuit("s298") == config

    def test_progress_limit(self):
        assert TestGenConfig().progress_limit(8) == 32
        assert TestGenConfig(vector_progress_multiplier=1.0).progress_limit(8) == 8
        assert TestGenConfig().progress_limit(0) == 4  # depth floored at 1

    def test_sequence_lengths(self):
        assert TestGenConfig().sequence_lengths(8) == (8, 16, 32)
        deep = TestGenConfig().for_circuit("s5378")
        assert deep.sequence_lengths(36) == (9, 18, 36)

    def test_sequence_lengths_deduplicated(self):
        assert TestGenConfig().sequence_lengths(1) == (1, 2, 4)
        config = TestGenConfig(seq_length_multipliers=(1.0, 1.0, 2.0))
        assert config.sequence_lengths(4) == (4, 8)

    def test_population_scaling(self):
        config = TestGenConfig(population_scale=2.0)
        assert config.vector_ga_schedule(10).population_size == 32
        assert config.sequence_ga_schedule().population_size == 64
        base = TestGenConfig()
        assert base.vector_ga_schedule(10).population_size == 16

    def test_digest_pinned(self):
        """Run checkpoints and campaign journals store this digest, so
        deleting execution-only fields must leave it unchanged."""
        assert TestGenConfig().digest() == (
            "1d7eefd1eed0ad77a34b58965f019963b4a4f65594844e6687e1a7f5e084a2ea"
        )
        assert TestGenConfig(eval_jobs=4, sim_kernel="interp").digest() == (
            TestGenConfig().digest()
        )

    def test_sequence_multipliers_become_float_tuples(self):
        """A JSON list (a service run job's config), its tier-decoded
        copy and the float tuple are one config: one digest, one hash."""
        parsed = parse_job({"kind": "run", "circuit": "s27",
                            "config": {"seq_length_multipliers": [1, 2, 4]}})
        decoded = config_from_json(json.loads(json.dumps(
            config_to_json(parsed.config))))
        tuple_config = TestGenConfig(seq_length_multipliers=(1.0, 2.0, 4.0))
        for config in (parsed.config, decoded):
            assert config.seq_length_multipliers == (1.0, 2.0, 4.0)
            assert config == tuple_config
            assert config.digest() == tuple_config.digest() == (
                TestGenConfig().digest())
            assert hash(config) == hash(tuple_config)

    @pytest.mark.parametrize(
        "field", ["eval_cache", "eval_task_timeout", "eval_retries"]
    )
    def test_removed_execution_knobs(self, field):
        """The GA memoizes fitness on every run and the pool policy comes
        from ``REPRO_EVAL_TIMEOUT``/``REPRO_EVAL_RETRIES``, so these
        fields are gone and naming one fails."""
        assert TestGenConfig._EXECUTION_ONLY == ("eval_jobs", "sim_kernel")
        with pytest.raises(TypeError, match=field):
            TestGenConfig(**{field: 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            TestGenConfig(generations=0)
        with pytest.raises(ValueError):
            TestGenConfig(seq_fail_limit=0)
        with pytest.raises(ValueError):
            TestGenConfig(generation_gap=0.0)
        with pytest.raises(ValueError):
            TestGenConfig(population_scale=0.0)
        for n_islands in (1, 2):  # at construction, not at the first GA run
            with pytest.raises(ValueError, match="migration_interval"):
                TestGenConfig(n_islands=n_islands, migration_interval=0)
        # Refused here, as make_sampler would refuse it once the run starts.
        for fault_sample in (0, -2, 1.5, "x", True):
            with pytest.raises(ValueError, match="fault_sample"):
                TestGenConfig(fault_sample=fault_sample)
        # Refused here, as the GA or the sequence stage would refuse them.
        for name in ("selection", "crossover", "coding"):
            with pytest.raises(ValueError, match=f"unknown {name} 'nope'"):
                TestGenConfig(**{name: "nope"})
        for rate in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="seq_mutation_rate"):
                TestGenConfig(seq_mutation_rate=rate)
        for size in (1, 0):
            with pytest.raises(ValueError, match="seq_population_size"):
                TestGenConfig(seq_population_size=size)
        for scale in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="population_scale"):
                TestGenConfig(population_scale=scale)
        for multipliers in ((1.0, float("inf")), (float("nan"),)):
            with pytest.raises(ValueError, match="seq_length_multipliers"):
                TestGenConfig(seq_length_multipliers=multipliers)

"""Smoke tests for the public package surface."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_workflow():
    """The README quickstart must work verbatim."""
    from repro import GaTestGenerator, TestGenConfig, s27

    result = GaTestGenerator(s27(), TestGenConfig(seed=1)).run()
    assert result.fault_coverage > 0.5
    assert len(result.test_sequence) > 0


def test_all_names_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_subpackage_alls():
    import repro.baselines
    import repro.circuit
    import repro.core
    import repro.faults
    import repro.ga
    import repro.harness
    import repro.sim

    for module in (repro.circuit, repro.sim, repro.faults, repro.ga,
                   repro.core, repro.baselines, repro.harness):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_fault_simulator_exported():
    from repro import FaultSimulator, generate_faults
    from repro.circuit import s27

    sim = FaultSimulator(s27())
    assert sim.num_faults > 0
    assert len(generate_faults(s27())) > sim.num_faults

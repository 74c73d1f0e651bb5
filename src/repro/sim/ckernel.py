"""Placeholder left by the removed compiled C kernel backend.

The C backend's only native entry point ran the grouped fault-simulation
frame loop, which consumed a shared good-machine trace.  That loop is
gone: every simulation now runs the population pass, whose frame loop
lives in the simulator, and the C backend never beat ``codegen`` end to
end (docs/KERNELS.md records the numbers).  This module stays
importable only because ``benchmarks/e2e/workloads.py`` runs
``import repro.sim.ckernel`` at load time; nothing in the package
imports it.  Delete it together with that import.
"""

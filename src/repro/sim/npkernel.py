"""Placeholder left by the removed vectorized numpy kernel backend.

The numpy backend was deleted because it was slower end to end than the
``codegen`` default on every benchmark workload (docs/KERNELS.md records
the numbers).  This module stays importable only because
``benchmarks/e2e/workloads.py`` runs ``import repro.sim.npkernel`` at
load time; nothing in the package imports it.  Delete it together with
that import.
"""

"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper and prints
a paper-vs-measured comparison; run with ``pytest benchmarks/ --benchmark-only -s`` to see the rows.
"""
import numpy as np
import pytest

from repro.config import NumericsOptions


@pytest.fixture
def bench_opts() -> NumericsOptions:
    """Scaled-down numerics used by the in-repo benchmark runs."""
    return NumericsOptions(patch_quad=7, check_order=5, upsample_eta=1,
                           check_r_factor=0.2, gmres_max_iter=30)

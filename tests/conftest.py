import time

import pytest

from pilotwave.harness import harmonic_benchmark_config, run_sweep


@pytest.fixture(scope="session")
def benchmark_sweep():
    """Full harmonic benchmark sweep, shared by the acceptance criteria.

    Returns (report, wall_seconds).
    """
    cfg = harmonic_benchmark_config()
    t0 = time.perf_counter()
    report = run_sweep(cfg)
    return report, time.perf_counter() - t0

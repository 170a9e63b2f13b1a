"""The per-layer tracer in bench/spans.py wraps names inside the package.

It stops a traced benchmark run when one of them is gone, so a refactor
that renames or drops such a name fails here first.  The tracer module is
loaded from its file and only inspected; nothing is installed or wrapped.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from pilotwave.bohm import integrate_trajectories
from pilotwave.grid import make_grid
from pilotwave.potential import TimePeriodicPotential, effective_potential, harmonic, one_plus_cos
from pilotwave.solver import EffectiveSystem, OscillatingSystem, StrangStepper

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("pilotwave_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    assert spans.TARGETS
    for name, (owner, attr) in spans.TARGETS.items():
        obj = spans._resolve(owner)
        assert callable(getattr(obj, attr, None)), f"span {name}: {owner}.{attr} is missing"


def test_stepper_exposes_system_kind(spans):
    grid = make_grid(1, 64, 8.0)
    V = TimePeriodicPotential(one_plus_cos(), harmonic())
    osc = StrangStepper(OscillatingSystem(V, 0.1), grid, 0.001)
    eff = StrangStepper(EffectiveSystem(effective_potential(V, grid)), grid, 0.001)
    assert osc.static_phase is None
    assert eff.static_phase is not None
    values = np.ones(grid.shape, dtype=np.complex128)
    assert spans._advance_attrs((osc, values, 0.0), {}, None) == 1
    assert spans._advance_attrs((eff, values, 0.0), {}, None) == 0


def test_trajectory_parameters_keep_their_names():
    params = list(inspect.signature(integrate_trajectories).parameters)
    assert params[:3] == ["history", "initial_points", "times"]

"""The per-layer tracer in bench/spans.py wraps names inside the package.

It stops a traced benchmark run when one of them is gone or records no
call, so a refactor that renames or stops calling such a name fails here
first.  The tracer module is loaded from its file.  Two tests install its
wrappers around tiny sweeps (1D, and 2D with and without a lane thread)
and turn the spans into the per-layer metrics, as a traced benchmark call
does; every name it wraps is restored afterwards.
"""

import functools
import importlib
import importlib.util
import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pilotwave.bohm import integrate_trajectories
from pilotwave.cli import main as cli_main
from pilotwave.grid import make_grid
from pilotwave.potential import TimePeriodicPotential, effective_potential, harmonic, one_plus_cos
from pilotwave.solver import OscillatingSystem, StrangStepper

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
    eff = StrangStepper(effective_potential(V, grid), grid, 0.001)
    assert osc.static_phase is None
    assert eff.static_phase is not None
    values = np.ones(grid.shape, dtype=np.complex128)
    assert spans._advance_attrs((osc, values, 0.0), {}, None) == 1
    assert spans._advance_attrs((eff, values, 0.0), {}, None) == 0


def test_trajectory_parameters_keep_their_names():
    params = list(inspect.signature(integrate_trajectories).parameters)
    assert params[:3] == ["history", "initial_points", "times"]


def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(
        "grid: {dim: 1, n_per_axis: 256, half_width: 12.0}\n"
        "sweep: {horizon: 0.25, eps_list: [0.2], ensemble_size: 100}\n"
        "measure: {dictionary_size: 32}\n"
        "output: {save_fields: true}\n"
    )
    return path


def test_every_target_is_called_by_a_sweep(spans, monkeypatch, tmp_path):
    counts = dict.fromkeys(spans.TARGETS, 0)
    for name, (owner, attr) in spans.TARGETS.items():
        obj = spans._resolve(owner)

        def counted(*args, _name=name, _fn=getattr(obj, attr), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(obj, attr, functools.wraps(getattr(obj, attr))(counted))

    cfg_path = tiny_config(tmp_path)
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    silent = sorted(name for name, n in counts.items() if n == 0)
    assert not silent, f"traced layers with no call: {silent}"


def traced_sweep(spans, monkeypatch, cfg_path, out, *argv):
    """Layer metrics and raw trace of one sweep, written to ``out``, run
    under the tracer.

    monkeypatch snapshots each name the tracer replaces, so leaving the
    context puts the originals back.
    """
    with monkeypatch.context() as mp:
        for module_name in spans.FFT_MODULES:
            module = importlib.import_module(module_name)
            for fn in spans.FFT_FUNCTIONS:
                mp.setattr(module, fn, getattr(module, fn))
        for owner, attr in spans.TARGETS.values():
            obj = spans._resolve(owner)
            mp.setattr(obj, attr, getattr(obj, attr))
        tracer = spans.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        rc = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), *argv])
        t1 = time.perf_counter()
    assert rc == 0
    tracer.dump(str(out / "spans.json"), (t0, t1))
    trace = json.loads((out / "spans.json").read_text())
    metrics = spans.layer_metrics(trace, set(spans.TARGETS) | {spans.FFT_SPAN})
    assert set(metrics) == {name for name, _ in spans.PER_LAYER} - {"trace.overhead_frac"}
    return metrics, trace


def test_traced_sweep_yields_every_layer_metric(spans, monkeypatch, tmp_path):
    metrics, _ = traced_sweep(spans, monkeypatch, tiny_config(tmp_path), tmp_path / "out")
    # 1D n=256, T=0.25, eps=0.2: 40 steps per system, 21 frames of which
    # the 11 even ones hold a stored velocity field
    assert metrics["harness.rows"] == 1
    assert metrics["harness.row_computations"] == 1
    assert metrics["harness.invalid_rows"] == 0
    assert metrics["solver.steps"] == 80
    assert metrics["bohm.history_bytes"] == 2 * 11 * 256 * 8
    assert metrics["bohm.traj_velocity_evals"] == 2 * 100 * (5 * 6 - 4)
    assert metrics["measure.injectivity_calls"] == 2
    assert metrics["fieldio.save_calls"] == 2
    assert 0 < metrics["measure.feature_matrix_bytes"] <= 256 * 32 * 8


def test_traced_2d_sweep_counts_the_same_with_a_lane(spans, monkeypatch, tmp_path):
    # a 2D row with a spare worker steps and measures one system on a lane
    # thread; every layer keeps its counts and its frame attribution
    path = tmp_path / "tiny_2d.yaml"
    path.write_text(
        "grid: {dim: 2, n_per_axis: 256, half_width: 12.0}\n"
        "initial_state: {center: [0.0, 0.0], momentum: [0.0, 0.0]}\n"
        "sweep: {horizon: 0.25, eps_list: [0.2], ensemble_size: 100}\n"
        "measure: {dictionary_size: 32}\n"
        "output: {save_fields: true}\n"
    )
    serial, serial_trace = traced_sweep(spans, monkeypatch, path, tmp_path / "serial", "--threads", "1")
    laned, laned_trace = traced_sweep(spans, monkeypatch, path, tmp_path / "laned", "--threads", "2")

    def threads_of(trace, name):
        return {s[3] for s in trace["spans"] if s[2] == name}

    assert len(threads_of(serial_trace, "solver.advance")) == 1
    assert len(threads_of(laned_trace, "solver.advance")) == 2
    assert len(threads_of(laned_trace, "bohm.densities")) == 2
    assert len(threads_of(laned_trace, "bohm.traj")) == 1  # history bytes stay on one thread
    # T=0.25, eps=0.2: 40 steps per system, 11 stored velocity frames of 2 x 256**2
    assert laned["solver.steps"] == serial["solver.steps"] == 80
    assert laned["bohm.history_bytes"] == serial["bohm.history_bytes"] == 2 * 11 * 2 * 256**2 * 8
    for name in ("grid.fft_calls", "grid.fft_calls_per_frame", "harness.row_computations"):
        assert laned[name] == serial[name], name

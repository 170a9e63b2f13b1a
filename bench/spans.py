"""Per-layer spans for pilotwave, recorded from outside the package.

The child process installs a :class:`Tracer` before calling ``cli.main``;
the tracer replaces the public names the harness calls with wrappers that
record one span per call.  Spans stay in memory and are written out once
the call has returned.  The parent turns them into per-layer metrics with
:func:`layer_metrics`.

The harness binds most names at import (``from .grid import norms``), so
those are wrapped in ``pilotwave.harness``'s namespace, not where they are
defined.  Methods are wrapped on their class, and transforms on both
``numpy.fft`` and ``scipy.fft`` so counts survive a backend switch.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time

import numpy as np

# span name -> (owner, attribute).  An owner "module:Class" wraps a method.
TARGETS = {
    "cli.run_sweep": ("pilotwave.cli", "run_sweep"),
    "harness.run_single": ("pilotwave.harness", "run_single"),
    "harness.emit_csv": ("pilotwave.harness", "emit_csv"),
    "harness.emit_json": ("pilotwave.harness", "emit_json"),
    "solver.advance": ("pilotwave.solver:StrangStepper", "advance"),
    "solver.gronwall": ("pilotwave.harness", "gronwall_integrand"),
    "solver.h1_distance": ("pilotwave.harness", "h1_distance"),
    "grid.norms": ("pilotwave.harness", "norms"),
    "grid.boundary_mass": ("pilotwave.harness", "boundary_mass_fraction"),
    "bohm.densities": ("pilotwave.harness", "densities"),
    "bohm.sample": ("pilotwave.harness", "sample_initial_positions"),
    "bohm.traj": ("pilotwave.harness", "integrate_trajectories"),
    "measure.injectivity": ("pilotwave.harness", "flow_injectivity_monitor"),
    "measure.flat": ("pilotwave.harness", "monokinetic_deviation"),
    "measure.bohmian": ("pilotwave.harness", "bohmian_measure"),
    "measure.features": ("pilotwave.measure:FeatureDictionary", "integrate"),
    "measure.traj_dev": ("pilotwave.harness", "trajectory_deviation_measure"),
    "potential.effective": ("pilotwave.harness", "effective_potential"),
    "potential.temporal_integral": ("pilotwave.potential:TimePeriodicPotential", "temporal_integral"),
    "fieldio.save": ("pilotwave.harness", "save_field"),
}
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
FFT_SPAN = "grid.fft"

# spans that only contain other layers' work; excluded from attribution
CONTAINERS = {"cli.run_sweep", "harness.run_single"}
# per-frame diagnostics, for grid.fft_calls_per_frame
DIAGNOSTICS = {"grid.norms", "grid.boundary_mass", "bohm.densities", "solver.gronwall"}
BYTES_PER_FFT_POINT = 32  # complex128 read plus complex128 written


class TraceError(RuntimeError):
    """A wrapped name is missing, or an expected layer recorded nothing."""


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        if not hasattr(obj, class_name):
            raise TraceError(f"{module_name}.{class_name} no longer exists")
        obj = getattr(obj, class_name)
    return obj


class Tracer:
    """Records spans as (id, parent id, name, thread, computation, t0, t1, attrs).

    A computation is one evaluation of a row; it starts at the harness's
    ``effective_potential`` call, which every computation makes once.
    Spans nest per thread, because sweep rows run on pool threads.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._computations = itertools.count(1)
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every target.  Transforms are wrapped first, so that a module
        importing them by name at import time still binds the wrapper."""
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for fn in FFT_FUNCTIONS:
                if not hasattr(module, fn):
                    raise TraceError(f"{module_name}.{fn} no longer exists")
                setattr(module, fn, self._wrap(FFT_SPAN, getattr(module, fn)))
        for name, (owner, attr) in TARGETS.items():
            obj = _resolve(owner)
            if not hasattr(obj, attr):
                raise TraceError(f"span {name}: {owner.replace(':', '.')}.{attr} no longer exists")
            setattr(obj, attr, self._wrap(name, getattr(obj, attr)))

    def _stack(self) -> list[tuple[int, str]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [(0, "")]
            local.computation = 0
        return local.stack

    def _wrap(self, name: str, fn):
        record = self.spans.append
        local = self._local
        attrs_of = _ATTRS.get(name)
        starts_computation = name == "potential.effective"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent, parent_name = stack[-1]
            if name == FFT_SPAN and parent_name == FFT_SPAN:  # one transform calling another
                return fn(*args, **kwargs)
            if starts_computation:
                local.computation = next(self._computations)
            span_id = next(self._ids)
            stack.append((span_id, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            record([span_id, parent, name, threading.get_ident(), local.computation, t0, t1, attrs])
            return result

        return wrapper

    def dump(self, path: str, wall: tuple[float, float]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wall": list(wall), "spans": self.spans}, fh)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _fft_attrs(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs.get("a", kwargs.get("x"))))


def _advance_attrs(args, kwargs, result):
    return 1 if args[0].static_phase is None else 0  # 1 = oscillating system


def _row_attrs(args, kwargs, result):
    return 1 if result.valid else 0


def _traj_attrs(args, kwargs, result):
    history = _arg(args, kwargs, 0, "history")
    m = len(_arg(args, kwargs, 1, "initial_points"))
    k = len(_arg(args, kwargs, 2, "times"))
    return {
        "velocity_evals": m * (5 * k - 4),  # RK4: 4 per step, plus P(t) at every output time
        "escaped": int((~result.valid).sum()),
        "history_id": id(history.values),
        "history_bytes": int(history.values.nbytes),
        "frames": len(history.times),
    }


def _features_attrs(args, kwargs, result):
    dictionary, beta = args[0], _arg(args, kwargs, 1, "beta")
    return len(beta.points_x) * len(dictionary.omega) * 8


def _save_attrs(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


_ATTRS = {
    FFT_SPAN: _fft_attrs,
    "solver.advance": _advance_attrs,
    "harness.run_single": _row_attrs,
    "bohm.traj": _traj_attrs,
    "measure.features": _features_attrs,
    "fieldio.save": _save_attrs,
}


# ---------------------------------------------------------------------------
# aggregation (parent side; imports nothing from pilotwave)

# (metric, unit); the order is the order of the report
PER_LAYER = [
    ("harness.rows", "count"),
    ("harness.row_computations", "count"),
    ("harness.useful_row_ratio", "ratio"),
    ("harness.invalid_rows", "count"),
    ("harness.row_busy_s", "s"),
    ("harness.row_max_s", "s"),
    ("harness.row_wait_s", "s"),
    ("harness.emit_s", "s"),
    ("solver.steps", "count"),
    ("solver.step_osc_us", "us"),
    ("solver.step_osc_p90_us", "us"),
    ("solver.step_eff_us", "us"),
    ("solver.step_eff_p90_us", "us"),
    ("solver.step_busy_s", "s"),
    ("solver.gronwall_calls", "count"),
    ("solver.gronwall_busy_s", "s"),
    ("grid.fft_calls", "count"),
    ("grid.fft_points", "count"),
    ("grid.fft_bytes", "B"),
    ("grid.fft_calls_per_frame", "count"),
    ("grid.fft_busy_s", "s"),
    ("grid.norms_busy_s", "s"),
    ("grid.boundary_mass_busy_s", "s"),
    ("bohm.densities_busy_s", "s"),
    ("bohm.sample_busy_s", "s"),
    ("bohm.traj_busy_s", "s"),
    ("bohm.traj_velocity_evals", "count"),
    ("bohm.traj_escaped", "count"),
    ("bohm.history_bytes", "B"),
    ("measure.injectivity_calls", "count"),
    ("measure.injectivity_busy_s", "s"),
    ("measure.flat_busy_s", "s"),
    ("measure.feature_matrix_bytes", "B"),
    ("measure.traj_dev_busy_s", "s"),
    ("potential.effective_busy_s", "s"),
    ("potential.temporal_integral_calls", "count"),
    ("potential.temporal_integral_busy_s", "s"),
    ("fieldio.save_calls", "count"),
    ("fieldio.bytes_written", "B"),
    ("fieldio.save_busy_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = -float("inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def layer_metrics(trace: dict, expected: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced call, except trace.overhead_frac.

    Raises TraceError when a span name in ``expected`` recorded no call.
    """
    spans = trace["spans"]
    wall0, wall1 = trace["wall"]
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    silent = sorted(n for n in expected if not by_name.get(n))
    if silent:
        raise TraceError(f"expected layers recorded no calls: {', '.join(silent)}")

    def calls(name):
        return by_name.get(name, [])

    def busy(*names):
        return sum(s[6] - s[5] for n in names for s in calls(n))

    def percentile_us(durations, q):
        if not durations:
            return 0.0
        if q == 50:
            return statistics.median(durations) * 1e6
        return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6

    parent_name = {s[0]: (s[1], s[2]) for s in spans}

    def in_diagnostics(span) -> bool:
        parent = span[1]
        while parent in parent_name:
            parent, name = parent_name[parent]
            if name in DIAGNOSTICS:
                return True
        return False

    rows = calls("harness.run_single")
    sweeps = calls("cli.run_sweep")
    sweep_start = min(s[5] for s in sweeps) if sweeps else wall0
    steps = calls("solver.advance")
    osc = [s[6] - s[5] for s in steps if s[7] == 1]
    eff = [s[6] - s[5] for s in steps if s[7] == 0]
    ffts = calls(FFT_SPAN)
    fft_points = sum(s[7] for s in ffts)
    trajs = calls("bohm.traj")
    # frames: velocity frames recorded per computation (both systems share them)
    frames_by_comp: dict[int, int] = {}
    history_by_comp: dict[int, dict[int, int]] = {}
    for s in trajs:
        a = s[7]
        frames_by_comp[s[4]] = max(frames_by_comp.get(s[4], 0), a["frames"])
        history_by_comp.setdefault(s[4], {})[a["history_id"]] = a["history_bytes"]
    frames = sum(frames_by_comp.values())
    computations = len(calls("potential.effective"))
    attributed = _covered([(s[5], s[6]) for s in spans if s[2] not in CONTAINERS])
    wall = wall1 - wall0

    return {
        "harness.rows": len(rows),
        "harness.row_computations": computations,
        "harness.useful_row_ratio": len(rows) / computations if computations else 0.0,
        "harness.invalid_rows": sum(1 for s in rows if s[7] == 0),
        "harness.row_busy_s": busy("harness.run_single"),
        "harness.row_max_s": max((s[6] - s[5] for s in rows), default=0.0),
        "harness.row_wait_s": sum(s[5] - sweep_start for s in rows),
        "harness.emit_s": busy("harness.emit_csv", "harness.emit_json"),
        "solver.steps": len(steps),
        "solver.step_osc_us": percentile_us(osc, 50),
        "solver.step_osc_p90_us": percentile_us(osc, 90),
        "solver.step_eff_us": percentile_us(eff, 50),
        "solver.step_eff_p90_us": percentile_us(eff, 90),
        "solver.step_busy_s": busy("solver.advance"),
        "solver.gronwall_calls": len(calls("solver.gronwall")),
        "solver.gronwall_busy_s": busy("solver.gronwall"),
        "grid.fft_calls": len(ffts),
        "grid.fft_points": fft_points,
        "grid.fft_bytes": fft_points * BYTES_PER_FFT_POINT,
        "grid.fft_calls_per_frame": (
            sum(1 for s in ffts if in_diagnostics(s)) / frames if frames else 0.0
        ),
        "grid.fft_busy_s": busy(FFT_SPAN),
        "grid.norms_busy_s": busy("grid.norms"),
        "grid.boundary_mass_busy_s": busy("grid.boundary_mass"),
        "bohm.densities_busy_s": busy("bohm.densities"),
        "bohm.sample_busy_s": busy("bohm.sample"),
        "bohm.traj_busy_s": busy("bohm.traj"),
        "bohm.traj_velocity_evals": sum(s[7]["velocity_evals"] for s in trajs),
        "bohm.traj_escaped": sum(s[7]["escaped"] for s in trajs),
        "bohm.history_bytes": max((sum(h.values()) for h in history_by_comp.values()), default=0),
        "measure.injectivity_calls": len(calls("measure.injectivity")),
        "measure.injectivity_busy_s": busy("measure.injectivity"),
        "measure.flat_busy_s": busy("measure.flat"),
        "measure.feature_matrix_bytes": max((s[7] for s in calls("measure.features")), default=0),
        "measure.traj_dev_busy_s": busy("measure.traj_dev"),
        "potential.effective_busy_s": busy("potential.effective"),
        "potential.temporal_integral_calls": len(calls("potential.temporal_integral")),
        "potential.temporal_integral_busy_s": busy("potential.temporal_integral"),
        "fieldio.save_calls": len(calls("fieldio.save")),
        "fieldio.bytes_written": sum(s[7] for s in calls("fieldio.save")),
        "fieldio.save_busy_s": busy("fieldio.save"),
        "trace.unattributed_frac": max(0.0, 1.0 - attributed / wall) if wall > 0 else 0.0,
    }

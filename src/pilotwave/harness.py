"""Experiment orchestration: configs, epsilon sweeps, reports, emitters.

A sweep propagates the oscillating and averaged systems side by side from
the same initial state, records velocity fields on a fast-scale-resolving
mesh, integrates paired trajectory ensembles from a shared seed, and
reports every convergence metric per epsilon.  With a spare worker, the
rows of a small-grid sweep run in forked processes, longest first; on a
large grid they run one at a time, and each row steps and measures its
averaged system on the sweep's one lane thread.  All randomness comes from
per-purpose streams derived from the master seed, and processes and lanes
only move whole rows and calls, so the worker count cannot affect results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import yaml

from . import __version__
from .bohm import (
    DensityFields,
    FieldHistory,
    TrajectoryEnsemble,
    densities,
    integrate_trajectories,
    sample_initial_positions,
)
from .errors import ConfigError, MonitorAbort, UsageError
from .fieldio import save_field
from .grid import ComplexField, Grid, boundary_mass_fraction, make_grid, norms
from .measure import (
    bohmian_measure,
    flow_injectivity_monitor,
    injectivity_pairs,
    monokinetic_deviation,
    trajectory_deviation_measure,
)
from .potential import (
    SPATIAL_BUILTINS,
    TEMPORAL_BUILTINS,
    TimePeriodicPotential,
    constant_profile,
    cosine_lattice,
    effective_potential,
    gaussian_well,
    period_mean,
)
from .solver import (
    MIN_STEPS_PER_FAST_PERIOD,
    OscillatingSystem,
    WaveFunction,
    StrangStepper,
    _finalize_initial,
    check_monitors,
    gaussian_packet,
    gronwall_integrand,
    h1_distance,
    lockstep,
    side_by_side,
)

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "ConvergenceReport",
    "load_config",
    "config_from_mapping",
    "harmonic_benchmark_config",
    "run_single",
    "run_sweep",
    "emit_csv",
    "emit_json",
]

# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GridSpec:
    dim: int = 1
    n_per_axis: int = 512
    half_width: float = 16.0


@dataclass(frozen=True)
class PotentialSpec:
    temporal: str = "one_plus_cos"
    spatial: str = "harmonic"
    temporal_value: float = 1.0  # constant profile only
    well_depth: float = 1.0
    well_width: float = 1.0
    lattice_amplitude: float = 1.0
    lattice_periods: int = 4
    analytic_mean: float | None = None


@dataclass(frozen=True)
class InitialStateSpec:
    kind: str = "gaussian"
    center: tuple[float, ...] = (0.0,)
    width: float = 1.0
    momentum: tuple[float, ...] = (0.0,)
    eps_perturbation: bool = False


@dataclass(frozen=True)
class SolverSpec:
    steps_per_fast_period: int = MIN_STEPS_PER_FAST_PERIOD
    frames_per_fast_period: int = 16
    dt_cap: float = 0.01
    quad_order: int = 16


@dataclass(frozen=True)
class SweepSpec:
    horizon: float = 1.0
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    delta_list: tuple[float, ...] = (0.05,)
    ensemble_size: int = 2000
    seed: int = 20240811


@dataclass(frozen=True)
class MeasureSpec:
    dictionary_size: int = 256


@dataclass(frozen=True)
class OutputSpec:
    save_fields: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridSpec = field(default_factory=GridSpec)
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    initial_state: InitialStateSpec = field(default_factory=InitialStateSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    measure: MeasureSpec = field(default_factory=MeasureSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self) -> None:
        s = self.sweep
        eps = s.eps_list
        if not eps:
            raise ConfigError("eps_list must not be empty")
        if any(not (0.0 < e <= 1.0) for e in eps):
            raise ConfigError(f"eps values must lie in (0, 1], got {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError(f"eps_list must be strictly decreasing, got {eps}")
        if not (s.horizon > 0):
            raise ConfigError(f"horizon must be positive, got {s.horizon}")
        if s.ensemble_size < 100:
            raise ConfigError(
                f"ensemble_size must be >= 100 for measure statistics, got {s.ensemble_size}"
            )
        if any(d <= 0 for d in s.delta_list):
            raise ConfigError(f"delta values must be positive, got {s.delta_list}")
        for name, values in (("eps", eps), ("delta", s.delta_list)):
            keys = [_format_delta(v) for v in values]
            if len(set(keys)) < len(keys):
                raise ConfigError(f"{name} values {values} share a report key: {keys}")
        if self.solver.steps_per_fast_period < MIN_STEPS_PER_FAST_PERIOD:
            raise ConfigError(
                f"steps_per_fast_period must be >= {MIN_STEPS_PER_FAST_PERIOD}, "
                f"got {self.solver.steps_per_fast_period}"
            )
        if self.solver.frames_per_fast_period < 1:
            raise ConfigError("frames_per_fast_period must be >= 1")
        if self.solver.steps_per_fast_period % self.solver.frames_per_fast_period != 0:
            raise ConfigError(
                "steps_per_fast_period must be a multiple of frames_per_fast_period"
            )
        if not (self.solver.dt_cap > 0):
            raise ConfigError("dt_cap must be positive")
        if s.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {s.seed}")
        if self.measure.dictionary_size < 1:
            raise ConfigError(f"dictionary_size must be >= 1, got {self.measure.dictionary_size}")

    def to_mapping(self) -> dict[str, Any]:
        """Resolved config as plain nested dicts (defaults included)."""
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return dataclasses.replace(self, sweep=dataclasses.replace(self.sweep, seed=seed))


def config_from_mapping(data: Mapping[str, Any]) -> ExperimentConfig:
    """Build a config from nested mappings; unknown keys are errors.

    The sections are ``ExperimentConfig``'s fields.  Each value must have
    its field default's type (see ``_expected_type``); a key whose default
    is a tuple takes a YAML list.
    """
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a mapping of sections")
    sections = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, cls in sections.items():
        section = data.get(name, {})
        if section is None:
            section = {}
        if not isinstance(section, Mapping):
            raise ConfigError(f"config section '{name}' must be a mapping")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        bad = set(section) - set(defaults)
        if bad:
            raise ConfigError(
                f"unknown keys in section '{name}': {sorted(bad)} (allowed: {sorted(defaults)})"
            )
        for k, v in section.items():
            expected = _expected_type(defaults[k], v)
            if expected is not None:
                raise ConfigError(f"config key '{name}.{k}' must be {expected}, got {v!r}")
        coerced = {k: tuple(v) if isinstance(defaults[k], tuple) else v for k, v in section.items()}
        kwargs[name] = cls(**coerced)
    return ExperimentConfig(**kwargs)


def _is_number(value: Any) -> bool:
    """A finite int or float; ``.inf`` and ``.nan`` are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _expected_type(default: Any, value: Any) -> str | None:
    """What ``value`` should be in place of ``default``, or None if it fits.

    An int fits where a float belongs and is kept as it is, so the config
    hash does not move; a ``None`` default is an optional number; a tuple
    default takes a list of numbers.  Every number must be finite.  A bool
    is not a number, and a string is never converted.
    """
    if isinstance(default, tuple):
        fits = isinstance(value, (list, tuple)) and all(map(_is_number, value))
        return None if fits else "a list of finite numbers"
    if default is None:
        return None if value is None or _is_number(value) else "a finite number or null"
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return None if _is_number(value) and isinstance(value, int) else "an integer"
    if isinstance(default, float):
        return None if _is_number(value) else "a finite number"
    return None if isinstance(value, type(default)) else f"a {type(default).__name__}"


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a YAML experiment config with strict key checking.

    A file that cannot be read or parsed raises ConfigError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    return config_from_mapping(data)


def harmonic_benchmark_config(seed: int = 20240811) -> ExperimentConfig:
    """The canonical regression experiment: 1D harmonic trap with a full-swing
    cosine modulation, unit-width packet, T = 1."""
    return ExperimentConfig(sweep=SweepSpec(seed=seed))


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One eps row of a report.

    The fields before ``final_states`` are the report's columns, in the
    order of ``report.json`` and ``report.csv``.  Every metric defaults to
    NaN, which is what an invalid row reports.  A field with a tuple
    default holds (delta, value) pairs: one mapping in JSON, one
    ``<name>_delta_<delta>`` column per delta in CSV.
    """

    eps: float
    h1_wave: float = math.nan
    l1_rho: float = math.nan
    l1_current: float = math.nan
    b_eps_avg: float = math.nan
    monokinetic_dev: float = math.nan
    traj_dev: tuple[tuple[float, float], ...] = ()  # (delta, fraction) pairs
    boundary_mass: float = math.nan
    injectivity_ratio: float = math.nan
    # earliest time either ensemble's injectivity proxy tripped; NaN if never
    injectivity_first_violation: float = math.nan
    # largest share of floored velocity points over the recorded frames
    regularized_fraction_osc: float = math.nan
    regularized_fraction_eff: float = math.nan
    valid: bool
    reason: str
    wall_time: float = field(metadata={"csv": False})  # not deterministic
    # (oscillating, effective) states at the horizon; None for an invalid row
    final_states: tuple[WaveFunction, WaveFunction] | None = field(
        default=None, compare=False, repr=False
    )

    def to_mapping(self) -> dict[str, Any]:
        """The ``report.json`` row."""
        out: dict[str, Any] = {}
        for f in _COLUMNS:
            value = getattr(self, f.name)
            out[f.name] = (
                {_format_delta(d): v for d, v in value} if isinstance(f.default, tuple) else value
            )
        return out


_COLUMNS = tuple(f for f in dataclasses.fields(SweepRow) if f.compare)
_CSV_COLUMNS = tuple(f for f in _COLUMNS if f.metadata.get("csv", True))


_RATIO_METRICS = ("h1_wave", "l1_rho", "l1_current", "b_eps_avg", "monokinetic_dev")


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[SweepRow, ...]
    metadata: dict[str, Any]

    @property
    def partial(self) -> bool:
        return any(not r.valid for r in self.rows)

    def ratios(self) -> dict[str, list[float]]:
        """Consecutive decay ratios value[i+1]/value[i] per metric."""
        out: dict[str, list[float]] = {}
        for metric in _RATIO_METRICS:
            vals = [getattr(r, metric) for r in self.rows]
            ratios = []
            for a, b in zip(vals, vals[1:]):
                ratios.append(b / a if a != 0.0 and math.isfinite(a) else math.nan)
            out[metric] = ratios
        return out

    def to_mapping(self) -> dict[str, Any]:
        return {
            "metadata": self.metadata,
            "partial": self.partial,
            "rows": [r.to_mapping() for r in self.rows],
            "ratios": self.ratios(),
        }


def _format_delta(delta: float) -> str:
    """The report key of an eps or delta value; configs reject shared keys."""
    return f"{delta:g}"


# ---------------------------------------------------------------------------
# experiment construction


def build_grid(spec: GridSpec) -> Grid:
    return make_grid(spec.dim, spec.n_per_axis, spec.half_width)


def build_potential(spec: PotentialSpec, grid: Grid) -> TimePeriodicPotential:
    if spec.temporal not in TEMPORAL_BUILTINS:
        raise ConfigError(
            f"unknown temporal profile '{spec.temporal}' "
            f"(choices: {sorted(TEMPORAL_BUILTINS)})"
        )
    if spec.spatial not in SPATIAL_BUILTINS:
        raise ConfigError(
            f"unknown spatial profile '{spec.spatial}' (choices: {sorted(SPATIAL_BUILTINS)})"
        )
    temporal = (
        constant_profile(spec.temporal_value)
        if spec.temporal == "constant"
        else TEMPORAL_BUILTINS[spec.temporal]()
    )
    if spec.spatial == "gaussian_well":
        spatial = gaussian_well(spec.well_depth, spec.well_width)
    elif spec.spatial == "cosine_lattice":
        spatial = cosine_lattice(spec.lattice_amplitude, spec.lattice_periods, grid.half_width)
    else:
        spatial = SPATIAL_BUILTINS[spec.spatial]()
    return TimePeriodicPotential(temporal, spatial, analytic_mean=spec.analytic_mean)


def build_initial_state(spec: InitialStateSpec, grid: Grid, eps: float | None = None) -> WaveFunction:
    if spec.kind != "gaussian":
        raise ConfigError(f"config-driven initial states support kind 'gaussian', got '{spec.kind}'")
    psi = gaussian_packet(grid, center=spec.center, width=spec.width, momentum=spec.momentum)
    if spec.eps_perturbation and eps is not None:
        # fixed smooth bump times a unit-wavenumber phase, scaled by eps
        mesh = grid.meshgrid()
        r2 = sum(m * m for m in mesh)
        phase = sum(mesh)
        chi = np.exp(-r2 / 4.0) * np.exp(1j * phase)
        psi = _finalize_initial(grid, psi.values + eps * chi)
    return psi


def _derived_seeds(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    sampling, dictionary = np.random.SeedSequence(seed).spawn(2)
    return sampling, dictionary


def _step_plan(cfg: ExperimentConfig, eps: float) -> tuple[int, float, int]:
    """(n_steps, dt, frame_stride) with dt <= eps / steps_per_fast_period
    (the fast-period rule) and <= dt_cap, dt dividing the horizon, and a
    frame count divisible by four, so that a trajectory step spans four
    frames and its midpoint is a stored one.  Frame ``i`` is stamped
    ``(i * frame_stride) * dt``, as ``lockstep`` stamps it from t0 = 0."""
    sol = cfg.solver
    dt_max = min(eps / sol.steps_per_fast_period, sol.dt_cap)
    stride = sol.steps_per_fast_period // sol.frames_per_fast_period
    block = 4 * stride
    T = cfg.sweep.horizon
    n_steps = block * max(1, math.ceil(T / dt_max / block))
    return n_steps, T / n_steps, stride


# ---------------------------------------------------------------------------
# run drivers


def run_single(
    config: ExperimentConfig,
    eps: float,
    lane: Executor | None = None,
    *,
    _inputs: _RowInputs | None = None,
) -> SweepRow:
    """One epsilon row: paired propagation, metrics and trajectory statistics.

    Monitor aborts (boundary mass, H1 blow-up, trajectory escapes) mark the
    row invalid with a reason instead of raising.  A valid row carries its
    final states.  With a ``lane`` executor the averaged system is stepped
    and measured there, beside the oscillating one (see ``lockstep``); the
    row is the same with or without it.  ``run_sweep`` hands each row the
    inputs it has already built and checked as ``_inputs``; without them
    the row builds its own.
    """
    t_start = time.perf_counter()
    row = _row_inputs(config, eps) if _inputs is None else _inputs
    try:
        metrics, final_states = _run_single_metrics(config, eps, row, lane)
    except MonitorAbort as exc:
        return SweepRow(
            eps=eps,
            traj_dev=tuple((d, math.nan) for d in config.sweep.delta_list),
            valid=False,
            reason=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - t_start,
        )
    return SweepRow(
        eps=eps,
        valid=True,
        reason="",
        wall_time=time.perf_counter() - t_start,
        final_states=final_states,
        **metrics,
    )


@dataclass(frozen=True)
class _RowInputs:
    """What one row is built from, before its effective potential."""

    grid: Grid
    potential: TimePeriodicPotential
    psi0: WaveFunction
    n_steps: int
    dt: float
    stride: int


def _row_inputs(config: ExperimentConfig, eps: float) -> _RowInputs:
    """Grid, potential, initial state and step plan of the ``eps`` row.

    Raises the config's errors (resolution, placement, the quadrature
    order, the analytic mean); ``run_sweep`` calls it for every eps before
    any row starts, and hands each row its own.  The mean is only checked
    here: the row builds its effective potential itself.  The step plan
    keeps the fast-period rule by construction, so it is not re-checked.
    """
    grid = build_grid(config.grid)
    V = build_potential(config.potential, grid)
    period_mean(V, config.solver.quad_order)
    psi0 = build_initial_state(config.initial_state, grid, eps=eps)
    n_steps, dt, stride = _step_plan(config, eps)
    return _RowInputs(grid, V, psi0, n_steps, dt, stride)


@dataclass(frozen=True)
class _Recording:
    """What propagation leaves besides the velocity histories."""

    final_states: tuple[WaveFunction, WaveFunction]
    final_densities: tuple[DensityFields, DensityFields]
    b_eps_avg: float
    boundary_mass: float
    regularized_fraction: tuple[float, float]  # max over frames, per system


def _run_single_metrics(
    config: ExperimentConfig, eps: float, row: _RowInputs, lane: Executor | None
) -> tuple[dict[str, Any], tuple[WaveFunction, WaveFunction]]:
    """The row's stages in order: propagate and record, wave metrics,
    trajectories, measures.

    The velocity histories are the row's largest arrays; the trajectory
    stage is their last user, so they are gone before the flat distance.
    """
    recording, velocity_frames = _propagate_and_record(config, eps, row, lane)
    metrics = _wave_metrics(recording)
    ensembles = _trajectories(config, row, *velocity_frames)
    del velocity_frames
    metrics.update(_measures(config, recording, ensembles))
    return metrics, recording.final_states


def _propagate_and_record(
    config: ExperimentConfig, eps: float, row: _RowInputs, lane: Executor | None
) -> tuple[_Recording, tuple[np.ndarray, np.ndarray]]:
    """Step both systems side by side; at every frame run the monitors, and
    at every second frame record the velocity fields.  Returns the
    recording and the velocity histories (oscillating, effective).

    The trajectory step is four frames (``_step_plan``), so its RK4 stages
    read only the even frames; the odd ones are measured, never stored.

    With a ``lane``, the effective system's steps and frame densities run
    on it; the monitors, the Gronwall term and the history writes stay on
    the calling thread."""
    grid, V, psi0 = row.grid, row.potential, row.psi0
    Vstar = effective_potential(V, grid, config.solver.quad_order)
    steppers = (
        StrangStepper(OscillatingSystem(V, eps), grid, row.dt),
        StrangStepper(Vstar, grid, row.dt),
    )

    n_frames = row.n_steps // row.stride
    u_osc = np.empty((n_frames // 2 + 1, grid.dim) + grid.shape)
    u_eff = np.empty((n_frames // 2 + 1, grid.dim) + grid.shape)

    h1_initial = norms(psi0.field).h1
    b_horizon = min(1.0, config.sweep.horizon) * (1.0 + 1e-12)
    boundary_max = 0.0
    reg_max = [0.0, 0.0]
    b_vals: list[float] = []
    final_densities = None

    def record(frame: int, t: float, states: tuple[np.ndarray, ...]) -> None:
        nonlocal boundary_max, final_densities
        wf_o, wf_e = (WaveFunction(ComplexField._adopt(grid, v), t) for v in states)
        d_o, d_e = side_by_side(lane, densities, (wf_o, wf_e))
        for i, (wf, d) in enumerate(((wf_o, d_o), (wf_e, d_e))):
            bmass = boundary_mass_fraction(wf.field)
            boundary_max = max(boundary_max, bmass)
            check_monitors(bmass, d.h1, h1_initial, t)
            reg_max[i] = max(reg_max[i], d.regularized_fraction)
        if frame % 2 == 0:
            u_osc[frame // 2] = d_o.velocity
            u_eff[frame // 2] = d_e.velocity
        if t <= b_horizon:
            b_vals.append(gronwall_integrand(wf_o, wf_e, V, Vstar, eps, t, w=steppers[0].w))
        if frame == n_frames:
            final_densities = (d_o, d_e)

    finals = lockstep(
        steppers, (psi0.values, psi0.values), 0.0, row.n_steps, row.stride, record, lane=lane
    )
    T = config.sweep.horizon
    recording = _Recording(
        final_states=tuple(WaveFunction(ComplexField._adopt(grid, v), T) for v in finals),
        final_densities=final_densities,
        b_eps_avg=float(np.mean(b_vals)),
        boundary_mass=boundary_max,
        regularized_fraction=tuple(reg_max),
    )
    return recording, (u_osc, u_eff)


def _wave_metrics(recording: _Recording) -> dict[str, Any]:
    """H1 distance of the final states, L1 distances of their densities."""
    wf_osc, wf_eff = recording.final_states
    dens_osc, dens_eff = recording.final_densities
    dv = wf_osc.grid.cell_volume
    j_diff = dens_osc.current - dens_eff.current
    return {
        "h1_wave": h1_distance(wf_osc, wf_eff),
        "l1_rho": float(np.sum(np.abs(dens_osc.rho - dens_eff.rho)) * dv),
        "l1_current": float(np.sum(np.sqrt(np.sum(j_diff * j_diff, axis=0))) * dv),
        "b_eps_avg": recording.b_eps_avg,
        "boundary_mass": recording.boundary_mass,
        "regularized_fraction_osc": recording.regularized_fraction[0],
        "regularized_fraction_eff": recording.regularized_fraction[1],
    }


def _trajectories(
    config: ExperimentConfig, row: _RowInputs, u_osc: np.ndarray, u_eff: np.ndarray
) -> tuple[TrajectoryEnsemble, TrajectoryEnsemble]:
    """Paired ensembles from one seeded sample of the initial density, one
    through each velocity history; the histories die with this stage.  The
    stored frames' times come from the step plan, bit for bit as
    ``lockstep`` stamped them.  An RK4 step spans two history intervals,
    so its midpoint is a stored frame."""
    sampling_seed, _ = _derived_seeds(config.sweep.seed)
    x0 = sample_initial_positions(
        np.abs(row.psi0.values) ** 2, row.grid, config.sweep.ensemble_size, sampling_seed
    )
    history_times = np.arange(0, row.n_steps + 1, 2 * row.stride) * row.dt
    out_times = history_times[::2]
    return (
        integrate_trajectories(FieldHistory(row.grid, history_times, u_osc), x0, out_times),
        integrate_trajectories(FieldHistory(row.grid, history_times, u_eff), x0, out_times),
    )


def _measures(
    config: ExperimentConfig,
    recording: _Recording,
    ensembles: tuple[TrajectoryEnsemble, TrajectoryEnsemble],
) -> dict[str, Any]:
    """Mono-kinetic flat distance, deviation fractions and flow injectivity."""
    _, dictionary_seed = _derived_seeds(config.sweep.seed)
    dens_osc, dens_eff = recording.final_densities
    mono_dev = monokinetic_deviation(
        bohmian_measure(dens_osc),
        dens_eff,
        dictionary_size=config.measure.dictionary_size,
        seed=dictionary_seed,
    )
    ens_osc, ens_eff = ensembles
    traj_dev = tuple(
        (d, trajectory_deviation_measure(ens_osc, ens_eff, d))
        for d in config.sweep.delta_list
    )
    # both ensembles start from the same points: one pair list serves both
    # unless a sample escaped from one and not the other
    pairs = injectivity_pairs(ens_osc)
    reports = [
        flow_injectivity_monitor(ens, pairs=pairs if pairs.fits(ens) else None)
        for ens in ensembles
    ]
    violations = [r.first_violation_time for r in reports if r.first_violation_time is not None]
    return {
        "monokinetic_dev": mono_dev,
        "traj_dev": traj_dev,
        "injectivity_ratio": min(r.min_pair_separation_ratio for r in reports),
        "injectivity_first_violation": min(violations, default=math.nan),
    }


# Grids below this many points step too fast for a lane to pay for its
# hand-offs.  The placement and resolution rules admit no Gaussian row
# below n = 256 per axis, so every 2D and 3D row takes the lane when a
# second worker is allowed, and no 1D row does.
LANE_MIN_POINTS = 2**16


def _default_workers() -> int:
    """CPUs this process may run on; ``os.cpu_count()`` where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_sweep(
    config: ExperimentConfig,
    threads: int | None = None,
    out_dir: str | Path | None = None,
) -> ConvergenceReport:
    """Run every epsilon row and assemble the report, rows in ``eps_list`` order.

    ``threads`` is the worker count; it defaults to the number of CPUs this
    process may run on, and a count below 1 raises ConfigError.  On a grid
    below ``LANE_MIN_POINTS`` points (every 1D grid), a sweep of two or more
    rows with two or more workers runs its rows in forked processes, longest
    first (see ``_run_forked``).  Otherwise the rows run one at a time on
    the calling thread, and with at least two workers on a large grid the
    sweep opens one helper thread, on which each row in turn steps and
    measures its averaged system (see ``run_single``).  A multi-row large
    grid stays serial: two such rows at once would double the memory of a
    row.  The count never changes a result.

    Every row's grid, potential, initial state and step plan are built and
    checked first, then ``out_dir`` is created, so a config error or an
    unusable output directory raises ConfigError before any row starts;
    each row then runs from what was built, and the serial rows drop what
    was built for them once they have run.  A row that raises (other than
    a monitor abort, which makes it invalid) ends the sweep with no report.

    When ``out_dir`` is given, report.csv and report.json are written there,
    then, when the config asks for them, the final-state field snapshots of
    every valid row (each row's own final states).
    """
    if threads is not None and threads < 1:
        raise ConfigError(f"the worker count must be >= 1, got {threads}")
    eps_list = config.sweep.eps_list
    # config errors surface here, before any row starts
    row_inputs = [_row_inputs(config, eps) for eps in eps_list]
    dt_per_eps = {_format_delta(e): inputs.dt for e, inputs in zip(eps_list, row_inputs)}
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {out}: {exc.strerror or exc}") from exc
    workers = threads or _default_workers()
    small_grid = config.grid.n_per_axis**config.grid.dim < LANE_MIN_POINTS
    processes = min(workers, len(eps_list)) if small_grid else 1

    if processes >= 2:
        rows = _run_forked(config, row_inputs, processes)
    else:
        # the lane thread is joined on every way out
        with ThreadPoolExecutor(max_workers=1) if workers >= 2 and not small_grid else nullcontext() as lane:
            # each row takes its inputs out of the list, so none outlives its row
            rows = [run_single(config, eps, lane, _inputs=row_inputs.pop(0)) for eps in eps_list]

    metadata = {
        "config_hash": config.config_hash(),
        "code_version": __version__,
        "config": config.to_mapping(),
        "dt_per_eps": dt_per_eps,
    }
    report = ConvergenceReport(rows=tuple(rows), metadata=metadata)

    if out is not None:
        emit_csv(report, out / "report.csv")
        emit_json(report, out / "report.json")
        if config.output.save_fields:
            for i, row in enumerate(rows):
                if row.valid:
                    wf_osc, wf_eff = row.final_states
                    save_field(out / f"psi_eps{i}_oscillating.field", wf_osc)
                    save_field(out / f"psi_eps{i}_effective.field", wf_eff)
    return report


# The config and row inputs of the forked sweep in progress.  The children
# inherit them through the fork: the potentials hold lambdas, which do not
# pickle, so only bin indices and finished rows cross the pipe.
_FORKED: tuple[ExperimentConfig, list[_RowInputs]] | None = None


def _deal_longest_first(n_steps: list[int], bins: int) -> list[list[int]]:
    """Row indices dealt longest first, each into the least loaded of
    ``bins`` bins (the first such on a tie); bin 0 holds the longest row.
    The split depends only on the step counts."""
    loads = [0] * bins
    dealt: list[list[int]] = [[] for _ in range(bins)]
    for i in sorted(range(len(n_steps)), key=lambda i: -n_steps[i]):
        b = loads.index(min(loads))
        dealt[b].append(i)
        loads[b] += n_steps[i]
    return dealt


def _run_rows(indices: list[int]) -> list[SweepRow]:
    """The rows ``indices`` of the forked sweep, run one after another."""
    config, row_inputs = _FORKED
    return [run_single(config, config.sweep.eps_list[i], _inputs=row_inputs[i]) for i in indices]


def _fork_pool(processes: int) -> Executor:
    # imported here: multiprocessing would add to every start-up
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    return ProcessPoolExecutor(processes, mp_context=get_context("fork"))


def _run_forked(config: ExperimentConfig, row_inputs: list[_RowInputs], workers: int) -> list[SweepRow]:
    """Every row, dealt into ``workers`` bins: the calling process runs bin
    0, and a fork pool of ``workers - 1`` processes the others, one task per
    bin.  A child's exception reaches the caller as raised; a child that
    dies raises ``BrokenProcessPool``.  Rows come back in ``eps_list`` order."""
    global _FORKED
    bins = _deal_longest_first([inputs.n_steps for inputs in row_inputs], workers)
    _FORKED = (config, row_inputs)
    try:
        with _fork_pool(workers - 1) as pool:
            futures = [pool.submit(_run_rows, b) for b in bins[1:]]
            rows = dict(zip(bins[0], _run_rows(bins[0])))
            for b, future in zip(bins[1:], futures):
                rows.update(zip(b, future.result()))
    finally:
        _FORKED = None
    return [rows[i] for i in range(len(row_inputs))]


# ---------------------------------------------------------------------------
# emitters (17 significant digits everywhere)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_cells(row: SweepRow) -> dict[str, str]:
    """The ``report.json`` row without its JSON-only columns, each per-delta
    mapping spread over ``<name>_delta_<delta>`` cells."""
    mapping = row.to_mapping()
    cells: dict[str, str] = {}
    for f in _CSV_COLUMNS:
        value = mapping[f.name]
        if isinstance(value, Mapping):
            cells.update((f"{f.name}_delta_{d}", _fmt(v)) for d, v in value.items())
        elif isinstance(value, bool):
            cells[f.name] = "true" if value else "false"
        elif isinstance(value, str):
            cells[f.name] = value.replace(",", ";")
        else:
            cells[f.name] = _fmt(value)
    return cells


def emit_csv(report: ConvergenceReport, path: str | Path) -> None:
    rows = [_csv_cells(r) for r in report.rows]
    # the per-delta columns follow the rows' deltas; an empty report has none
    header = list(rows[0]) if rows else [
        f.name for f in _CSV_COLUMNS if not isinstance(f.default, tuple)
    ]
    lines = [",".join(header)] + [",".join(cells.values()) for cells in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_json(report: ConvergenceReport, path: str | Path) -> None:
    Path(path).write_text(_json_text(report.to_mapping()) + "\n", encoding="utf-8")


def _json_text(obj: Any, indent: int = 0) -> str:
    """JSON writer with floats at 17 significant digits (round-trip exact)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return _fmt(x)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise UsageError(f"cannot serialize {type(obj).__name__} to report JSON")

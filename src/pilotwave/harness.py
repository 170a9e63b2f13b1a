"""Experiment orchestration: configs, epsilon sweeps, reports, emitters.

A sweep propagates the oscillating and averaged systems side by side from
the same initial state, records velocity fields on a fast-scale-resolving
mesh, integrates paired trajectory ensembles from a shared seed, and
reports every convergence metric per epsilon.  The config is checked
once; then every row builds its own inputs, in whichever process runs it.
With a spare worker, the rows of a small-grid sweep are dealt longest
first to the calling process and forked ones; on a large grid they run
one at a time, and a second worker gives them the sweep's one lane
thread, which steps and measures each row's averaged system.  All
randomness comes from per-purpose streams derived from the master seed,
and processes and the lane only move whole rows and calls, so the worker
count cannot affect results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Mapping

import numpy as np
import numpy.random  # loaded with the package, so that no row pays the import
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
from .grid import Grid, _import_nd_backends, boundary_mass_fraction, make_grid, norms
from .measure import (
    bohmian_measure,
    flow_injectivity_monitor,
    monokinetic_deviation,
    trajectory_deviation_measure,
)
from .potential import (
    SPATIAL_BUILTINS,
    TEMPORAL_BUILTINS,
    SUBQUADRATIC_BOUND,
    TimePeriodicPotential,
    check_subquadratic,
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
        for section in dataclasses.fields(self):
            spec, kind = getattr(self, section.name), section.default_factory
            if not isinstance(spec, kind):
                raise ConfigError(f"config section '{section.name}' must be a {kind.__name__}")
            for f in dataclasses.fields(kind):
                value = getattr(spec, f.name)
                if expected := _expected_type(f.default, value):
                    key = f"{section.name}.{f.name}"
                    raise ConfigError(f"config key '{key}' must be {expected}, got {value!r}")
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
        if self.grid.dim > 1:  # scipy loads here, not inside a row
            _import_nd_backends()

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

    The sections are ``ExperimentConfig``'s fields.  A list becomes a
    tuple and every other value is passed as given: ``ExperimentConfig``
    checks them all (see ``_expected_type``).
    """
    if not isinstance(data, Mapping):
        raise ConfigError("config root must be a mapping of sections")
    sections = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown, key=repr)}")
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
                f"unknown keys in section '{name}': {sorted(bad, key=repr)} (allowed: {sorted(defaults)})"
            )
        coerced = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
        kwargs[name] = cls(**coerced)
    return ExperimentConfig(**kwargs)


def _is_number(value: Any) -> bool:
    """An int or a float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expected_type(default: Any, value: Any) -> str | None:
    """What config ``value`` should be in place of ``default``, or None.

    An int fits where a float belongs and is kept as it is, so the config
    hash does not move; a ``None`` default is an optional number; a tuple
    default takes a list or tuple of numbers.  A bool is not a number, a
    string is never converted, a numpy scalar fits only as ``np.float64``,
    and a float, alone or in a list, must be finite.
    """
    values = value if isinstance(value, (list, tuple)) else (value,)
    finite = None if all(math.isfinite(v) for v in values if isinstance(v, float)) else "finite"
    if isinstance(default, tuple):
        fits = isinstance(value, (list, tuple)) and all(map(_is_number, value))
        return finite if fits else "a list of numbers"
    if default is None:
        return finite if value is None or _is_number(value) else "a number or null"
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return None if _is_number(value) and isinstance(value, int) else "an integer"
    if isinstance(default, float):
        return finite if _is_number(value) else "a number"
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

    # Field by field over the columns, NaN equal to NaN: a row that crossed
    # a process pipe or was copied holds new NaN objects, and plain tuple
    # comparison would find it unequal to itself.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepRow):
            return NotImplemented
        return _nan_free(self) == _nan_free(other)

    def __hash__(self) -> int:
        return hash(_nan_free(self))


_COLUMNS = tuple(f for f in dataclasses.fields(SweepRow) if f.compare)
_CSV_COLUMNS = tuple(f for f in _COLUMNS if f.metadata.get("csv", True))


def _nan_free(value: Any) -> Any:
    """A row's columns, or a value, with each NaN replaced by None."""
    if isinstance(value, SweepRow):
        return tuple(_nan_free(getattr(value, f.name)) for f in _COLUMNS)
    if isinstance(value, tuple):
        return tuple(_nan_free(v) for v in value)
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


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
    if spec.analytic_mean is not None:
        temporal = dataclasses.replace(temporal, mean=spec.analytic_mean)
    return TimePeriodicPotential(temporal, spatial)


def build_initial_state(spec: InitialStateSpec, grid: Grid, eps: float) -> WaveFunction:
    if spec.kind != "gaussian":
        raise ConfigError(f"config-driven initial states support kind 'gaussian', got '{spec.kind}'")
    psi = gaussian_packet(grid, center=spec.center, width=spec.width, momentum=spec.momentum)
    if spec.eps_perturbation:
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


def run_single(config: ExperimentConfig, eps: float, lane: Executor | None = None) -> SweepRow:
    """One epsilon row: paired propagation, metrics and trajectory statistics.

    The row builds its own inputs (``_row_inputs``) and drops them when it
    returns; it checks no config, so ``run_sweep`` is the way to run rows.
    Its stages run in order: propagate and record, wave metrics,
    trajectories, measures.  The velocity histories are the row's largest
    arrays; the trajectory stage is their last user, so they are gone
    before the flat distance, and the steppers are gone before the wave
    metrics.  Monitor aborts (boundary mass, H1 blow-up, trajectory
    escapes) mark the row invalid with a reason instead of raising.  A
    valid row carries its final states.  With a ``lane`` executor, on a
    grid of at least ``LANE_MIN_POINTS`` points, the averaged system is
    stepped and measured there, beside the oscillating one (see
    ``lockstep``), and the Gronwall term is computed there; nothing else
    uses it.  The lane moves calls, never changes them: the row makes the
    same calls with the same arguments with or without it, and no task it
    puts on the lane outlives it.
    """
    t_start = time.perf_counter()
    row = _row_inputs(config, eps)
    try:
        metrics, final_states, final_fields, velocity = _propagate_and_record(config, eps, row, lane)
        metrics.update(_wave_metrics(final_states, final_fields))
        ensembles = _trajectories(config, row, velocity)
        del velocity
        metrics.update(_measures(config, final_fields, ensembles))
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

    Builds only: ``_check_config`` has checked the config before any row,
    and the row meets the quadrature mean's errors again in its own
    ``effective_potential``.  The step plan keeps the fast-period rule by
    construction.
    """
    grid = build_grid(config.grid)
    V = build_potential(config.potential, grid)
    psi0 = build_initial_state(config.initial_state, grid, eps=eps)
    return _RowInputs(grid, V, psi0, *_step_plan(config, eps))


def _check_config(config: ExperimentConfig) -> None:
    """Raise the config's errors once, before any row: quadrature order,
    analytic mean, the theorem's hypotheses (for every eps or none), then
    each eps's initial state (resolution and placement)."""
    grid = build_grid(config.grid)
    V = build_potential(config.potential, grid)
    period_mean(V, config.solver.quad_order)
    bounds = check_subquadratic(V, grid)
    if not bounds.ok:
        raise ConfigError(
            f"the potential is outside the convergence theorem's hypotheses: "
            f"max |a| * max |d^2 W| = {bounds.max_second_derivative:.6g} "
            f"(bound {SUBQUADRATIC_BOUND:g}), min V = {bounds.min_value:.6g} (must be finite)"
        )
    for eps in config.sweep.eps_list:
        build_initial_state(config.initial_state, grid, eps=eps)


def _propagate_and_record(
    config: ExperimentConfig, eps: float, row: _RowInputs, lane: Executor | None
) -> tuple[dict[str, float], tuple[WaveFunction, ...], tuple[DensityFields, ...], np.ndarray]:
    """Step the row's systems side by side, the oscillating one first and
    the averaged one second; at every frame run the monitors, and at every
    second frame record the velocity fields.  Returns the monitor metrics
    (Gronwall term, boundary mass, regularized fractions), the final states
    and their density fields, one per system in order, and the velocity
    histories, one ``(len(systems), frames // 2 + 1, dim, *grid.shape)``
    array whose row ``i`` is system ``i``'s.

    The trajectory step is four frames (``_step_plan``), so its RK4 stages
    read only the even frames; the odd ones are measured, never stored.

    Each stepper marches a stack: on a grid below ``LANE_MIN_POINTS``
    points one stepper marches every system's state as a row of one stack,
    and the lane takes no part here (one stack leaves it nothing, and on
    such a grid a frame's Gronwall term costs less than its hand-off); on a
    larger grid each system has its own one-row stack, and the steppers
    share one kinetic factor.  Each frame measures each stack in one pass; the
    monitors still judge each state.  On a large grid with a ``lane``, the
    effective system's steps and frame densities run on it, and so does
    each frame's Gronwall term: the lane takes tasks in order, so a frame's
    term runs just before the effective system's next stride, which is
    shorter than the oscillating one.  The terms keep frame order, and
    every one has ended or been cancelled before this returns or raises.
    The monitors and the history writes stay on the calling thread.  Either
    way every state gets the same bits."""
    grid, V, psi0 = row.grid, row.potential, row.psi0
    Vstar = effective_potential(V, grid, config.solver.quad_order)
    systems = (OscillatingSystem(V, eps), Vstar)
    groups = [systems] if grid.size < LANE_MIN_POINTS else [(s,) for s in systems]
    if len(groups) == 1:
        lane = None
    steppers = [StrangStepper(groups[0], grid, row.dt)]
    steppers += [StrangStepper(g, grid, row.dt, _kin=steppers[0].kin) for g in groups[1:]]
    start = [np.broadcast_to(psi0.values, (len(group),) + grid.shape) for group in groups]

    n_frames = row.n_steps // row.stride
    velocity = np.empty((len(systems), n_frames // 2 + 1, grid.dim) + grid.shape)

    h1_initial = norms(grid, psi0.values).h1
    b_horizon = min(1.0, config.sweep.horizon) * (1.0 + 1e-12)
    boundary_max = 0.0
    reg_max = [0.0] * len(systems)
    b_vals: list[float] = []
    b_futures: list[Future] = []  # with a lane, in place of b_vals until the end
    final_fields = None

    def record(frame: int, t: float, states: tuple[np.ndarray, ...]) -> None:
        nonlocal boundary_max, final_fields
        stacks = [WaveFunction._adopt_rows(grid, s, t) for s in states]
        fields = sum(side_by_side(lane, densities, stacks), ())
        for i, d in enumerate(fields):
            bmass = boundary_mass_fraction(grid, d.rho)
            boundary_max = max(boundary_max, bmass)
            check_monitors(bmass, d.h1, h1_initial, t)
            reg_max[i] = max(reg_max[i], d.regularized_fraction)
            if frame % 2 == 0:
                velocity[i, frame // 2] = d.velocity
        if t <= b_horizon:
            term = (*sum(stacks, ())[:2], *systems)
            if lane is None:
                b_vals.append(gronwall_integrand(*term, w=steppers[0].w))
            else:
                b_futures.append(lane.submit(gronwall_integrand, *term, w=steppers[0].w))
        if frame == n_frames:
            final_fields = fields

    try:
        finals = lockstep(steppers, start, 0.0, row.n_steps, row.stride, record, lane=lane)
        b_vals.extend(f.result() for f in b_futures)
    finally:
        # no lane task outlives its row, a monitor abort included
        for f in b_futures:
            f.cancel()
        wait(b_futures)
    metrics = {
        "b_eps_avg": float(np.mean(b_vals)),
        "boundary_mass": boundary_max,
        "regularized_fraction_osc": reg_max[0],
        "regularized_fraction_eff": reg_max[1],
    }
    T = config.sweep.horizon
    final_states = sum((WaveFunction._adopt_rows(grid, s, T) for s in finals), ())
    return metrics, final_states, final_fields, velocity


def _wave_metrics(
    final_states: tuple[WaveFunction, ...], final_fields: tuple[DensityFields, ...]
) -> dict[str, float]:
    """H1 distance of the oscillating and averaged final states, L1
    distances of their densities."""
    osc, eff = final_fields[:2]
    dv = osc.grid.cell_volume
    j_diff = osc.current - eff.current
    return {
        "h1_wave": h1_distance(*final_states[:2]),
        "l1_rho": float(np.sum(np.abs(osc.rho - eff.rho)) * dv),
        "l1_current": float(np.sum(np.sqrt(np.sum(j_diff * j_diff, axis=0))) * dv),
    }


def _trajectories(
    config: ExperimentConfig, row: _RowInputs, velocity: np.ndarray
) -> list[TrajectoryEnsemble]:
    """One ensemble per system from one seeded sample of the initial
    density, each through its row of ``velocity``.  The stored frames'
    times come from the step plan, bit for bit as ``lockstep`` stamped
    them.  An RK4 step spans two history intervals, so its midpoint is a
    stored frame.  Every history stays alive until the last integration
    ends, so no two share an ``id`` of their values."""
    sampling_seed, _ = _derived_seeds(config.sweep.seed)
    x0 = sample_initial_positions(
        np.abs(row.psi0.values) ** 2, row.grid, config.sweep.ensemble_size, sampling_seed
    )
    history_times = np.arange(0, row.n_steps + 1, 2 * row.stride) * row.dt
    out_times = history_times[::2]
    histories = [FieldHistory(row.grid, history_times, u) for u in velocity]
    return [integrate_trajectories(h, x0, out_times) for h in histories]


def _measures(
    config: ExperimentConfig,
    final_fields: tuple[DensityFields, ...],
    ensembles: list[TrajectoryEnsemble],
) -> dict[str, Any]:
    """Mono-kinetic flat distance and deviation fractions of the
    oscillating system against the averaged one, and the flow injectivity
    of every ensemble, in order; each monitor pairs that ensemble's own
    valid samples."""
    _, dictionary_seed = _derived_seeds(config.sweep.seed)
    mono_dev = monokinetic_deviation(
        bohmian_measure(final_fields[0]),
        final_fields[1],
        dictionary_size=config.measure.dictionary_size,
        seed=dictionary_seed,
    )
    traj_dev = trajectory_deviation_measure(*ensembles[:2], config.sweep.delta_list)
    reports = [flow_injectivity_monitor(ens) for ens in ensembles]
    violations = [r.first_violation_time for r in reports if r.first_violation_time is not None]
    return {
        "monokinetic_dev": mono_dev,
        "traj_dev": tuple(zip(config.sweep.delta_list, traj_dev)),
        "injectivity_ratio": min(r.min_pair_separation_ratio for r in reports),
        "injectivity_first_violation": min(violations, default=math.nan),
    }


# Grids below this many points step too fast for a lane to pay for its
# hand-offs; a row on such a grid marches its two systems as one stack
# instead, and a sweep on it opens no lane.  The placement and resolution
# rules admit no Gaussian row below n = 256 per axis, so every 2D and 3D
# row propagates with the lane when a second worker is allowed; a 1D row
# marches as one stack up to n = 32768, and a 1D grid of 65536 points or
# more takes the large-grid path, lane included.
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

    ``threads`` is the worker count, the CPUs this process may run on when
    None; any other value than a plain int >= 1 raises ConfigError.  On a grid
    below ``LANE_MIN_POINTS`` points (a 1D grid of at most 32768 points;
    no 2D or 3D grid the rules admit), the rows are dealt by step count
    into ``min(workers, rows)`` bins, longest first
    (``_deal_longest_first``); on a larger grid, a 1D one of 65536 points
    or more included, they form one bin.  The calling process runs bin 0
    and a fork pool runs every other bin (see ``_run_rows``).  On a larger
    grid with a second worker the sweep opens one helper thread, the lane,
    where each row in turn steps and measures its averaged system (see
    ``run_single``).  A multi-row large grid stays in one bin: two such
    rows at once would double the memory of a row.  The count never
    changes a result.

    The config is checked (``_check_config``), then ``out_dir`` is created,
    so a config error or an unusable output directory raises ConfigError
    before any row starts; each row builds its own inputs.  A row that
    raises (other than a monitor abort, which makes it invalid) ends the
    sweep with no report.

    When ``out_dir`` is given, report.csv and report.json are written there,
    then, when the config asks for them, the final-state field snapshots of
    every valid row (each row's own final states).  A write that fails
    removes the files written before it and raises ConfigError naming its
    path.
    """
    rule = None if threads is None else _expected_type(1, threads) or (">= 1" if threads < 1 else None)
    if rule:
        raise ConfigError(f"the worker count must be {rule}, got {threads!r}")
    eps_list = config.sweep.eps_list
    _check_config(config)
    plans = [_step_plan(config, eps) for eps in eps_list]
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {out}: {exc.strerror or exc}") from exc
    workers = threads or _default_workers()
    small_grid = config.grid.n_per_axis**config.grid.dim < LANE_MIN_POINTS
    processes = min(workers, len(eps_list)) if small_grid else 1
    bins = _deal_longest_first([n_steps for n_steps, _, _ in plans], processes)
    # the lane thread and the pool are shut down on every way out
    with (
        ThreadPoolExecutor(max_workers=1) if workers > 1 and not small_grid else nullcontext() as lane,
        _fork_pool(len(bins) - 1) if len(bins) > 1 else nullcontext() as pool,
    ):
        futures = [pool.submit(_run_rows, config, b) for b in bins[1:]]
        by_index = dict(zip(bins[0], _run_rows(config, bins[0], lane)))
        for b, future in zip(bins[1:], futures):
            by_index.update(zip(b, future.result()))
    rows = [by_index[i] for i in range(len(eps_list))]

    metadata = {
        "config_hash": config.config_hash(),
        "code_version": __version__,
        "config": config.to_mapping(),
        "dt_per_eps": {_format_delta(e): dt for e, (_, dt, _) in zip(eps_list, plans)},
    }
    report = ConvergenceReport(rows=tuple(rows), metadata=metadata)

    if out is not None:
        _write_outputs(report, out, config.output.save_fields)
    return report


def _write_outputs(report: ConvergenceReport, out: Path, save_fields: bool) -> None:
    """``run_sweep``'s files, in order; a write that fails removes those
    written before it and its own partial file (a directory in its way is
    left alone), then raises ConfigError naming its path."""
    writes = [
        (out / "report.csv", partial(emit_csv, report)),
        (out / "report.json", partial(emit_json, report)),
    ]
    for i, row in enumerate(report.rows):
        if save_fields and row.valid:
            for kind, wf in zip(("oscillating", "effective"), row.final_states):
                writes.append((out / f"psi_eps{i}_{kind}.field", partial(save_field, wf=wf)))
    for k, (path, write) in enumerate(writes):
        try:
            write(path)
        except OSError as exc:
            for done, _ in writes[: k + 1]:
                if not done.is_dir():
                    done.unlink(missing_ok=True)
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _deal_longest_first(n_steps: list[int], bins: int) -> list[list[int]]:
    """Row indices dealt longest first, each into the least loaded of
    ``bins`` bins (the first such on a tie); bin 0 holds the longest row,
    and each bin lists its rows in ``eps_list`` order.  The split depends
    only on the step counts."""
    loads = [0] * bins
    dealt: list[list[int]] = [[] for _ in range(bins)]
    for i in sorted(range(len(n_steps)), key=lambda i: -n_steps[i]):
        b = loads.index(min(loads))
        dealt[b].append(i)
        loads[b] += n_steps[i]
    return [sorted(b) for b in dealt]


def _run_rows(
    config: ExperimentConfig, indices: list[int], lane: Executor | None = None
) -> list[SweepRow]:
    """The rows ``indices`` of ``config``'s sweep, one after another, each
    through ``run_single`` with ``lane``.  This is every row's one path:
    the calling process runs bin 0 here, and a fork pool child runs its
    bin here with no lane.  Only the config and a bin's indices cross the
    pipe, so a child needs nothing it inherits; its exception reaches the
    caller as raised, and a child that dies raises ``BrokenProcessPool``."""
    return [run_single(config, config.sweep.eps_list[i], lane) for i in indices]


def _fork_pool(processes: int) -> Executor:
    # imported here: multiprocessing would add to every start-up
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    return ProcessPoolExecutor(processes, mp_context=get_context("fork"))


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
        text = _fmt(x)  # an integral float keeps its point, so it reloads as a float
        return text if "." in text or "e" in text else f"{text}.0"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise UsageError(f"cannot serialize {type(obj).__name__} to report JSON")

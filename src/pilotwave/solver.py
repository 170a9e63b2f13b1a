"""Strang-split spectral propagation for the oscillating and averaged systems.

Units: hbar = m = 1, Hamiltonian -0.5*Laplacian + V.  One Strang step is
half kinetic / full potential phase / half kinetic; the potential phase for
the fast-oscillating system uses the exact time integral of the temporal
factor over the step, so the oscillation is never aliased regardless of dt.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import (
    BoundaryMassExceeded,
    ConfigError,
    PlacementError,
    ResolutionError,
    UsageError,
    WaveBlowUp,
)
from .grid import ComplexField, Grid, boundary_mass_fraction, norms, spectral_laplacian
from .potential import StaticPotential, TimePeriodicPotential

__all__ = [
    "WaveFunction",
    "MIN_STEPS_PER_FAST_PERIOD",
    "OscillatingSystem",
    "gaussian_packet",
    "wkb_state",
    "StrangStepper",
    "lockstep",
    "side_by_side",
    "propagate",
    "h1_distance",
    "gronwall_integrand",
]

BOUNDARY_MASS_TOL = 1e-8
BLOWUP_FACTOR = 10.0
MIN_POINTS_PER_WIDTH = 8
# The fast-period floor: an oscillating system is stepped with
# dt <= eps / MIN_STEPS_PER_FAST_PERIOD, so that each unit period of its
# temporal factor spans at least this many steps.  ``propagate`` checks it,
# and ``ExperimentConfig`` holds ``steps_per_fast_period`` to it.
MIN_STEPS_PER_FAST_PERIOD = 32

_In = TypeVar("_In")
_Out = TypeVar("_Out")


@dataclass(frozen=True)
class WaveFunction:
    """Complex field snapshot with its time stamp."""

    field: ComplexField
    time: float

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values


@dataclass(frozen=True)
class OscillatingSystem:
    """The potential ``a(t/eps) W(x)``; its averaged system is a ``StaticPotential``."""

    potential: TimePeriodicPotential
    eps: float

    def __post_init__(self) -> None:
        if not (0 < self.eps < math.inf):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")


# ---------------------------------------------------------------------------
# initial states


def gaussian_packet(
    grid: Grid,
    center: Sequence[float] | float = 0.0,
    width: float = 1.0,
    momentum: Sequence[float] | float = 0.0,
) -> WaveFunction:
    """Normalized Gaussian (2 pi w^2)^(-N/4) exp(-|x-c|^2/4w^2) exp(i k.x)."""
    c = _as_vector(grid, center, "center")
    k0 = _as_vector(grid, momentum, "momentum")
    if not (width > 0):
        raise ConfigError(f"width must be positive, got {width}")
    if width < MIN_POINTS_PER_WIDTH * grid.dx:
        raise ResolutionError(
            f"packet width {width} spans fewer than {MIN_POINTS_PER_WIDTH} grid "
            f"points (dx={grid.dx}); refine the grid"
        )
    mesh = grid.meshgrid()
    r2 = sum((m - ci) ** 2 for m, ci in zip(mesh, c))
    phase = sum(ki * m for m, ki in zip(mesh, k0))
    amp = (2.0 * np.pi * width**2) ** (-grid.dim / 4.0)
    values = amp * np.exp(-r2 / (4.0 * width**2)) * np.exp(1j * phase)
    return _finalize_initial(grid, values)


def wkb_state(
    grid: Grid,
    sqrt_density: Callable[[list[np.ndarray]], np.ndarray],
    phase: Callable[[list[np.ndarray]], np.ndarray] | None = None,
) -> WaveFunction:
    """WKB state sqrt(rho0)(x) * exp(i S0(x)) from amplitude/phase callables."""
    mesh = grid.meshgrid()
    amp = np.asarray(sqrt_density(mesh), dtype=np.float64)
    if (amp < 0).any():
        raise ConfigError("sqrt_density must be nonnegative")
    s0 = np.zeros(grid.shape) if phase is None else np.asarray(phase(mesh), dtype=np.float64)
    return _finalize_initial(grid, amp * np.exp(1j * s0))


def _finalize_initial(grid: Grid, values: np.ndarray) -> WaveFunction:
    mass = float(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    if mass <= 0 or not np.isfinite(mass):
        raise ConfigError("initial state has no usable mass")
    field = ComplexField._adopt(grid, values / math.sqrt(mass))
    bmass = boundary_mass_fraction(field)
    if bmass > BOUNDARY_MASS_TOL:
        raise PlacementError(
            f"initial state keeps {bmass:.3e} of its mass outside |x| <= L/2 "
            f"(budget {BOUNDARY_MASS_TOL}); enlarge the box or recentre"
        )
    return WaveFunction(field=field, time=0.0)


def _as_vector(grid: Grid, value, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if v.size == 1 and grid.dim > 1:
        v = np.full(grid.dim, float(v[0]))
    if v.shape != (grid.dim,):
        raise ConfigError(f"{name} must have {grid.dim} components, got shape {v.shape}")
    return v


# ---------------------------------------------------------------------------
# stepping


class StrangStepper:
    """The Strang step of an ``OscillatingSystem`` or a ``StaticPotential``,
    with its grid-dependent factors cached for a fixed dt.

    A raw step: it checks neither the sign of ``dt`` nor the fast-period
    rule (``propagate`` does).  ``static_phase`` is None for an oscillating
    system, whose potential phase changes from step to step.
    """

    def __init__(self, system: OscillatingSystem | StaticPotential, grid: Grid, dt: float):
        self.dt = dt
        self.kin = np.exp(-1j * grid.k_squared() * dt / 4.0)
        if isinstance(system, OscillatingSystem):
            self.w = system.potential.spatial_values(grid)
            self.V = system.potential
            self.eps = system.eps
            self.static_phase = None
        else:
            if system.grid != grid:
                raise UsageError("potential grid does not match wave function grid")
            self.static_phase = np.exp(-1j * system.values * dt)

    def advance(self, values: np.ndarray, t: float) -> np.ndarray:
        """The state one step of ``dt`` after ``values`` at time ``t``."""
        if self.static_phase is None:
            scalar = self.V.temporal_integral(t, t + self.dt, self.eps)
            phase = np.exp(-1j * self.w * scalar)
        else:
            phase = self.static_phase
        v = np.fft.ifftn(self.kin * np.fft.fftn(values))
        v = phase * v
        return np.fft.ifftn(self.kin * np.fft.fftn(v))


def lockstep(
    steppers: Sequence[StrangStepper],
    states: Sequence[np.ndarray],
    t0: float,
    n_steps: int,
    stride: int,
    on_frame: Callable[[int, float, tuple[np.ndarray, ...]], None],
    lane: Executor | None = None,
) -> list[np.ndarray]:
    """March each state with its own stepper, side by side at a shared dt.

    ``stride`` must divide ``n_steps`` (UsageError otherwise).  Calls
    ``on_frame(frame, t, states)`` for frame 0 at ``t0`` and then after
    every ``stride`` steps, frame ``i`` at ``t0 + (i * stride) * dt``, and
    returns the final states.  Between two frames each state marches its
    ``stride`` steps on its own (see ``side_by_side``: with a ``lane``
    executor, every state but the first marches there while the calling
    thread marches the first), so besides the states being advanced only
    those of the last frame stay alive.  Step ``k`` starts at
    ``t0 + k*dt`` whichever thread takes it, so a lane never changes a
    result.
    """
    if stride < 1 or n_steps % stride:
        raise UsageError(f"the frame stride {stride} does not divide {n_steps} steps")
    dt = steppers[0].dt
    states = list(states)
    on_frame(0, t0, tuple(states))
    for start in range(0, n_steps, stride):
        stop = start + stride

        def march(i: int) -> np.ndarray:
            values = states[i]
            for step in range(start, stop):
                values = steppers[i].advance(values, t0 + step * dt)
            return values

        states = side_by_side(lane, march, range(len(steppers)))
        on_frame(stop // stride, t0 + stop * dt, tuple(states))
    return states


def side_by_side(lane: Executor | None, fn: Callable[[_In], _Out], items: Sequence[_In]) -> list[_Out]:
    """``[fn(x) for x in items]``, the calls spread over the calling thread
    and an optional ``lane`` executor.

    With a lane, every item but the first is submitted to it and the
    calling thread runs the first meanwhile; the call returns only when
    every lane task has ended, even when the first call raises (its
    exception then propagates and the lane results are dropped), so no
    lane task outlives it.
    """
    if lane is None:
        return [fn(x) for x in items]
    rest = [lane.submit(fn, x) for x in items[1:]]
    try:
        first = fn(items[0])
    finally:
        wait(rest)
    return [first] + [f.result() for f in rest]


def check_monitors(
    boundary_mass: float,
    h1: float,
    h1_initial: float,
    t: float,
    *,
    boundary_tol: float = BOUNDARY_MASS_TOL,
) -> None:
    """Validity policy for one measured state, boundary mass first.

    Mass outside the inner half-box above ``boundary_tol`` raises
    BoundaryMassExceeded; an H1 norm above ``BLOWUP_FACTOR`` (10) times the
    initial one raises WaveBlowUp.
    """
    if boundary_mass > boundary_tol:
        raise BoundaryMassExceeded(
            f"boundary mass {boundary_mass:.3e} exceeds {boundary_tol} at t={t}"
        )
    h1_limit = BLOWUP_FACTOR * h1_initial
    if h1 > h1_limit:
        raise WaveBlowUp(f"H1 norm {h1:.3e} exceeds blow-up threshold {h1_limit:.3e} at t={t}")


def propagate(
    psi0: WaveFunction,
    system: OscillatingSystem | StaticPotential,
    T: float,
    dt: float,
    snapshot_times: Iterable[float],
    *,
    boundary_tol: float = BOUNDARY_MASS_TOL,
) -> list[WaveFunction]:
    """March ``system`` to time T in steps of ``dt``, returning snapshots at
    the requested times.

    T must be finite and nonnegative.  ``dt`` must be positive and finite,
    must divide T, and for an ``OscillatingSystem`` must keep the
    fast-period rule ``dt <= eps / MIN_STEPS_PER_FAST_PERIOD``; each breach
    raises ConfigError.  Snapshot times are rounded to the nearest step.
    At every snapshot the monitors of ``check_monitors`` run with the given
    boundary tolerance.
    """
    if not (dt > 0) or not np.isfinite(dt):
        raise ConfigError(f"dt must be a positive finite step, got {dt}")
    if not (0 <= T < math.inf):
        raise ConfigError(f"horizon T must be finite and nonnegative, got {T}")
    if isinstance(system, OscillatingSystem):
        limit = system.eps / MIN_STEPS_PER_FAST_PERIOD
        if dt > limit * (1.0 + 1e-12):
            raise ConfigError(
                f"dt={dt} violates the fast-period rule: need "
                f"dt <= eps/{MIN_STEPS_PER_FAST_PERIOD} = {limit}"
            )
    if T == 0:
        return [psi0]

    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ConfigError(f"dt={dt} does not divide the horizon T={T}")

    wanted = {_snap_index(t, dt, n_steps, T) for t in snapshot_times}
    stepper = StrangStepper(system, psi0.grid, dt)
    h1_initial = norms(psi0.field).h1

    out: list[WaveFunction] = []

    def snapshot(idx: int, t: float, states: tuple[np.ndarray, ...]) -> None:
        if idx in wanted:
            wf = psi0 if idx == 0 else WaveFunction(ComplexField._adopt(psi0.grid, states[0]), t)
            check_monitors(
                boundary_mass_fraction(wf.field),
                norms(wf.field).h1,
                h1_initial,
                t,
                boundary_tol=boundary_tol,
            )
            out.append(wf)

    lockstep((stepper,), (psi0.values,), psi0.time, n_steps, 1, snapshot)
    return out


def _snap_index(t: float, dt: float, n_steps: int, T: float) -> int:
    if t < -1e-12 or t > T * (1.0 + 1e-12):
        raise ConfigError(f"snapshot time {t} outside [0, {T}]")
    idx = int(round(t / dt))
    return min(max(idx, 0), n_steps)


# ---------------------------------------------------------------------------
# diagnostics


def h1_distance(psi_a: WaveFunction, psi_b: WaveFunction) -> float:
    """H1 norm of the difference; requires matching grid and time stamp."""
    if psi_a.grid != psi_b.grid:
        raise UsageError("wave functions live on different grids")
    if abs(psi_a.time - psi_b.time) > 1e-9 * max(1.0, abs(psi_a.time)):
        raise UsageError(
            f"wave functions are stamped at different times: {psi_a.time} vs {psi_b.time}"
        )
    diff = ComplexField._adopt(psi_a.grid, psi_a.values - psi_b.values)
    return norms(diff).h1


def gronwall_integrand(
    psi_eps: WaveFunction,
    psi_eff: WaveFunction,
    V: TimePeriodicPotential,
    Vstar: StaticPotential,
    eps: float,
    t: float,
    *,
    w: np.ndarray,
) -> float:
    """|<(V(t/eps,.) - V*) psi_eps, Lap(psi_eps - psi_eff)>| on the grid.

    ``w`` is ``V.spatial_values(grid)``, which a caller evaluating the term
    frame after frame builds once.  This is the forcing term whose
    vanishing drives the averaged system's H1 error estimate to zero.
    """
    grid = psi_eps.grid
    if psi_eff.grid != grid:
        raise UsageError("wave functions live on different grids")
    if w.shape != grid.shape:
        raise UsageError(f"spatial values of shape {w.shape} do not match grid shape {grid.shape}")
    # the arithmetic of evaluate(V, t / eps, grid).values, without its gradient
    a = float(V.temporal(np.asarray(t / eps, dtype=np.float64)))
    dV = a * w - Vstar.values
    diff = ComplexField._adopt(grid, psi_eps.values - psi_eff.values)
    lap = spectral_laplacian(diff).values
    inner = np.sum(dV * psi_eps.values * np.conj(lap)) * grid.cell_volume
    return float(abs(inner))

"""Bohmian hydrodynamics: densities, velocity, quantum potential,
ensemble sampling, trajectory integration and residual checks.

Velocity and quantum-potential fields hold the density above a fixed floor,
1e-12 of its maximum, which acts near nodes and in the far tails of a
localized state.  The floored share counts grid points, so a packet that
fills a small part of its box floors most of the box.  A density with no
positive value has no floor and raises InputError.  Trajectory samples are
drawn from rho0, which keeps them away from nodes almost surely.
Trajectories are integrated with classical RK4 on top of cubic
(Catmull-Rom) interpolation in space; in time nothing is interpolated: the
output times are mapped to history frames once, and every RK4 stage reads
a stored velocity frame by its number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, SamplingError, TrajectoryEscape, UsageError
from .grid import Grid, _norms_from_gradient, gradient_values, laplacian_values
from .potential import StaticPotential, evaluate
from .solver import OscillatingSystem, WaveFunction

__all__ = [
    "DensityFields",
    "TrajectoryEnsemble",
    "FieldHistory",
    "VelocityField",
    "QuantumPotential",
    "HydroResidual",
    "densities",
    "velocity",
    "quantum_potential",
    "sample_initial_positions",
    "integrate_trajectories",
    "hydrodynamic_residual",
    "newton_residual",
]

DENSITY_FLOOR_SCALE = 1e-12
ESCAPE_FRACTION_CAP = 0.05
MESH_TOL = 1e-9  # in history steps: how far a read may sit from a stored frame


class VelocityField(NamedTuple):
    values: np.ndarray  # (dim, *shape)
    regularized_fraction: float


class QuantumPotential(NamedTuple):
    values: np.ndarray  # (*shape,)
    regularized_fraction: float


@dataclass(frozen=True)
class DensityFields:
    """Position density, current density and velocity at one instant,
    with the state's H1 norm from the same gradient (equal to ``norms``)."""

    grid: Grid
    time: float
    rho: np.ndarray  # (*shape,) nonnegative
    current: np.ndarray  # (dim, *shape)
    velocity: np.ndarray  # (dim, *shape)
    h1: float
    regularized_fraction: float = 0.0


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled Bohmian paths X(t, x0) and momenta P(t, x0) = u(t, X).

    ``valid`` marks samples that stayed inside the box for the whole run;
    escaped samples keep their last position frozen and are excluded from
    all statistics.
    """

    grid: Grid
    initial_points: np.ndarray  # (M, dim)
    times: np.ndarray  # (K,)
    positions: np.ndarray  # (K, M, dim)
    momenta: np.ndarray  # (K, M, dim)
    valid: np.ndarray  # (M,) bool


@dataclass(frozen=True)
class FieldHistory:
    """Time-indexed fields on a uniform mesh, e.g. velocity snapshots.

    ``values`` has shape (n_times, n_components, *grid.shape); scalar
    histories use a single component.  Readers take frames by number:
    ``integrate_trajectories`` and ``newton_residual`` map their output
    times to frames once, and nothing is interpolated in time.
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ConfigError("history needs at least two time points")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
            raise ConfigError("history times must be uniformly spaced")
        v = np.asarray(self.values)
        if v.shape[0] != t.size or v.shape[2:] != self.grid.shape:
            raise ConfigError(
                f"history values shape {v.shape} inconsistent with "
                f"{t.size} times and grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


class HydroResidual(NamedTuple):
    continuity: float
    momentum: float


# ---------------------------------------------------------------------------
# densities and derived fields


def densities(psi: WaveFunction) -> DensityFields:
    """rho = |psi|^2, J = Im(conj(psi) grad psi), u = J/rho (``velocity``,
    fixed floor), and the H1 norm of psi; one forward transform serves all."""
    rho = np.abs(psi.values) ** 2
    grad = gradient_values(psi.grid, psi.values)
    # a real copy: the imaginary part is a view that would pin the complex
    # product, twice its size, for as long as the fields are kept
    current = np.imag(np.conj(psi.values) * grad).copy()
    u, frac = velocity(rho, current)
    return DensityFields(
        grid=psi.grid,
        time=psi.time,
        rho=rho,
        current=current,
        velocity=u,
        h1=_norms_from_gradient(psi.grid, psi.values, grad).h1,
        regularized_fraction=frac,
    )


def velocity(rho: np.ndarray, current: np.ndarray) -> VelocityField:
    """u = J / max(rho, floor) with the fixed floor 1e-12 * max(rho).

    The floor acts near density nodes and in the far tails of a localized
    state.  The returned fraction counts the floored grid points, so it
    mostly measures how much of the box the state leaves empty.
    """
    floor = _density_floor(rho)
    u = current / np.maximum(rho, floor)
    return VelocityField(values=u, regularized_fraction=float((rho < floor).mean()))


def quantum_potential(rho: np.ndarray, grid: Grid) -> QuantumPotential:
    """Q = 0.5 * Lap(s) / s with s = sqrt(max(rho, 1e-12 * max(rho))).

    Q depends on the shape of rho only (invariant under rho -> c*rho,
    because the floor is relative to max(rho)).
    """
    floor = _density_floor(rho)
    s = np.sqrt(np.maximum(rho, floor))
    q = 0.5 * laplacian_values(grid, s) / s
    return QuantumPotential(values=q, regularized_fraction=float((rho < floor).mean()))


def _density_floor(rho: np.ndarray) -> float:
    """The fixed floor, 1e-12 * max(rho), of every division by the density."""
    floor = DENSITY_FLOOR_SCALE * float(rho.max())
    if not (floor > 0):
        raise InputError("density has no positive value to set a floor from")
    return floor


# ---------------------------------------------------------------------------
# sampling

SUPPORT_FLOOR_SCALE = 1e-12


def sample_initial_positions(
    rho0: np.ndarray, grid: Grid, M: int, seed
) -> np.ndarray:
    """Draw M i.i.d. positions from the normalized grid density.

    Uses per-axis conditional inverse-CDF sampling over grid cells with a
    uniform jitter inside each cell.  Cells below 1e-12 * max(rho0) carry no
    mass, so every sample lands inside the support.  Deterministic for a
    fixed seed.
    """
    if M < 1:
        raise ConfigError(f"M must be >= 1, got {M}")
    p = np.asarray(rho0, dtype=np.float64).copy()
    if p.shape != grid.shape:
        raise UsageError("density shape does not match grid")
    p[p < SUPPORT_FLOOR_SCALE * p.max()] = 0.0
    total = p.sum()
    if not (total > 0) or not np.isfinite(total):
        raise SamplingError("density has no mass above the support floor")

    rng = np.random.default_rng(seed)
    n = grid.n_per_axis
    cells = np.zeros((M, grid.dim), dtype=np.int64)

    # axis 0 marginal is shared by all samples; later axes condition on the
    # cells already chosen.  Draws are taken from (0, 1] so a sample can
    # never land in a zero-mass cell, keeping every point inside supp rho0.
    trailing = grid.size // n
    marg = p.reshape(n, trailing).sum(axis=1)
    cdf = np.cumsum(marg)
    u = (1.0 - rng.random(M)) * cdf[-1]
    cells[:, 0] = np.searchsorted(cdf, u, side="left")
    cond = p.reshape(n, trailing)[cells[:, 0]]  # (M, trailing)

    for axis in range(1, grid.dim):
        trailing //= n
        marg = cond.reshape(M, n, trailing).sum(axis=2)  # (M, n)
        cdf = np.cumsum(marg, axis=1)
        u = (1.0 - rng.random(M)) * cdf[:, -1]
        idx = (cdf < u[:, None]).sum(axis=1)
        cells[:, axis] = idx
        cond = cond.reshape(M, n, trailing)[np.arange(M), idx, :]

    jitter = rng.random((M, grid.dim)) - 0.5
    coords = np.empty((M, grid.dim))
    for axis in range(grid.dim):
        coords[:, axis] = grid.axes[axis][cells[:, axis]] + grid.dx * jitter[:, axis]
    return coords


# ---------------------------------------------------------------------------
# trajectory integration


def _frames(history: FieldHistory, times: np.ndarray) -> np.ndarray:
    """The frame number of every time, which must lie on the history mesh.

    A time selects the frame ``round(g)`` with ``g = (t - times[0]) / dt``;
    one more than 1e-9 steps off the mesh, outside the history or NaN
    raises ConfigError naming the first such time.
    """
    g = (times - history.times[0]) / history.dt
    j = np.rint(g)
    on_mesh = (np.abs(g - j) <= MESH_TOL) & (j >= 0) & (j < len(history.times))
    if not on_mesh.all():
        raise ConfigError(
            f"time {float(times[np.argmin(on_mesh)])!r} is not a stored frame of the history "
            f"({float(history.times[0])!r} to {float(history.times[-1])!r} "
            f"in steps of {history.dt!r})"
        )
    return j.astype(np.int64)


def integrate_trajectories(
    history: FieldHistory,
    initial_points: np.ndarray,
    times: np.ndarray,
) -> TrajectoryEnsemble:
    """RK4 integration of dX/dt = u(t, X) along the stored velocity fields.

    ``times`` is the (uniform) output mesh; integration takes one RK4 step
    of size h per output interval.  The output times are mapped to history
    frames once, and must lie on the history mesh (ConfigError otherwise).
    They must be an even number ``s`` of frames apart, so a step from frame
    ``f`` reads its stages as frames ``f``, ``f + s/2`` and ``f + s``, as
    stored, never blended in time.  Momenta are recorded as
    P(t) = u(t, X(t)), and each step's end velocity is the next step's
    first stage.  Samples leaving the box are frozen, marked invalid, and
    the run fails if more than 5% escape.  The history must carry one
    velocity component per grid axis (UsageError otherwise).
    """
    x0 = np.atleast_2d(np.asarray(initial_points, dtype=np.float64))
    if x0.shape[1] != history.grid.dim:
        raise UsageError(f"initial points must have {history.grid.dim} columns")
    if history.values.shape[1] != history.grid.dim:
        raise UsageError(
            f"a velocity history needs {history.grid.dim} components on a "
            f"{history.grid.dim}D grid, got {history.values.shape[1]}"
        )
    t_out = np.asarray(times, dtype=np.float64)
    if t_out.ndim != 1 or t_out.size < 2:
        raise UsageError("need at least two output times")
    h = float(t_out[1] - t_out[0])
    frames = _frames(history, t_out)
    s = int(frames[1] - frames[0])
    if (np.diff(frames) != s).any():
        raise UsageError("output times must be uniformly spaced")
    if s <= 0 or s % 2:  # a step's midpoint must be a frame
        raise ConfigError(
            f"output times must be a positive even number of history steps apart, "
            f"got {s} (history dt={history.dt}, trajectory step h={h})"
        )

    M = x0.shape[0]
    K = t_out.size
    grid = history.grid
    L = grid.half_width
    u = history.values

    positions = np.empty((K, M, grid.dim))
    momenta = np.empty((K, M, grid.dim))
    alive = np.ones(M, dtype=bool)

    X = x0.copy()
    positions[0] = X
    momenta[0] = _interp_space(grid, u[frames[0]], X)
    for k, f in enumerate(frames[:-1]):
        u_mid, u_end = u[f + s // 2], u[f + s]
        k1 = momenta[k]  # u(t, X), recorded when the last step ended
        k2 = _interp_space(grid, u_mid, X + 0.5 * h * k1)
        k3 = _interp_space(grid, u_mid, X + 0.5 * h * k2)
        k4 = _interp_space(grid, u_end, X + h * k3)
        X_new = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        escaped = np.abs(X_new).max(axis=1) > L
        if escaped.any():
            X_new[escaped] = X[escaped]  # freeze at last in-box position
            alive &= ~escaped
        X = np.where(alive[:, None], X_new, X)
        positions[k + 1] = X
        momenta[k + 1] = _interp_space(grid, u_end, X)

    escaped_frac = 1.0 - alive.mean()
    if escaped_frac > ESCAPE_FRACTION_CAP:
        raise TrajectoryEscape(
            f"{escaped_frac:.1%} of trajectory samples left the box "
            f"(cap {ESCAPE_FRACTION_CAP:.0%})"
        )
    return TrajectoryEnsemble(
        grid=grid,
        initial_points=x0,
        times=t_out,
        positions=positions,
        momenta=momenta,
        valid=alive,
    )


def _catmull_weights(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    f2 = f * f
    f3 = f2 * f
    return (
        0.5 * (-f3 + 2.0 * f2 - f),
        0.5 * (3.0 * f3 - 5.0 * f2 + 2.0),
        0.5 * (-3.0 * f3 + 4.0 * f2 + f),
        0.5 * (f3 - f2),
    )


def _interp_space(grid: Grid, field: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Periodic tensor-product Catmull-Rom interpolation of field components.

    ``field`` has shape (n_components, *grid.shape); ``X`` is (M, dim).
    Returns (M, n_components).
    """
    n = grid.n_per_axis
    M = X.shape[0]
    ncomp = field.shape[0]
    g = (X + grid.half_width) / grid.dx  # fractional grid coordinates
    base = np.floor(g).astype(np.int64)
    frac = g - base

    # per axis: four weights and the (4, M) wrapped indices of the stencil;
    # Grid requires a power-of-two n, so & (n - 1) wraps exactly as np.mod
    axis_weights = [_catmull_weights(frac[:, axis]) for axis in range(grid.dim)]
    offsets = np.arange(-1, 3)[:, None]
    axis_indices = [(base[:, axis] + offsets) & (n - 1) for axis in range(grid.dim)]

    flat = field.reshape(ncomp, -1)
    strides = [n ** (grid.dim - 1 - a) for a in range(grid.dim)]
    out = np.zeros((M, ncomp))
    for combo in np.ndindex(*(4,) * grid.dim):
        w = axis_weights[0][combo[0]]
        flat_idx = axis_indices[0][combo[0]] * strides[0]
        for axis in range(1, grid.dim):
            w = w * axis_weights[axis][combo[axis]]
            flat_idx = flat_idx + axis_indices[axis][combo[axis]] * strides[axis]
        out += w[:, None] * flat[:, flat_idx].T
    return out


# ---------------------------------------------------------------------------
# residual diagnostics


def hydrodynamic_residual(
    snapshots: list[DensityFields],
    system: OscillatingSystem | StaticPotential,
) -> HydroResidual:
    """L1 residuals of the quantum hydrodynamic system driven by ``system``.

    continuity: ||d rho/dt + div J||_L1 with centred time differencing and
    spectral divergence, averaged over interior snapshots.
    momentum: L1 norm of d J/dt + div(J (x) J / rho) + rho grad V
    - rho grad Q, restricted to the region rho > 1e-6 * max(rho).
    """
    if len(snapshots) < 3:
        raise UsageError("need at least 3 consecutive snapshots for centred differencing")
    grid = snapshots[0].grid
    dts = np.diff([s.time for s in snapshots])
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise UsageError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])
    dv = grid.cell_volume

    cont_vals = []
    mom_vals = []
    for k in range(1, len(snapshots) - 1):
        prev, cur, nxt = snapshots[k - 1], snapshots[k], snapshots[k + 1]
        drho_dt = (nxt.rho - prev.rho) / (2.0 * dt)
        div_j = _divergence(grid, cur.current)
        cont_vals.append(float(np.sum(np.abs(drho_dt + div_j)) * dv))

        dj_dt = (nxt.current - prev.current) / (2.0 * dt)
        rho_safe = np.maximum(cur.rho, _density_floor(cur.rho))
        stress_div = np.empty_like(cur.current)
        for i in range(grid.dim):
            flux = cur.current[i] * cur.current / rho_safe  # (dim, *shape)
            stress_div[i] = _divergence(grid, flux)
        grad_v = _potential_gradient(system, cur.time, grid)
        resid = dj_dt + stress_div + cur.rho * grad_v - _quantum_force_density(grid, cur.rho)
        region = cur.rho > 1e-6 * cur.rho.max()
        mom_vals.append(float(np.sum(np.abs(resid[:, region])) * dv))

    return HydroResidual(
        continuity=float(np.mean(cont_vals)), momentum=float(np.mean(mom_vals))
    )


def newton_residual(
    ensemble: TrajectoryEnsemble,
    system: OscillatingSystem | StaticPotential,
    q_history: FieldHistory,
) -> float:
    """Ensemble-mean L1-in-time residual of dP/dt = -grad V + grad Q along
    paths, V being ``system``'s potential.

    dP/dt uses centred differencing of the recorded momenta; the forces are
    interpolated at the recorded positions.  Each interior output time reads
    its Q frame by number (it must lie on the Q history's mesh), and only
    those frames are differentiated.
    """
    t = ensemble.times
    if t.size < 3:
        raise UsageError("need at least 3 output times for centred differencing")
    h = float(t[1] - t[0])
    grid = ensemble.grid
    if q_history.values.shape[1] != 1:
        raise UsageError("q_history must carry a single scalar component")

    frames = _frames(q_history, t)

    valid = ensemble.valid
    P = ensemble.momenta[:, valid, :]
    X = ensemble.positions[:, valid, :]
    resid_sum = np.zeros(valid.sum())
    for k in range(1, t.size - 1):
        dP_dt = (P[k + 1] - P[k - 1]) / (2.0 * h)
        grad_v = _interp_space(grid, _potential_gradient(system, t[k], grid), X[k])
        # local (finite-difference) gradient: the floored Q field is only
        # trustworthy where the density is, and a global spectral derivative
        # would smear its far-tail artifacts over the whole box
        grad_q = _interp_space(grid, _fd_gradient(grid, q_history.values[frames[k], 0]), X[k])
        resid_sum += np.linalg.norm(dP_dt + grad_v - grad_q, axis=1)
    return float(np.mean(resid_sum / (t.size - 2)))


def _divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Spectral divergence of a (dim, *shape) vector field."""
    out = np.zeros(grid.shape)
    for axis in range(grid.dim):
        out += gradient_values(grid, vec[axis])[axis]
    return out


def _quantum_force_density(grid: Grid, rho: np.ndarray) -> np.ndarray:
    """rho * grad Q via the division-free identity 0.5*(s grad(Lap s) - Lap s grad s)
    with s = sqrt(rho); avoids differentiating across regularization floors."""
    s = np.sqrt(np.maximum(rho, 0.0))
    lap_s = laplacian_values(grid, s)
    grad_s = gradient_values(grid, s)
    grad_lap_s = gradient_values(grid, lap_s)
    return 0.5 * (s * grad_lap_s - lap_s * grad_s)


def _fd_gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """4th-order centred finite-difference gradient with periodic wrap."""
    inv = 1.0 / (12.0 * grid.dx)
    out = np.empty((grid.dim,) + grid.shape)
    for axis in range(grid.dim):
        out[axis] = (
            np.roll(values, 2, axis=axis)
            - 8.0 * np.roll(values, 1, axis=axis)
            + 8.0 * np.roll(values, -1, axis=axis)
            - np.roll(values, -2, axis=axis)
        ) * inv
    return out


def _potential_gradient(
    system: OscillatingSystem | StaticPotential, t: float, grid: Grid
) -> np.ndarray:
    """grad V on the grid at time t."""
    if isinstance(system, StaticPotential):
        return system.gradient()
    return evaluate(system.potential, t / system.eps, grid).gradient()


"""Bohmian hydrodynamics: densities, velocity, quantum potential,
ensemble sampling, trajectory integration and the continuity residual.

Velocity and quantum-potential fields hold the density above a fixed floor,
1e-12 of its maximum, which acts near nodes and in the far tails of a
localized state.  The floored share counts grid points, so a packet that
fills a small part of its box floors most of the box.  A density with no
positive value has no floor and raises InputError.  Trajectory samples are
drawn from rho0, which keeps them away from nodes almost surely.
Trajectories are integrated with classical RK4 on top of cubic
(Catmull-Rom) interpolation in space; in time nothing is interpolated: the
output times are mapped to history frames once, and every RK4 stage reads
a stored velocity frame by its number.  A run builds one workspace and its
steps write into it, so stepping allocates nothing.  A 1D lookup gathers
its stencil values from a per-component stencil table in that workspace,
with the same bits as wrapped index arrays give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import numpy.random  # loaded with the package, so that no row pays the import

from .errors import ConfigError, InputError, SamplingError, TrajectoryEscape, UsageError
from .grid import Grid, _derivatives, _norms_from_terms, _semi_term, laplacian_values
from .solver import WaveFunction, _check_paired

__all__ = [
    "DensityFields",
    "TrajectoryEnsemble",
    "FieldHistory",
    "VelocityField",
    "QuantumPotential",
    "densities",
    "velocity",
    "quantum_potential",
    "sample_initial_positions",
    "integrate_trajectories",
    "continuity_residual",
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Sampled Bohmian paths X(t, x0) and momenta P(t, x0) = u(t, X).

    ``valid`` marks samples that stayed inside the box, at finite
    positions, for the whole run; escaped samples keep their last position
    frozen and are excluded from all statistics.
    """

    grid: Grid
    initial_points: np.ndarray  # (M, dim)
    times: np.ndarray  # (K,)
    positions: np.ndarray  # (K, M, dim)
    momenta: np.ndarray  # (K, M, dim)
    valid: np.ndarray  # (M,) bool


@dataclass(frozen=True, eq=False)
class FieldHistory:
    """Time-indexed fields on a uniform mesh, e.g. velocity snapshots.

    ``values`` has shape (n_times, n_components, *grid.shape); scalar
    histories use a single component.  The times advance by one positive
    step.  ``integrate_trajectories`` reads frames by number: it maps its
    output times to frames once, and nothing is interpolated in time.
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
        if not dt[0] > 0:
            raise ConfigError(f"history times must advance, got a step of {float(dt[0])!r}")
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


# ---------------------------------------------------------------------------
# densities and derived fields


def densities(
    psi: WaveFunction | Sequence[WaveFunction],
) -> DensityFields | tuple[DensityFields, ...]:
    """rho = |psi|^2, J = Im(conj(psi) grad psi), u = J/rho (``velocity``,
    fixed floor), and the H1 norm of psi; one forward transform serves all.

    Given a nonempty sequence of states on one grid at one time
    (UsageError otherwise), returns their fields in order, computed over one stack of
    the states in one pass, each equal bit for bit to the state's own.  The
    gradient is taken one axis at a time in one reused buffer, so a 3D
    state needs about 5.5 states of memory, the fields returned included.
    """
    single = isinstance(psi, WaveFunction)
    states = (psi,) if single else tuple(psi)
    if not states:
        raise UsageError("densities needs at least one state")
    for other in states[1:]:
        _check_paired(states[0], other)
    # a lone state's stack is a view of its values, not a copy
    stack = np.stack([s.values for s in states]) if len(states) > 1 else states[0].values[np.newaxis]
    fields = _stacked_densities(states[0].grid, states[0].time, stack)
    return fields[0] if single else fields


def _stacked_densities(grid: Grid, time: float, values: np.ndarray) -> tuple[DensityFields, ...]:
    """The fields of each row of a ``(k, *grid.shape)`` stack; every
    reduction runs over one row at a time, as for a lone state.

    One forward transform serves every axis; each axis's derivative and
    then its ``conj(psi) * d psi`` product take turns in one reused complex
    buffer, and the H1 terms are summed in axis order."""
    rho = np.abs(values) ** 2
    conj = np.conj(values)
    # each row's current is its own array: a view into a stack would keep
    # every row's current alive for as long as one row's fields are kept
    current = [np.empty((grid.dim,) + grid.shape) for _ in range(len(values))]
    semi_sq = 0.0
    for axis, d in enumerate(_derivatives(grid, values)):
        semi_sq = semi_sq + _semi_term(grid, d)
        np.multiply(conj, d, out=d)
        for i, j in enumerate(current):
            j[axis] = d[i].imag
    del conj, d  # the complex buffers, before the velocities are made
    u, frac = _stacked_velocity(rho, current, grid.dim)
    h1 = _norms_from_terms(grid, rho, semi_sq).h1
    return tuple(
        DensityFields(grid, time, r, j, v, h, float(f))
        for r, j, v, h, f in zip(rho, current, u, h1, frac)
    )


def velocity(rho: np.ndarray, current: np.ndarray) -> VelocityField:
    """u = J / max(rho, floor) with the fixed floor 1e-12 * max(rho).

    The floor acts near density nodes and in the far tails of a localized
    state.  The returned fraction counts the floored grid points, so it
    mostly measures how much of the box the state leaves empty.
    """
    u, frac = _stacked_velocity(rho[np.newaxis], [current], rho.ndim)
    return VelocityField(values=u[0], regularized_fraction=float(frac[0]))


def _stacked_velocity(
    rho: np.ndarray, current: Sequence[np.ndarray], dim: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """``velocity`` of each row of a stack of densities ``(k, *shape)``
    and their currents ``(dim, *shape)``, each row with its own floor."""
    space = tuple(range(-dim, 0))
    floor = _density_floor(rho, space)
    u = [j / r for j, r in zip(current, np.maximum(rho, floor))]
    return u, (rho < floor).mean(axis=space)


def quantum_potential(rho: np.ndarray, grid: Grid) -> QuantumPotential:
    """Q = 0.5 * Lap(s) / s with s = sqrt(max(rho, 1e-12 * max(rho))).

    Q depends on the shape of rho only (invariant under rho -> c*rho,
    because the floor is relative to max(rho)).
    """
    floor = _density_floor(rho)
    s = np.sqrt(np.maximum(rho, floor))
    q = 0.5 * laplacian_values(grid, s) / s
    return QuantumPotential(values=q, regularized_fraction=float((rho < floor).mean()))


def _density_floor(rho: np.ndarray, axis: tuple[int, ...] | None = None) -> np.ndarray:
    """The fixed floor, 1e-12 * max(rho), of every division by the density;
    with ``axis``, one floor per state of a stack, kept broadcastable."""
    floor = DENSITY_FLOOR_SCALE * rho.max(axis=axis, keepdims=axis is not None)
    if not (floor > 0).all():
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
    first stage.  Samples leaving the box, or reaching a non-finite
    position, are frozen, marked invalid, and the run fails if more than 5%
    escape.  The history must carry one velocity component per grid axis
    (UsageError otherwise), and every initial point must be finite
    (InputError otherwise).

    Besides its outputs the run allocates one workspace, the lookup's
    buffers and four (M, dim) stage arrays; the stage points, the update
    and each step's end velocity are written in place, with every
    operation in the order of the formulas above.
    """
    x0 = np.atleast_2d(np.asarray(initial_points, dtype=np.float64))
    if x0.shape[1] != history.grid.dim:
        raise UsageError(f"initial points must have {history.grid.dim} columns")
    finite = np.isfinite(x0).all(axis=1)
    if not finite.all():
        raise InputError(f"initial point {x0[np.argmin(finite)].tolist()} is not finite")
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
    dim = x0.shape[1]
    grid = history.grid
    L = grid.half_width
    u = history.values

    positions = np.empty((K, M, dim))
    momenta = np.empty((K, M, dim))
    alive = np.ones(M, dtype=bool)

    # one workspace for the whole run: the lookup's, the stage points and
    # slopes, and the escape test's; each step only writes into it
    work = _interp_work(dim, M, grid.n_per_axis, dim)
    stage, k2, k3, k4 = np.empty((4, M, dim))
    peak = np.empty(M)
    inside = np.empty(M, dtype=bool)

    positions[0] = x0
    _interp_space(grid, u[frames[0]], positions[0], out=momenta[0], work=work)
    for k, f in enumerate(frames[:-1]):
        u_mid, u_end = u[f + s // 2], u[f + s]
        X, k1 = positions[k], momenta[k]  # k1 = u(t, X), recorded when the last step ended
        np.add(X, np.multiply(0.5 * h, k1, out=stage), out=stage)
        _interp_space(grid, u_mid, stage, out=k2, work=work)
        np.add(X, np.multiply(0.5 * h, k2, out=stage), out=stage)
        _interp_space(grid, u_mid, stage, out=k3, work=work)
        np.add(X, np.multiply(h, k3, out=stage), out=stage)
        _interp_space(grid, u_end, stage, out=k4, work=work)
        # X_new = X + (h/6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.add(k1, np.multiply(2.0, k2, out=k2), out=stage)
        stage += np.multiply(2.0, k3, out=k3)
        stage += k4
        np.add(X, np.multiply(h / 6.0, stage, out=stage), out=stage)
        np.max(np.abs(stage, out=k4), axis=1, out=peak)
        if not np.less_equal(peak, L, out=inside).all():  # a NaN peak is outside too
            alive &= inside
        X_next = positions[k + 1]
        X_next[...] = X  # an escaped sample stays at its last in-box position
        np.copyto(X_next, stage, where=alive[:, None])
        _interp_space(grid, u_end, X_next, out=momenta[k + 1], work=work)

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


class _InterpWork(NamedTuple):
    """Reusable buffers of ``_interp_space`` for M points in ``dim`` axes."""

    weights: np.ndarray  # (dim, 4, M): the four Catmull-Rom weights per axis
    indices: np.ndarray  # (dim, 4, M) in nD: wrapped stencil indices times the axis stride
    table: np.ndarray  # (ncomp, n + 3) in 1D: each component wrapped, the stencil's rows
    scratch: np.ndarray  # (4, M) float
    index: np.ndarray  # (M,) flat index of one stencil point; the wrapped cell in 1D


def _interp_work(dim: int, M: int, n: int = 0, ncomp: int = 1) -> _InterpWork:
    """A workspace for lookups of M points in ``dim`` axes.  A 1D lookup
    fills its stencil table, sized here for fields of up to ``ncomp``
    components on ``n`` points; only an nD lookup has index arrays."""
    one_d = dim == 1
    return _InterpWork(
        weights=np.empty((dim, 4, M)),
        indices=np.empty((0, 4, M) if one_d else (dim, 4, M), dtype=np.intp),
        table=np.empty((ncomp, n + 3) if one_d else (0, 0)),
        scratch=np.empty((4, M)),
        index=np.empty(M, dtype=np.intp),
    )


def _interp_space(
    grid: Grid,
    field: np.ndarray,
    X: np.ndarray,
    *,
    out: np.ndarray,
    work: _InterpWork,
) -> np.ndarray:
    """Periodic tensor-product Catmull-Rom interpolation of field components.

    ``field`` has shape (n_components, *grid.shape); ``X`` is (M, dim).
    Writes the (M, n_components) values into ``out`` and returns it.
    ``work`` is a workspace from ``_interp_work(dim, M, n, n_components)``,
    so the lookup allocates nothing.  The weights of the fractional
    coordinate f are evaluated as written, ``0.5 * (-f3 + 2.0 * f2 - f)``,
    ``0.5 * (3.0 * f3 - 5.0 * f2 + 2.0)``, ``0.5 * (-3.0 * f3 + 4.0 * f2 + f)``
    and ``0.5 * (f3 - f2)`` with ``f2 = f * f`` and ``f3 = f2 * f``, and the
    stencil is summed from zeros in ``np.ndindex`` order, so every call
    gives the same bits.

    In 1D the cell is wrapped once, and the four stencil values are
    gathered from a stencil table filled in the workspace: each component
    copied with one cell before it and two after, periodically, so that
    stencil row k at cell j, ``table[c, k + j]``, holds
    ``field[c][(j + k - 1) % n]``.  The values gathered are those of the
    wrapped indices, so the bits are the same.  In more dimensions each
    axis keeps its four wrapped index arrays.
    """
    n = grid.n_per_axis
    M, dim = X.shape
    ncomp = field.shape[0]
    weights, indices, base = work.weights, work.indices, work.index
    f, f2, f3, t = work.scratch

    # per axis: four weights and, in nD, the (4, M) wrapped indices of the
    # stencil; Grid requires a power-of-two n, so & (n - 1) wraps exactly
    # as np.mod
    for axis in range(dim):
        g = np.divide(np.add(X[:, axis], grid.half_width, out=t), grid.dx, out=t)
        with np.errstate(invalid="ignore"):  # a NaN stage point, left to the escape test
            base[...] = np.floor(g, out=f3)
        np.subtract(g, f3, out=f)  # the fractional grid coordinate
        np.multiply(f, f, out=f2)
        np.multiply(f2, f, out=f3)
        # the four weight polynomials, operation for operation
        w0, w1, w2, w3 = weights[axis]
        np.negative(f3, out=w0)
        w0 += np.multiply(2.0, f2, out=t)
        w0 -= f
        np.multiply(3.0, f3, out=w1)
        w1 -= np.multiply(5.0, f2, out=t)
        w1 += 2.0
        np.multiply(-3.0, f3, out=w2)
        w2 += np.multiply(4.0, f2, out=t)
        w2 += f
        np.subtract(f3, f2, out=w3)
        weights[axis] *= 0.5
        if dim == 1:
            base &= n - 1  # the cell, wrapped once: the table holds its neighbours
            continue
        stride = n ** (dim - 1 - axis)
        for idx, offset in zip(indices[axis], range(-1, 3)):
            np.add(base, offset, out=idx)
            idx &= n - 1
            if stride > 1:
                idx *= stride

    values = work.scratch[1]
    out[...] = 0.0
    if dim == 1:
        table = work.table[:ncomp, : n + 3]
        table[:, 1 : n + 1] = field
        table[:, 0] = field[:, -1]
        table[:, n + 1 :] = field[:, :2]
        for k, w in enumerate(weights[0]):
            for c in range(ncomp):
                np.take(table[c, k : k + n], base, out=values, mode="clip")  # never clipped
                out[:, c] += np.multiply(w, values, out=values)
        return out

    w, flat_idx = work.scratch[0], work.index
    flat = field.reshape(ncomp, -1)
    for combo in np.ndindex(*(4,) * dim):
        np.multiply(weights[0, combo[0]], weights[1, combo[1]], out=w)
        np.add(indices[0, combo[0]], indices[1, combo[1]], out=flat_idx)
        for axis in range(2, dim):
            w *= weights[axis, combo[axis]]
            flat_idx += indices[axis, combo[axis]]
        for c in range(ncomp):
            np.take(flat[c], flat_idx, out=values, mode="clip")  # in range, so never clipped
            out[:, c] += np.multiply(w, values, out=values)
    return out


# ---------------------------------------------------------------------------
# continuity residual


def continuity_residual(snapshots: list[DensityFields]) -> float:
    """L1 residual ||d rho/dt + div J||_L1 of the continuity law, with
    centred time differencing and spectral divergence, averaged over the
    interior snapshots.

    The snapshots must be at least three, on one grid, uniformly spaced by
    a positive time step (UsageError otherwise).
    """
    if len(snapshots) < 3:
        raise UsageError("need at least 3 consecutive snapshots for centred differencing")
    grid = snapshots[0].grid
    if any(s.grid != grid for s in snapshots):
        raise UsageError("snapshots live on different grids")
    dts = np.diff([s.time for s in snapshots])
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise UsageError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])
    if not dt > 0:
        raise UsageError(f"snapshots must advance in time, got a step of {dt!r}")
    dv = grid.cell_volume

    cont_vals = []
    for k in range(1, len(snapshots) - 1):
        prev, cur, nxt = snapshots[k - 1], snapshots[k], snapshots[k + 1]
        drho_dt = (nxt.rho - prev.rho) / (2.0 * dt)
        div_j = _divergence(grid, cur.current)
        cont_vals.append(float(np.sum(np.abs(drho_dt + div_j)) * dv))
    return float(np.mean(cont_vals))


def _divergence(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """Spectral divergence of a real (dim, *shape) vector field, one
    derivative per component: one transform each way, 2 * dim in all."""
    out = np.zeros(grid.shape)
    for axis in range(grid.dim):
        out += next(_derivatives(grid, vec[axis], (axis,))).real
    return out

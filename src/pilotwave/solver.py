"""Strang-split spectral propagation for the oscillating and averaged systems.

A state is a ``WaveFunction``: its grid, its values on the grid and its
time stamp, checked once when it is built.

Units: hbar = m = 1, Hamiltonian -0.5*Laplacian + V.  One Strang step is
half kinetic / full potential phase / half kinetic; the potential phase for
the fast-oscillating system uses the exact time integral of the temporal
factor over the step, so the oscillation is never aliased regardless of dt.
Every state a ``StrangStepper`` steps is a stack: its systems' states as
the rows of one array, each row equal bit for bit to its own step.
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
    InputError,
    PlacementError,
    ResolutionError,
    UsageError,
    WaveBlowUp,
)
from .grid import (
    Grid,
    _laplacian_of_transform,
    _times_temporary,
    boundary_mass_fraction,
    fftn,
    ifftn,
    norms,
)
from .potential import StaticPotential, TimePeriodicPotential

__all__ = [
    "WaveFunction",
    "MIN_STEPS_PER_FAST_PERIOD",
    "OscillatingSystem",
    "gaussian_packet",
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


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """A complex state on a grid with its time stamp; immutable.

    ``WaveFunction(grid, values, time)`` copies a complex128 input into a
    read-only array, so a caller's array can never change under a state;
    values of another shape than the grid's, or not finite, raise
    InputError.  Inside the package, ``_adopt`` wraps an array that was
    just computed and that nobody else holds, and ``_adopt_rows`` each row
    of such a stack.  States compare and hash by identity.
    """

    grid: Grid
    values: np.ndarray
    time: float

    def __post_init__(self) -> None:
        v = _checked_values(self.grid, self.values)
        v = v.copy() if v is self.values else v
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray, time: float) -> "WaveFunction":
        """Wrap a freshly computed array without copying it; it becomes read-only."""
        v = _checked_values(grid, values)
        v.setflags(write=False)
        return cls._wrap(grid, v, time)

    @classmethod
    def _adopt_rows(cls, grid: Grid, stack: np.ndarray, time: float) -> tuple["WaveFunction", ...]:
        """``_adopt`` of each row of a freshly computed ``(k, *grid.shape)``
        stack, checked as one array; the rows are read-only views of it."""
        v = _checked_values(grid, stack, stacked=True)
        v.setflags(write=False)
        return tuple(cls._wrap(grid, row, time) for row in v)

    @classmethod
    def _wrap(cls, grid: Grid, values: np.ndarray, time: float) -> "WaveFunction":
        wf = object.__new__(cls)
        object.__setattr__(wf, "grid", grid)
        object.__setattr__(wf, "values", values)
        object.__setattr__(wf, "time", time)
        return wf


def _checked_values(grid: Grid, values: np.ndarray, stacked: bool = False) -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if v.shape[int(stacked):] != grid.shape:
        raise InputError(f"field shape {v.shape} does not match grid shape {grid.shape}")
    if not np.isfinite(v).all():
        raise InputError("field contains non-finite values")
    return v


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


def _finalize_initial(grid: Grid, values: np.ndarray) -> WaveFunction:
    mass = float(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    if mass <= 0 or not np.isfinite(mass):
        raise ConfigError("initial state has no usable mass")
    psi = WaveFunction._adopt(grid, values / math.sqrt(mass), 0.0)
    bmass = boundary_mass_fraction(grid, np.abs(psi.values) ** 2)
    if bmass > BOUNDARY_MASS_TOL:
        raise PlacementError(
            f"initial state keeps {bmass:.3e} of its mass outside |x| <= L/2 "
            f"(budget {BOUNDARY_MASS_TOL}); enlarge the box or recentre"
        )
    return psi


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
    """The Strang step of a sequence of ``OscillatingSystem``s and
    ``StaticPotential``s marched as one stack, at most one of them
    oscillating, with its grid-dependent factors cached for a fixed dt.

    Every state is a stack: ``advance`` takes and returns a
    ``(k, *grid.shape)`` array whose row ``i`` is system ``i``'s state, and
    each row equals bit for bit the state that a stepper of its system
    alone gives.  One transform per half step serves every row, and every
    transform after the first runs in place in the step's one new array.
    The kinetic factor ``kin``, of shape ``(1, *grid.shape)``, broadcasts
    over the rows in one state's operand order (``grid._times_temporary``);
    the static rows of the potential phase are set once, and an
    oscillating row is rewritten in place each step.  A raw step: it checks
    neither the sign of ``dt`` nor the fast-period rule (``propagate``
    does).  ``static_phase`` is None when a row oscillates, so that the
    phase changes from step to step.  Inside the package, ``_kin`` passes
    the ``kin`` of another stepper on the same grid with the same ``dt``,
    so that the steppers of one row share one.
    """

    def __init__(
        self,
        systems: Sequence[OscillatingSystem | StaticPotential],
        grid: Grid,
        dt: float,
        *,
        _kin: np.ndarray | None = None,
    ):
        systems = tuple(systems)
        if sum(isinstance(s, OscillatingSystem) for s in systems) > 1:
            raise UsageError("a stepper steps at most one oscillating system")
        self.dt = dt
        self._dim = grid.dim
        # stored with the stack's leading axis, so that a one-row stack
        # multiplies two arrays of one shape
        self.kin = np.exp(-1j * grid.k_squared() * dt / 4.0)[np.newaxis] if _kin is None else _kin
        self._phases = np.empty((len(systems),) + grid.shape, dtype=np.complex128)
        self.static_phase = self._phases
        for i, system in enumerate(systems):
            if isinstance(system, OscillatingSystem):
                self.w = system.potential.spatial_values(grid)
                self.V = system.potential
                self.eps = system.eps
                self._row = i
                self.static_phase = None
            elif system.grid != grid:
                raise UsageError("potential grid does not match wave function grid")
            else:
                self._phases[i] = np.exp(-1j * system.values * dt)

    def advance(self, values: np.ndarray, t: float) -> np.ndarray:
        """The stack one step of ``dt`` after ``values`` at time ``t``;
        ``values`` is read, never written, and the new stack is the one
        array the step allocates."""
        if self.static_phase is None:
            scalar = self.V.temporal_integral(t, t + self.dt, self.eps)
            _oscillating_phase(self.w, scalar, out=self._phases[self._row])
        v = self._half_kinetic(fftn(values, self._dim))
        np.multiply(self._phases, v, out=v)
        return self._half_kinetic(fftn(v, self._dim, _overwrite=True))

    def _half_kinetic(self, vhat: np.ndarray) -> np.ndarray:
        """The half kinetic step of the stack whose transform ``vhat`` was
        just made, computed in ``vhat``'s buffer, which is returned."""
        return ifftn(_times_temporary(self.kin, vhat, self._dim), self._dim, _overwrite=True)


def _oscillating_phase(w: np.ndarray, s: float, out: np.ndarray) -> np.ndarray:
    """``np.exp(-1j * w * s)`` bit for bit, as ``cos(theta) + i sin(theta)``,
    written into ``out`` (complex128, of ``w``'s shape) and returned.

    ``theta = 0.0 - w*s`` is exactly the imaginary part of numpy's argument,
    whose real part is +0.0, and numpy's complex exp of ``0 + i theta`` is
    ``cos(theta) + i sin(theta)`` on the pinned numpy, which a test checks;
    the real pair costs less than the complex exp.
    """
    theta = np.multiply(w, s)
    np.subtract(0.0, theta, out=theta)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def lockstep(
    steppers: Sequence[StrangStepper],
    states: Sequence[np.ndarray],
    t0: float,
    n_steps: int,
    stride: int,
    on_frame: Callable[[int, float, tuple[np.ndarray, ...]], None],
    lane: Executor | None = None,
) -> list[np.ndarray]:
    """March each state with its own stepper, side by side at a shared dt;
    every state is a stack that its stepper marches as one.

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
    """March ``system`` from ``psi0`` for a time ``T`` in steps of ``dt``,
    returning one snapshot per requested time, in request order.

    ``T`` and the snapshot times are measured from ``psi0.time``: from a
    state stamped ``t0``, the run ends at ``t0 + T`` and the snapshot at
    time ``s`` is stamped ``t0 + s``.  T must be finite and nonnegative.
    ``dt`` must be positive and finite, must divide T, and for an
    ``OscillatingSystem`` must keep the fast-period rule
    ``dt <= eps / MIN_STEPS_PER_FAST_PERIOD``; each breach raises
    ConfigError.  Snapshot times are rounded to the nearest step; a time
    outside [0, T], NaN included, raises ConfigError, at T == 0 too.
    Times that round to one step get the same state object.  At every
    snapshot step the monitors of ``check_monitors`` run once, with the
    given boundary tolerance.
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
    n_steps = int(round(T / dt))
    if T > 0 and (n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T)):
        raise ConfigError(f"dt={dt} does not divide the horizon T={T}")

    steps = [_snap_index(t, dt, n_steps, T) for t in snapshot_times]
    if T == 0:
        return [psi0] * len(steps)
    wanted = set(steps)
    stepper = StrangStepper((system,), psi0.grid, dt)
    h1_initial = norms(psi0.grid, psi0.values).h1

    out: dict[int, WaveFunction] = {}

    def snapshot(idx: int, t: float, states: tuple[np.ndarray, ...]) -> None:
        if idx in wanted:
            wf = psi0 if idx == 0 else WaveFunction._adopt(psi0.grid, states[0][0], t)
            check_monitors(
                boundary_mass_fraction(wf.grid, np.abs(wf.values) ** 2),
                norms(wf.grid, wf.values).h1,
                h1_initial,
                t,
                boundary_tol=boundary_tol,
            )
            out[idx] = wf

    lockstep((stepper,), (psi0.values[np.newaxis],), psi0.time, n_steps, 1, snapshot)
    return [out[idx] for idx in steps]


def _snap_index(t: float, dt: float, n_steps: int, T: float) -> int:
    if not (-1e-12 <= t <= T * (1.0 + 1e-12)):  # NaN fails too
        raise ConfigError(f"snapshot time {t} outside [0, {T}]")
    idx = int(round(t / dt))
    return min(max(idx, 0), n_steps)


# ---------------------------------------------------------------------------
# diagnostics


def _check_paired(psi_a: WaveFunction, psi_b: WaveFunction) -> None:
    """Raise UsageError unless the states share a grid and a time stamp."""
    if psi_a.grid != psi_b.grid:
        raise UsageError("wave functions live on different grids")
    if abs(psi_a.time - psi_b.time) > 1e-9 * max(1.0, abs(psi_a.time)):
        raise UsageError(
            f"wave functions are stamped at different times: {psi_a.time} vs {psi_b.time}"
        )


def h1_distance(psi_a: WaveFunction, psi_b: WaveFunction) -> float:
    """H1 norm of the difference; requires matching grid and time stamp."""
    _check_paired(psi_a, psi_b)
    return float(norms(psi_a.grid, psi_a.values - psi_b.values).h1)


def gronwall_integrand(
    psi_eps: WaveFunction,
    psi_eff: WaveFunction,
    system: OscillatingSystem,
    Vstar: StaticPotential,
    *,
    w: np.ndarray,
) -> float:
    """|<(V(t/eps,.) - V*) psi_eps, Lap(psi_eps - psi_eff)>| on the grid.

    ``system`` gives ``V`` and ``eps``; ``t`` is the states' common time
    stamp, and states on different grids or stamped at different times, or
    a ``Vstar`` on another grid than theirs, raise UsageError.  ``w`` is
    ``V.spatial_values(grid)``, which a caller evaluating the term frame
    after frame builds once.  This is the forcing
    term whose vanishing drives the averaged system's H1 error estimate to
    zero.  The Laplacian is taken in place in the one buffer of the
    difference, so the term needs about three states of scratch.
    """
    _check_paired(psi_eps, psi_eff)
    grid = psi_eps.grid
    if Vstar.grid != grid:
        raise UsageError("V* lives on a different grid than the wave functions")
    if w.shape != grid.shape:
        raise UsageError(f"spatial values of shape {w.shape} do not match grid shape {grid.shape}")
    V, t = system.potential, psi_eps.time
    # the arithmetic of evaluate(V, t / eps, grid).values, on the caller's w
    a = float(V.temporal(np.asarray(t / system.eps, dtype=np.float64)))
    # the difference is transformed, differentiated and conjugated in its
    # own buffer; the products keep the order of
    # ``dV * psi_eps.values * np.conj(lap)``
    diff = np.subtract(psi_eps.values, psi_eff.values)
    conj_lap = _laplacian_of_transform(grid, fftn(diff, grid.dim, _overwrite=True))
    np.conjugate(conj_lap, out=conj_lap)
    dV = a * w - Vstar.values
    product = dV * psi_eps.values
    inner = np.sum(np.multiply(product, conj_lap, out=product)) * grid.cell_volume
    return float(abs(inner))

"""Time-periodic separable potentials a(s)*W(x) and their time averages.

The temporal factor a has unit period; the effective potential multiplies
the spatial profile by the mean of a over one period, computed with
composite Gauss-Legendre quadrature and cross-checked against an analytic
mean when one is known.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.polynomial  # loaded with the package, so that no row pays the import

from .errors import ConfigError, InconsistencyError, InputError
from .grid import Grid

__all__ = [
    "TemporalProfile",
    "SpatialProfile",
    "TimePeriodicPotential",
    "StaticPotential",
    "SubquadraticReport",
    "evaluate",
    "period_mean",
    "effective_potential",
    "check_subquadratic",
    "constant_profile",
    "one_plus_cos",
    "one_plus_half_sin",
    "exp_sin",
    "harmonic",
    "gaussian_well",
    "cosine_lattice",
]

_QUAD_PANELS = 4  # composite panels over one period
SUBQUADRATIC_PHASE_SAMPLES = 64  # phases of a sampled over [0, 1)
SUBQUADRATIC_BOUND = 1e6  # largest accepted second derivative of V


@dataclass(frozen=True)
class TemporalProfile:
    """Periodic temporal factor a(s) with a(s+1) = a(s).

    ``antiderivative`` is A(s) with A' = a, used for exact per-step phase
    integrals; when None the solver falls back to Gauss quadrature.
    ``mean`` is the analytic value of the period average when known.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray] | None = None
    mean: float | None = None

    def __call__(self, s):
        return self.func(s)


@dataclass(frozen=True)
class SpatialProfile:
    """Spatial factor W(x) with an optional analytic second derivative.

    ``func`` maps a list of coordinate arrays (one per axis) to W values.
    ``second_derivative`` returns per-axis arrays of d^2 W / dx_i^2; the
    subquadratic check reads it when present.
    """

    name: str
    func: Callable[[list[np.ndarray]], np.ndarray]
    second_derivative: Callable[[list[np.ndarray]], list[np.ndarray]] | None = None

    def __call__(self, coords):
        return self.func(coords)


@dataclass(frozen=True)
class TimePeriodicPotential:
    """Separable potential V(s, x) = a(s) * W(x); the constant temporal
    profile gives the degenerate time-independent case."""

    temporal: TemporalProfile
    spatial: SpatialProfile
    analytic_mean: float | None = None

    def __post_init__(self) -> None:
        if self.analytic_mean is None and self.temporal.mean is not None:
            object.__setattr__(self, "analytic_mean", self.temporal.mean)

    def spatial_values(self, grid: Grid) -> np.ndarray:
        w = np.asarray(self.spatial(grid.meshgrid()), dtype=np.float64)
        if not np.isfinite(w).all():
            raise InputError(f"spatial profile '{self.spatial.name}' is non-finite on the grid")
        return w

    def temporal_integral(self, t0: float, t1: float, eps: float) -> float:
        """Exact integral of a(s/eps) over [t0, t1].

        Uses the closed-form antiderivative when the profile carries one,
        otherwise an 8-point Gauss-Legendre rule on the interval.
        """
        A = self.temporal.antiderivative
        if A is not None:
            return eps * float(A(t1 / eps) - A(t0 / eps))
        nodes, weights = _gauss_nodes(8)
        s = t0 + (t1 - t0) * nodes
        return (t1 - t0) * float(np.sum(weights * self.temporal(s / eps)))


@dataclass(frozen=True, eq=False)
class StaticPotential:
    """Time-independent potential on a grid: finite values, stored
    read-only."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise InputError("potential shape does not match grid")
        if not np.isfinite(v).all():
            raise InputError("potential contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SubquadraticReport:
    min_value: float
    max_second_derivative: float
    ok: bool


# ---------------------------------------------------------------------------
# built-in profiles


def constant_profile(value: float = 1.0) -> TemporalProfile:
    return TemporalProfile(
        name="constant",
        func=lambda s: np.full_like(np.asarray(s, dtype=np.float64), value),
        antiderivative=lambda s: value * np.asarray(s, dtype=np.float64),
        mean=value,
    )


def one_plus_cos() -> TemporalProfile:
    return TemporalProfile(
        name="one_plus_cos",
        func=lambda s: 1.0 + np.cos(2.0 * np.pi * s),
        antiderivative=lambda s: s + np.sin(2.0 * np.pi * s) / (2.0 * np.pi),
        mean=1.0,
    )


def one_plus_half_sin() -> TemporalProfile:
    return TemporalProfile(
        name="one_plus_half_sin",
        func=lambda s: 1.0 + 0.5 * np.sin(2.0 * np.pi * s),
        antiderivative=lambda s: s - np.cos(2.0 * np.pi * s) / (4.0 * np.pi),
        mean=1.0,
    )


def exp_sin() -> TemporalProfile:
    # period mean is the modified Bessel value I0(1); no elementary antiderivative
    return TemporalProfile(
        name="exp_sin",
        func=lambda s: np.exp(np.sin(2.0 * np.pi * s)),
        antiderivative=None,
        mean=float(np.i0(1.0)),
    )


def harmonic() -> SpatialProfile:
    return SpatialProfile(
        name="harmonic",
        func=lambda coords: sum(0.5 * c * c for c in coords),
        second_derivative=lambda coords: [np.ones_like(c) for c in coords],
    )


def gaussian_well(depth: float = 1.0, width: float = 1.0) -> SpatialProfile:
    if depth <= 0 or width <= 0:
        raise ConfigError("gaussian_well needs positive depth and width")
    w2 = width * width

    def func(coords):
        r2 = sum(c * c for c in coords)
        return -depth * np.exp(-r2 / (2.0 * w2))

    def second(coords):
        r2 = sum(c * c for c in coords)
        e = np.exp(-r2 / (2.0 * w2))
        return [depth / w2 * e * (1.0 - c * c / w2) for c in coords]

    return SpatialProfile("gaussian_well", func, second)


def cosine_lattice(amplitude: float, periods: int, half_width: float) -> SpatialProfile:
    """Sum of per-axis cosines with an integer number of periods across the box."""
    if periods < 1:
        raise ConfigError("cosine_lattice needs periods >= 1")
    k = np.pi * periods / half_width

    return SpatialProfile(
        name="cosine_lattice",
        func=lambda coords: sum(amplitude * np.cos(k * c) for c in coords),
        second_derivative=lambda coords: [-amplitude * k * k * np.cos(k * c) for c in coords],
    )


# ---------------------------------------------------------------------------
# operations


def evaluate(V: TimePeriodicPotential, s: float, grid: Grid) -> StaticPotential:
    """Pointwise a(s) * W(x_i) on the grid."""
    return _scaled_spatial(V, float(V.temporal(np.asarray(s, dtype=np.float64))), grid)


def period_mean(V: TimePeriodicPotential, quad_order: int = 16) -> float:
    """The mean of a over one period, by composite Gauss-Legendre quadrature
    (``_QUAD_PANELS`` panels of ``quad_order`` nodes each).

    A ``quad_order`` below 8 raises ConfigError.  If the profile carries an
    analytic mean, the quadrature must reproduce it to 1e-10 relative or an
    InconsistencyError is raised.
    """
    if quad_order < 8:
        raise ConfigError(f"quad_order must be >= 8, got {quad_order}")
    nodes, weights = _gauss_nodes(quad_order)
    mean = 0.0
    for p in range(_QUAD_PANELS):
        s = p / _QUAD_PANELS + nodes / _QUAD_PANELS
        mean += float(np.sum(weights * V.temporal(s))) / _QUAD_PANELS
    if V.analytic_mean is not None:
        scale = max(1.0, abs(V.analytic_mean))
        if abs(mean - V.analytic_mean) > 1e-10 * scale:
            raise InconsistencyError(
                f"quadrature mean {mean!r} disagrees with analytic mean "
                f"{V.analytic_mean!r} beyond 1e-10 relative"
            )
    return mean


def effective_potential(
    V: TimePeriodicPotential, grid: Grid, quad_order: int = 16
) -> StaticPotential:
    """Time average of V over one period: (int_0^1 a) * W, with the mean
    from ``period_mean`` (and its checks)."""
    return _scaled_spatial(V, period_mean(V, quad_order), grid)


def check_subquadratic(V: TimePeriodicPotential, grid: Grid) -> SubquadraticReport:
    """Report min V over sampled phases and the largest per-axis second
    derivative of V, as a bounded-below / subquadratic validity check.

    Second derivatives come from the profile's analytic form when present;
    otherwise a 4th-order centred finite-difference stencil is used with a
    two-cell boundary margin excluded (spatial profiles need not be
    box-periodic, so wrap-around stencils and global spectral derivatives
    would corrupt the estimate near the boundary).
    """
    s = np.linspace(0.0, 1.0, SUBQUADRATIC_PHASE_SAMPLES, endpoint=False)
    a_vals = np.asarray(V.temporal(s), dtype=np.float64)
    if not np.isfinite(a_vals).all():
        raise InputError("temporal profile is non-finite on [0, 1)")
    w = V.spatial_values(grid)

    second = V.spatial.second_derivative
    if second is not None:
        # axis by axis, with no (dim, *grid) stack; np.max keeps a NaN
        max_w2 = float(np.max([np.max(np.abs(d)) for d in second(grid.meshgrid())]))
    else:
        max_w2 = _fd_second_derivative_max(grid, w)
    if not np.isfinite(max_w2):
        raise InputError("second derivatives of the spatial profile are non-finite")

    max_abs_a = float(np.max(np.abs(a_vals)))
    max_second = max_abs_a * max_w2

    w_min, w_max = float(w.min()), float(w.max())
    min_value = float(np.min(np.minimum(a_vals * w_min, a_vals * w_max)))

    ok = bool(np.isfinite(min_value) and max_second <= SUBQUADRATIC_BOUND)
    return SubquadraticReport(min_value=min_value, max_second_derivative=max_second, ok=ok)


# ---------------------------------------------------------------------------
# helpers


def _scaled_spatial(V: TimePeriodicPotential, a: float, grid: Grid) -> StaticPotential:
    """a * W on the grid."""
    return StaticPotential(grid, a * V.spatial_values(grid))


@functools.cache
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [0, 1]; cached per order, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _fd_second_derivative_max(grid: Grid, w: np.ndarray) -> float:
    """Max |d^2 W / dx_i^2| by 4th-order centred differences, interior only."""
    inv = 1.0 / (12.0 * grid.dx**2)
    worst = 0.0
    n = grid.n_per_axis
    for axis in range(grid.dim):
        d2 = (
            -np.roll(w, 2, axis=axis)
            + 16.0 * np.roll(w, 1, axis=axis)
            - 30.0 * w
            + 16.0 * np.roll(w, -1, axis=axis)
            - np.roll(w, -2, axis=axis)
        ) * inv
        # drop two cells at each end of this axis: wrap-around is meaningless
        # for non-periodic profiles
        sl = [slice(None)] * grid.dim
        sl[axis] = slice(2, n - 2)
        worst = max(worst, float(np.max(np.abs(d2[tuple(sl)]))))
    return worst


TEMPORAL_BUILTINS: dict[str, Callable[..., TemporalProfile]] = {
    "constant": constant_profile,
    "one_plus_cos": one_plus_cos,
    "one_plus_half_sin": one_plus_half_sin,
    "exp_sin": exp_sin,
}

SPATIAL_BUILTINS: dict[str, Callable[..., SpatialProfile]] = {
    "harmonic": harmonic,
    "gaussian_well": gaussian_well,
    "cosine_lattice": cosine_lattice,
}

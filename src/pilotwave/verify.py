"""Named verification suites bundling the package's numerical invariants.

Each suite runs pinned desk-scale configurations and reports measured
values against tolerances, one line per check.  ``run_suite`` returns a
result object; the CLI maps failure onto a nonzero exit status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bohm import FieldHistory, densities, hydrodynamic_residual, integrate_trajectories, quantum_potential
from .errors import UsageError
from .grid import make_grid
from .harness import build_grid, build_potential, harmonic_benchmark_config
from .measure import PhaseSpaceMeasure, flat_distance, trajectory_deviation_measure
from .potential import StaticPotential, TimePeriodicPotential, constant_profile, effective_potential, harmonic
from .solver import MIN_STEPS_PER_FAST_PERIOD, OscillatingSystem, gaussian_packet, h1_distance, propagate

__all__ = ["CheckResult", "SuiteResult", "run_suite", "SUITE_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: str
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: value={self.value:.6e} requirement={self.tolerance}"


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _bounded(name: str, value: float, bound: float) -> CheckResult:
    return CheckResult(name, value, f"<= {bound:g}", bool(value <= bound))


def _in_window(name: str, value: float, lo: float, hi: float) -> CheckResult:
    return CheckResult(name, value, f"in [{lo:g}, {hi:g}]", bool(lo <= value <= hi))


# ---------------------------------------------------------------------------
# suites


def _suite_unitarity() -> list[CheckResult]:
    """Harmonic benchmark at eps = 0.05: L2 norm drift along the run."""
    cfg = harmonic_benchmark_config()
    grid = build_grid(cfg.grid)
    V = build_potential(cfg.potential, grid)
    eps = 0.05
    dt = eps / MIN_STEPS_PER_FAST_PERIOD
    psi0 = gaussian_packet(grid, width=1.0)
    snaps = propagate(psi0, OscillatingSystem(V, eps), 1.0, dt, snapshot_times=[0.25, 0.5, 0.75, 1.0])
    dv = grid.cell_volume
    drift = max(abs(float(np.sqrt(np.sum(np.abs(s.values) ** 2) * dv)) - 1.0) for s in snaps)
    return [_bounded("unitarity.l2_norm_drift", drift, 1e-9)]


def _suite_splitting_order() -> list[CheckResult]:
    """L2 self-convergence against a dt/4 reference must scale as dt^2."""
    grid = make_grid(1, 512, 16.0)
    Vstar = effective_potential(TimePeriodicPotential(constant_profile(1.0), harmonic()), grid)
    psi0 = gaussian_packet(grid, width=1.0)
    dv = grid.cell_volume

    def final(dt: float) -> np.ndarray:
        snaps = propagate(psi0, Vstar, 1.0, dt, [1.0])
        return snaps[-1].values

    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        errs.append(float(np.sqrt(np.sum(np.abs(final(dt) - final(dt / 4)) ** 2) * dv)))
    checks = []
    for i, (a, b) in enumerate(zip(errs, errs[1:])):
        checks.append(
            _in_window(f"splitting_order.halving_ratio_{i}", a / b, 4.0 / 1.5, 4.0 * 1.5)
        )
    return checks


def _free_gaussian_history(T: float, h: float):
    """Velocity history of a width-1 free Gaussian, stepped at h/4 with a
    frame every second step: the frames an RK4 step of h reads, at
    ``history.times[::2]``.

    The packet spread to sigma(2) = sqrt(2) leaves 1.5e-8 of mass outside
    |x| <= 8 on the pinned L = 16 box, a hair over the default 1e-8 budget,
    so this analytic oracle runs with a 1e-7 boundary budget.
    """
    grid = make_grid(1, 512, 16.0)
    Vstar = StaticPotential(grid, np.zeros(grid.shape))
    psi0 = gaussian_packet(grid, width=1.0)
    dtf = h / 4
    times = np.arange(0, int(round(T / dtf)) + 1, 2) * dtf
    snaps = propagate(psi0, Vstar, T, dtf, times, boundary_tol=1e-7)
    fields = np.stack([densities(s).velocity for s in snaps])
    return grid, FieldHistory(grid, times, fields), snaps


def _suite_free_gaussian() -> list[CheckResult]:
    """Spreading packet: X(2, x0) = sqrt(2) x0 and variance sigma(2)^2 = 2."""
    T, h = 2.0, 0.02
    grid, history, snaps = _free_gaussian_history(T, h)
    x0 = np.linspace(-3.0, 3.0, 61)[:, None]
    ens = integrate_trajectories(history, x0, history.times[::2])
    target = np.sqrt(1.0 + T * T / 4.0) * x0[:, 0]
    traj_err = float(np.max(np.abs(ens.positions[-1][:, 0] - target)))

    rho_final = densities(snaps[-1]).rho
    x = grid.axes[0]
    dv = grid.cell_volume
    mean = float(np.sum(x * rho_final) * dv)
    var = float(np.sum((x - mean) ** 2 * rho_final) * dv)
    return [
        _bounded("free_gaussian.trajectory_max_error", traj_err, 1e-3),
        _bounded("free_gaussian.variance_error", abs(var - 2.0), 1e-4),
    ]


def _suite_continuity() -> list[CheckResult]:
    """d rho/dt + div J on a free packet: second order in the snapshot spacing."""
    grid = make_grid(1, 512, 16.0)
    Vstar = StaticPotential(grid, np.zeros(grid.shape))
    psi0 = gaussian_packet(grid, width=1.0)

    def residual(tau: float) -> float:
        t0 = 0.5
        snaps = propagate(psi0, Vstar, t0 + tau, tau, [t0 - tau, t0, t0 + tau])
        return hydrodynamic_residual([densities(s) for s in snaps], Vstar).continuity

    r1 = residual(1e-3)
    r2 = residual(5e-4)
    return [
        _bounded("continuity.residual_at_dt_1e-3", r1, 1e-6),
        _in_window("continuity.halving_ratio", r1 / r2, 3.0, 5.0),
    ]


def _suite_quantum_potential() -> list[CheckResult]:
    """Gaussian density: Q(x) = x^2/8 - 1/4 for sigma = 1."""
    grid = make_grid(1, 512, 16.0)
    x = grid.axes[0]
    rho = np.exp(-(x**2) / 2.0)
    rho /= rho.sum() * grid.cell_volume
    q = quantum_potential(rho, grid).values
    exact = x**2 / 8.0 - 0.25
    window = np.abs(x) <= 4.0
    return [
        _bounded("quantum_potential.center_error", abs(q[grid.n_per_axis // 2] + 0.25), 1e-6),
        _bounded("quantum_potential.max_error_|x|<=4", float(np.max(np.abs(q - exact)[window])), 1e-6),
    ]


def _suite_degenerate_potential() -> list[CheckResult]:
    """Time-independent V: the two systems must agree to roundoff for any eps."""
    grid = make_grid(1, 512, 16.0)
    V = TimePeriodicPotential(constant_profile(1.0), harmonic())
    Vstar = effective_potential(V, grid)
    psi0 = gaussian_packet(grid, width=1.0)
    checks = []
    for eps in (0.2, 0.025):
        dt = eps / MIN_STEPS_PER_FAST_PERIOD
        a = propagate(psi0, OscillatingSystem(V, eps), 1.0, dt, [1.0])[-1]
        b = propagate(psi0, Vstar, 1.0, dt, [1.0])[-1]
        checks.append(_bounded(f"degenerate_potential.h1_eps_{eps:g}", h1_distance(a, b), 5e-9))
    return checks


def _synthetic_cloud(seed: int, m: int = 2000) -> PhaseSpaceMeasure:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, 1))
    p = 0.3 * x + 0.2 * rng.normal(size=(m, 1))
    w = np.full(m, 1.0 / m)
    return PhaseSpaceMeasure(points_x=x, points_p=p, weights=w, total_mass=1.0)


def _suite_measure_metrics() -> list[CheckResult]:
    checks = []
    a = _synthetic_cloud(0)
    checks.append(_bounded("measure_metrics.self_distance", flat_distance(a, a), 0.0))

    dp = 0.25
    shifted = PhaseSpaceMeasure(a.points_x, a.points_p + dp, a.weights, a.total_mass)
    est = flat_distance(a, shifted)
    checks.append(_in_window("measure_metrics.shift_bound", est, 0.1 * dp, dp))

    worst_tri = 0.0
    worst_sym = 0.0
    for seed in range(5):
        m1 = _synthetic_cloud(3 * seed + 1, m=400)
        m2 = _synthetic_cloud(3 * seed + 2, m=400)
        m3 = _synthetic_cloud(3 * seed + 3, m=400)
        d12 = flat_distance(m1, m2)
        d23 = flat_distance(m2, m3)
        d13 = flat_distance(m1, m3)
        worst_tri = max(worst_tri, d13 - (d12 + d23))
        worst_sym = max(worst_sym, abs(d12 - flat_distance(m2, m1)))
    checks.append(_bounded("measure_metrics.triangle_violation", worst_tri, 1e-12))
    checks.append(_bounded("measure_metrics.symmetry_violation", worst_sym, 1e-12))

    # deviation fraction is monotone nonincreasing in delta
    T, h = 1.0, 0.05
    grid, history, _ = _free_gaussian_history(T, h)
    x0 = np.linspace(-2.0, 2.0, 50)[:, None]
    ens_a = integrate_trajectories(history, x0, history.times[::2])
    shifted_fields = history.values + 0.08
    ens_b = integrate_trajectories(FieldHistory(grid, history.times, shifted_fields), x0, history.times[::2])
    fracs = [trajectory_deviation_measure(ens_a, ens_b, d) for d in (0.01, 0.05, 0.1, 0.2)]
    mono = all(f1 >= f2 for f1, f2 in zip(fracs, fracs[1:]))
    checks.append(
        CheckResult(
            "measure_metrics.deviation_monotone_in_delta",
            float(mono),
            "nonincreasing fractions",
            mono,
        )
    )
    return checks


_SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "unitarity": _suite_unitarity,
    "splitting_order": _suite_splitting_order,
    "free_gaussian": _suite_free_gaussian,
    "continuity": _suite_continuity,
    "quantum_potential": _suite_quantum_potential,
    "degenerate_potential": _suite_degenerate_potential,
    "measure_metrics": _suite_measure_metrics,
}

SUITE_NAMES = tuple(_SUITES) + ("full",)


def run_suite(name: str, printer: Callable[[str], None] | None = print) -> SuiteResult:
    """Run one named suite ('full' runs them all); prints one line per check."""
    if name == "full":
        names = list(_SUITES)
    elif name in _SUITES:
        names = [name]
    else:
        raise UsageError(f"unknown suite '{name}' (choices: {', '.join(SUITE_NAMES)})")
    checks: list[CheckResult] = []
    for n in names:
        checks.extend(_SUITES[n]())
    result = SuiteResult(suite=name, checks=tuple(checks))
    if printer is not None:
        for c in result.checks:
            printer(c.line())
        printer(f"suite '{name}': {'PASS' if result.passed else 'FAIL'}")
    return result

"""Exact oracle for both systems and their Bohmian flows.

In the harmonic trap ``V = a(t/eps) x^2/2`` a centred Gaussian stays
Gaussian, ``psi = exp(-alpha x^2 + gamma)``, with

    alpha' = -2i alpha^2 + i a(t/eps)/2,    gamma' = -i alpha

(Lewis & Riesenfeld, J. Math. Phys. 10, 1458 (1969)); the averaged system
is the same with ``a == 1``.  Its Bohmian velocity is ``u = -2 Im(alpha) x``,
so the paths are ``X = x0 sigma(t)/sigma(0)`` with ``sigma^2 = 1/(4 Re alpha)``
and the momenta ``P = -2 Im(alpha) X``.  The ODE is solved to rtol 1e-13;
the Strang step must meet it to second order in dt.

On any 1D potential the Bohmian flow pushes rho0 forward without crossing
itself, so it is the quantile map ``X_t(x0) = F_t^-1(F_0(x0))`` of the
densities' CDFs (Holland, The Quantum Theory of Motion, 1993, sec. 3.2):
a row's trajectory ensembles must meet it wherever the closed form above
does not reach.
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pilotwave.bohm import FieldHistory, densities, integrate_trajectories
from pilotwave.grid import make_grid
from pilotwave.harness import (
    PotentialSpec,
    _propagate_and_record,
    _row_inputs,
    _trajectories,
    harmonic_benchmark_config,
)
from pilotwave.potential import TimePeriodicPotential, effective_potential, harmonic, one_plus_cos
from pilotwave.solver import OscillatingSystem, gaussian_packet, propagate

EPS = 0.1
T = 1.0
WIDTH = 1.0


def exact_coefficients(swing, times):
    """(alpha, gamma) at ``times`` for ``a(s) = 1 + swing cos(2 pi s)``,
    from alpha(0) = 1/(4 w^2) and gamma(0) = 0."""

    def rhs(t, y):
        alpha = y[0]
        a = 1.0 + swing * np.cos(2.0 * np.pi * t / EPS)
        return [-2j * alpha * alpha + 0.5j * a, -1j * alpha]

    sol = solve_ivp(
        rhs, (0.0, times[-1]), [1.0 / (4.0 * WIDTH**2) + 0j, 0j], method="DOP853",
        rtol=1e-13, atol=1e-15, t_eval=times,
    )
    assert sol.success
    return sol.y[0], sol.y[1]


def oracle_errors(kind, n_steps):
    """L2 error of the final state, and max errors of paths and momenta."""
    grid = make_grid(1, 512, 16.0)
    V = TimePeriodicPotential(one_plus_cos(), harmonic())
    swing = 1.0 if kind == "oscillating" else 0.0  # V* has a == mean(a) == 1
    system = OscillatingSystem(V, EPS) if swing else effective_potential(V, grid)
    psi0 = gaussian_packet(grid, width=WIDTH)
    dt = T / n_steps
    # a velocity frame every 4 steps and an RK4 step over 8, as a sweep row stores them
    frame_times = np.arange(0, n_steps + 1, 4) * dt
    snaps = propagate(psi0, system, T, dt, frame_times)
    history = FieldHistory(grid, frame_times, np.stack([densities(s).velocity for s in snaps]))
    out_times = frame_times[::2]
    x0 = np.linspace(-2.0, 2.0, 21)[:, None]
    ens = integrate_trajectories(history, x0, out_times)

    alpha, gamma = exact_coefficients(swing, out_times)  # out_times[-1] is T
    x = grid.axes[0]
    exact = psi0.values * np.exp(-(alpha[-1] - alpha[0]) * x * x + gamma[-1] - gamma[0])
    state_err = float(np.sqrt(np.sum(np.abs(snaps[-1].values - exact) ** 2) * grid.cell_volume))

    alpha = alpha[:, None]
    sigma = 1.0 / np.sqrt(4.0 * alpha.real)
    X = x0[:, 0] * sigma / sigma[0]
    P = -2.0 * alpha.imag * X
    path_err = float(np.max(np.abs(ens.positions[..., 0] - X)))
    momentum_err = float(np.max(np.abs(ens.momenta[..., 0] - P)))
    return np.array([state_err, path_err, momentum_err])


@pytest.mark.parametrize("kind", ["oscillating", "averaged"])
def test_states_paths_and_momenta_meet_the_exact_gaussian(kind):
    coarse = oracle_errors(kind, 320)
    fine = oracle_errors(kind, 640)
    assert coarse[0] < 5e-6
    assert coarse[1] < 1e-5 and coarse[2] < 1e-5
    # second order in dt: each error falls about 4x when dt halves
    assert (coarse >= 3.0 * fine).all(), (coarse, fine)


PAD = 16  # refinement of the grid on which the CDFs are tabulated


def band_limited_cdf(grid, rho):
    """(x, F): the antiderivative from ``-half_width`` of ``rho``'s
    trigonometric interpolant, exact on the grid refined ``PAD`` times
    (both ends included), so rho is zero-padded ``PAD``x in Fourier."""
    n, fine = grid.n_per_axis, PAD * grid.n_per_axis
    k = grid.wavenumbers[0]
    modes = np.fft.fft(rho) / n / (1j * np.where(k == 0.0, 1.0, k))
    modes[0] = 0.0  # the mean's antiderivative is the linear term below
    anti = np.zeros(fine, dtype=complex)  # the periodic part of F, zero-padded
    anti[: n // 2] = modes[: n // 2]
    anti[-(n // 2):] = modes[n // 2:]
    periodic = np.fft.ifft(anti).real * fine
    periodic = np.append(periodic, periodic[0])
    x = -grid.half_width + np.arange(fine + 1) * (2.0 * grid.half_width / fine)
    return x, rho.mean() * (x + grid.half_width) + periodic - periodic[0]


def quantile_flow(grid, rho0, rho_t, x0):
    """``F_t^-1(F_0(x0))`` for the 1D densities ``rho0`` and ``rho_t``."""
    x, F0 = band_limited_cdf(grid, rho0)
    _, Ft = band_limited_cdf(grid, rho_t)
    Ft = np.maximum.accumulate(Ft)  # the interpolant may dip below 0 in the far tails
    return np.interp(np.interp(x0, x, F0), Ft, x)


@pytest.mark.parametrize(
    "temporal, spatial, eps",
    [("one_plus_cos", "harmonic", 0.05), ("one_plus_half_sin", "gaussian_well", 0.1)],
)
def test_row_ensembles_meet_the_quantile_flow(temporal, spatial, eps):
    # the canon row, and a row with a kick and no closed form; both systems
    # are propagated at the row's dt to each output time of its ensembles.
    # The harmonic velocity is linear in x, so only the well row's paths
    # would show a lower-order interpolation of the velocity field
    cfg = harmonic_benchmark_config()
    cfg = dataclasses.replace(cfg, potential=PotentialSpec(temporal=temporal, spatial=spatial))
    row = _row_inputs(cfg, eps)
    *_, velocity = _propagate_and_record(cfg, eps, row, None)
    ensembles = _trajectories(cfg, row, velocity)
    systems = (
        OscillatingSystem(row.potential, eps),
        effective_potential(row.potential, row.grid, cfg.solver.quad_order),
    )
    rho0 = np.abs(row.psi0.values) ** 2
    for ens, system in zip(ensembles, systems):
        assert ens.valid.all()
        x0 = ens.initial_points[:, 0]
        snaps = propagate(row.psi0, system, cfg.sweep.horizon, row.dt, ens.times)
        for k, snap in enumerate(snaps):
            X = quantile_flow(row.grid, rho0, np.abs(snap.values) ** 2, x0)
            assert np.max(np.abs(ens.positions[k, :, 0] - X)) < 2e-5, (type(system).__name__, ens.times[k])

"""2D end-to-end and 3D smoke coverage for the dimension-generic paths."""

import math

import numpy as np

from pilotwave.bohm import FieldHistory, integrate_trajectories, sample_initial_positions
from pilotwave.grid import make_grid, norms
from pilotwave.harness import (
    ExperimentConfig,
    GridSpec,
    InitialStateSpec,
    PotentialSpec,
    SweepSpec,
    run_single,
    run_sweep,
)
from pilotwave.potential import (
    StaticPotential,
    TimePeriodicPotential,
    effective_potential,
    harmonic,
    one_plus_cos,
)
from pilotwave.solver import (
    OscillatingSystem,
    gaussian_packet,
    h1_distance,
    propagate,
    wkb_state,
)


class Test2D:
    def test_free_gaussian_spreading_isotropic(self):
        # per-axis variance grows to sigma0^2 + t^2/(4 sigma0^2)
        g = make_grid(2, 256, 14.0)
        psi = gaussian_packet(g, width=1.0)
        T = 0.5
        snaps = propagate(psi, StaticPotential(g, np.zeros(g.shape)), T, T / 200, [T])
        rho = np.abs(snaps[-1].values) ** 2
        mesh = g.meshgrid()
        expected = 1.0 + T * T / 4.0
        for m in mesh:
            var = float(np.sum(m * m * rho) * g.cell_volume)
            assert abs(var - expected) < 1e-4

    def test_rotation_field_trajectories(self):
        # u = (-y, x): exact circular motion, linear field so the cubic
        # interpolation is exact and RK4 error is O(h^4)
        g = make_grid(2, 64, 8.0)
        T, h = 2.0, 0.02
        dtf = h / 4.0
        times = np.arange(int(round(T / dtf)) + 1) * dtf
        mesh = g.meshgrid()
        field = np.empty((times.size, 2) + g.shape)
        field[:, 0] = -mesh[1]
        field[:, 1] = mesh[0]
        hist = FieldHistory(g, times, field)
        x0 = np.array([[1.0, 0.0], [0.0, -2.0], [1.5, 1.5]])
        ens = integrate_trajectories(hist, x0, times[::4])
        tt = ens.times
        for i, (a, b) in enumerate(x0):
            expect_x = a * np.cos(tt) - b * np.sin(tt)
            expect_y = a * np.sin(tt) + b * np.cos(tt)
            assert np.max(np.abs(ens.positions[:, i, 0] - expect_x)) < 1e-6
            assert np.max(np.abs(ens.positions[:, i, 1] - expect_y)) < 1e-6

    def test_run_single_2d_benchmark(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=2, n_per_axis=256, half_width=16.0),
            initial_state=InitialStateSpec(center=(0.0, 0.0), width=1.2, momentum=(0.0, 0.0)),
            sweep=SweepSpec(horizon=0.5, eps_list=(0.2,), delta_list=(0.05,),
                            ensemble_size=200, seed=12),
        )
        row = run_single(cfg, 0.2)
        assert row.valid
        for name in ("h1_wave", "l1_rho", "l1_current", "b_eps_avg", "monokinetic_dev"):
            assert math.isfinite(getattr(row, name))
        assert row.boundary_mass <= 1e-8
        assert row.injectivity_ratio > 0.0

    def test_2d_convergence_pair(self):
        # homogenization error falls with eps in 2D as well
        cfg = ExperimentConfig(
            grid=GridSpec(dim=2, n_per_axis=256, half_width=16.0),
            initial_state=InitialStateSpec(center=(0.0, 0.0), width=1.2, momentum=(0.0, 0.0)),
            sweep=SweepSpec(horizon=0.5, eps_list=(0.2, 0.05), delta_list=(0.05,),
                            ensemble_size=200, seed=12),
        )
        coarse = run_single(cfg, 0.2)
        fine = run_single(cfg, 0.05)
        assert fine.h1_wave < coarse.h1_wave
        assert fine.monokinetic_dev < coarse.monokinetic_dev


class Test3D:
    def test_propagation_smoke(self):
        # WKB initializer sidesteps the per-width point rule; spectral
        # resolution is what matters at this box size
        g = make_grid(3, 64, 12.0)
        psi0 = wkb_state(g, sqrt_density=lambda c: np.exp(-sum(m * m for m in c) / 4.0))
        V = TimePeriodicPotential(one_plus_cos(), harmonic())
        Vstar = effective_potential(V, g)
        eps = 0.2
        dt = eps / 32
        T = 16 * dt
        snaps_o = propagate(psi0, OscillatingSystem(V, eps), T, dt, [T])
        snaps_e = propagate(psi0, Vstar, T, dt, [T])
        assert abs(norms(snaps_o[-1].field).l2 - 1.0) < 1e-9
        assert h1_distance(snaps_o[-1], snaps_e[-1]) < 0.05

    def test_constant_advection_3d(self):
        g = make_grid(3, 16, 8.0)
        times = np.linspace(0.0, 1.0, 41)
        field = np.empty((41, 3) + g.shape)
        field[:, 0], field[:, 1], field[:, 2] = 0.3, -0.2, 0.1
        hist = FieldHistory(g, times, field)
        x0 = np.array([[0.0, 1.0, -1.0], [2.0, -2.0, 0.5]])
        ens = integrate_trajectories(hist, x0, times[::4])
        drift = np.array([0.3, -0.2, 0.1])
        expected = x0[None, :, :] + ens.times[:, None, None] * drift
        assert np.max(np.abs(ens.positions - expected)) < 1e-12

    def test_sampling_3d_moments(self):
        g = make_grid(3, 32, 8.0)
        mesh = g.meshgrid()
        rho = np.exp(-(mesh[0] ** 2) - (mesh[1] - 1.0) ** 2 - (mesh[2] + 1.0) ** 2)
        M = 40_000
        pts = sample_initial_positions(rho, g, M, seed=3)
        sigma = 1.0 / np.sqrt(2.0)
        for axis, center in enumerate((0.0, 1.0, -1.0)):
            assert abs(pts[:, axis].mean() - center) < 3.0 * sigma / np.sqrt(M) + 0.5 * g.dx


class TestDegenerateSweep:
    def test_four_eps_time_independent_sweep(self):
        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            potential=PotentialSpec(temporal="constant", spatial="harmonic"),
            sweep=SweepSpec(horizon=1.0, eps_list=(0.2, 0.1, 0.05, 0.025), delta_list=(0.05,),
                            ensemble_size=100, seed=6),
        )
        report = run_sweep(cfg, threads=2)
        assert not report.partial
        # all distances sit at the roundoff floor regardless of eps
        assert all(r.h1_wave <= 5e-9 for r in report.rows)
        assert all(dict(r.traj_dev)[0.05] == 0.0 for r in report.rows)
        assert len(report.ratios()["h1_wave"]) == 3

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pilotwave.bohm import (
    FieldHistory,
    TrajectoryEnsemble,
    densities,
    integrate_trajectories,
    sample_initial_positions,
)
import pilotwave.measure as measure
from pilotwave.errors import UsageError
from pilotwave.grid import ComplexField, make_grid
from pilotwave.measure import (
    FEATURE_BLOCK,
    FeatureDictionary,
    InjectivityReport,
    PhaseSpaceMeasure,
    bohmian_measure,
    flat_distance,
    flow_injectivity_monitor,
    injectivity_pairs,
    monokinetic_deviation,
    pair_with_test_function,
    trajectory_deviation_measure,
)
from pilotwave.potential import TimePeriodicPotential, constant_profile, effective_potential, harmonic
from pilotwave.solver import (
    OscillatingSystem,
    WaveFunction,
    gaussian_packet,
    propagate,
)


def plane_wave_state(grid, mode):
    k = np.pi * mode / grid.half_width
    vals = np.exp(1j * k * grid.axes[0]) * (2.0 * grid.half_width) ** -0.5
    return WaveFunction(ComplexField(grid, vals), 0.0), k


def gaussian_cloud(seed, m=2000):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, 1))
    p = 0.3 * x + 0.2 * rng.normal(size=(m, 1))
    return PhaseSpaceMeasure(x, p, np.full(m, 1.0 / m), 1.0)


class TestBohmianMeasure:
    def test_plane_wave_is_monokinetic(self):
        g = make_grid(1, 256, 8.0)
        psi, k = plane_wave_state(g, mode=3)
        beta = bohmian_measure(densities(psi))
        assert abs(beta.total_mass - 1.0) < 1e-9
        assert np.max(np.abs(beta.points_p - k)) < 1e-10

    def test_real_state_has_zero_momentum(self):
        # transform roundoff divided by the velocity floor leaves ~1e-9
        # stray momentum in the deepest kept tail cells
        g = make_grid(1, 512, 16.0)
        beta = bohmian_measure(densities(gaussian_packet(g, width=1.0)))
        assert np.max(np.abs(beta.points_p)) < 1e-8

    def test_packet_mean_momentum(self):
        g = make_grid(1, 512, 16.0)
        beta = bohmian_measure(densities(gaussian_packet(g, width=1.0, momentum=2.0)))
        mean_p = float(np.sum(beta.weights * beta.points_p[:, 0]))
        assert abs(mean_p - 2.0) < 1e-8

    def test_total_mass_matches_density_integral(self):
        g = make_grid(1, 512, 16.0)
        d = densities(gaussian_packet(g, width=1.0, center=1.0))
        beta = bohmian_measure(d)
        mass = float(d.rho.sum() * g.cell_volume)
        assert abs(float(beta.weights.sum()) - mass) < 1e-9

    def test_weight_validation(self):
        with pytest.raises(UsageError):
            PhaseSpaceMeasure(np.zeros((2, 1)), np.zeros((2, 1)), np.array([0.5, -0.1]), 0.4)
        with pytest.raises(UsageError):
            PhaseSpaceMeasure(np.zeros((2, 1)), np.zeros((2, 1)), np.array([0.5, 0.5]), 0.8)


class TestPairing:
    def test_unity_gives_total_mass(self):
        g = make_grid(1, 256, 16.0)
        beta = bohmian_measure(densities(gaussian_packet(g, width=1.0)))
        assert pair_with_test_function(beta, lambda x, p: np.ones(len(x))) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_momentum_observable_on_plane_wave(self):
        g = make_grid(1, 256, 8.0)
        psi, k = plane_wave_state(g, mode=5)
        beta = bohmian_measure(densities(psi))
        val = pair_with_test_function(beta, lambda x, p: p[:, 0])
        assert val == pytest.approx(k, abs=1e-9)

    def test_kinetic_moment_of_drifting_packet(self):
        # for a real envelope with momentum k0 the field velocity is k0
        # everywhere, so <|p|^2> = k0^2 = 0.25 at k0 = 0.5
        g = make_grid(1, 512, 16.0)
        beta = bohmian_measure(densities(gaussian_packet(g, width=1.0, momentum=0.5)))
        val = pair_with_test_function(beta, lambda x, p: np.sum(p * p, axis=1))
        assert val == pytest.approx(0.25, abs=1e-6)


class TestFlatDistance:
    def test_identical_measures(self):
        a = gaussian_cloud(0)
        assert flat_distance(a, a) == 0.0

    @pytest.mark.parametrize("dp", [0.5, 0.25, 0.1, 0.05])
    def test_momentum_shift_bounds(self, dp):
        a = gaussian_cloud(1, m=4000)
        b = PhaseSpaceMeasure(a.points_x, a.points_p + dp, a.weights, a.total_mass)
        est = flat_distance(a, b, dictionary_size=256, seed=7)
        assert 0.1 * dp <= est <= dp

    def test_coarsened_monokinetic_measure(self):
        g = make_grid(1, 256, 16.0)
        x = g.axes[0]
        rho = np.exp(-(x**2) / 2.0)
        rho /= rho.sum() * g.dx
        u = 0.3 * x
        w = rho * g.dx
        fine = PhaseSpaceMeasure(x[:, None], u[:, None], w, float(w.sum()))
        wc = rho[::2] * (2 * g.dx)
        wc *= w.sum() / wc.sum()
        coarse = PhaseSpaceMeasure(x[::2, None], u[::2, None], wc, float(w.sum()))
        assert flat_distance(fine, coarse) <= 2.0 * g.dx

    def test_mass_mismatch_rejected(self):
        a = gaussian_cloud(0)
        b = PhaseSpaceMeasure(a.points_x, a.points_p, 0.5 * a.weights, 0.5)
        with pytest.raises(UsageError):
            flat_distance(a, b)

    def test_deterministic_in_seed(self):
        a, b = gaussian_cloud(3), gaussian_cloud(4)
        d1 = flat_distance(a, b, seed=42)
        d2 = flat_distance(a, b, seed=42)
        d3 = flat_distance(a, b, seed=43)
        assert d1 == d2
        assert d1 != d3

    def test_pseudometric_identities(self):
        worst_tri, worst_sym = 0.0, 0.0
        for seed in range(6):
            m1 = gaussian_cloud(3 * seed + 1, m=300)
            m2 = gaussian_cloud(3 * seed + 2, m=300)
            m3 = gaussian_cloud(3 * seed + 3, m=300)
            d12, d21 = flat_distance(m1, m2), flat_distance(m2, m1)
            d23, d13 = flat_distance(m2, m3), flat_distance(m1, m3)
            worst_sym = max(worst_sym, abs(d12 - d21))
            worst_tri = max(worst_tri, d13 - (d12 + d23))
        assert worst_sym <= 1e-12
        assert worst_tri <= 1e-12


def random_cloud(rng, dim, m):
    x = rng.normal(size=(m, dim))
    p = rng.normal(size=(m, dim))
    w = rng.random(m)
    w /= w.sum()
    return PhaseSpaceMeasure(x, p, w, float(w.sum()))


def whole_matrix_integral(dictionary, beta):
    """The dictionary pairing with every feature evaluated at once."""
    z = np.concatenate([beta.points_x, beta.points_p], axis=1)
    feats = np.cos(z @ dictionary.omega.T + dictionary.offset) / dictionary.norm
    return beta.weights @ feats


class TestFeatureDictionary:
    @pytest.mark.parametrize("dim, points", [(1, 512), (2, 15000), (3, 4000)])
    def test_blocked_integral_equals_the_whole_matrix(self, dim, points):
        rng = np.random.default_rng(dim)
        beta = random_cloud(rng, dim, points)
        for size in (1, FEATURE_BLOCK, 3 * FEATURE_BLOCK, 256):
            dictionary = FeatureDictionary.make(dim, size, seed=size)
            got = dictionary.integrate(beta)
            assert got.shape == (size,)
            assert np.array_equal(got, whole_matrix_integral(dictionary, beta)), size

    @pytest.mark.parametrize("dim, points", [(1, 512), (2, 15000), (3, 4000)])
    def test_partial_last_block_agrees_to_rounding(self, dim, points):
        # a partial tile of columns takes its own BLAS path, so only the
        # last digits of a feature may move
        rng = np.random.default_rng(10 + dim)
        beta = random_cloud(rng, dim, points)
        for size in (17, 250):
            dictionary = FeatureDictionary.make(dim, size, seed=size)
            got = dictionary.integrate(beta)
            want = whole_matrix_integral(dictionary, beta)
            tol = 256 * np.finfo(np.float64).eps * beta.total_mass  # |phi| <= 1
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_no_matrix_of_every_feature_is_built(self, monkeypatch):
        rng = np.random.default_rng(5)
        beta = random_cloud(rng, 2, 1000)
        dictionary = FeatureDictionary.make(2, 256, seed=1)
        widths = []
        real_cos = np.cos

        def cos(x, *args, **kwargs):
            widths.append(np.shape(x)[-1])
            return real_cos(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", cos)
        dictionary.integrate(beta)
        assert widths == [FEATURE_BLOCK] * (256 // FEATURE_BLOCK)


class TestMonokineticDeviation:
    def test_same_state_is_zero(self):
        g = make_grid(1, 256, 16.0)
        d = densities(gaussian_packet(g, width=1.0, momentum=1.0))
        beta = bohmian_measure(d)
        assert monokinetic_deviation(beta, d) == 0.0

    def test_time_independent_potential_tiny(self):
        g = make_grid(1, 256, 12.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        Vstar = effective_potential(V, g)
        psi0 = gaussian_packet(g, width=1.0)
        dt = 0.2 / 32
        a = propagate(psi0, OscillatingSystem(V, 0.2), 0.5, dt, [0.5])[-1]
        b = propagate(psi0, Vstar, 0.5, dt, [0.5])[-1]
        dev = monokinetic_deviation(bohmian_measure(densities(a)), densities(b))
        assert dev < 1e-6


class TestTrajectoryDeviation:
    def _paired_ensembles(self, m=400, amp=0.06, seed=11):
        g = make_grid(1, 256, 8.0)
        T = 1.0
        dtf = 0.0125
        times = np.arange(int(round(T / dtf)) + 1) * dtf
        base = np.zeros((times.size, 1) + g.shape)
        base[:] = 0.2
        mod = base + amp * np.sin(np.pi * g.axes[0] / g.half_width)
        rho0 = np.exp(-(g.axes[0] ** 2))
        x0 = sample_initial_positions(rho0, g, m, seed=seed)
        ha = FieldHistory(g, times, base)
        hb = FieldHistory(g, times, mod)
        out = times[::4]
        return integrate_trajectories(ha, x0, out), integrate_trajectories(hb, x0, out)

    def test_identical_ensembles_zero(self):
        a, _ = self._paired_ensembles()
        for delta in (1e-6, 0.05, 1.0):
            assert trajectory_deviation_measure(a, a, delta) == 0.0

    def test_zero_delta_edge(self):
        a, b = self._paired_ensembles()
        assert trajectory_deviation_measure(a, a, 0.0) == 0.0
        assert trajectory_deviation_measure(a, b, 0.0) > 0.99

    def test_monotone_in_delta(self):
        a, b = self._paired_ensembles()
        deltas = (0.005, 0.02, 0.05, 0.1, 0.3)
        fracs = [trajectory_deviation_measure(a, b, d) for d in deltas]
        assert all(f1 >= f2 for f1, f2 in zip(fracs, fracs[1:]))
        assert fracs[0] > 0.0

    def test_unpaired_rejected(self):
        a, b = self._paired_ensembles()
        shifted = type(b)(
            grid=b.grid,
            initial_points=b.initial_points + 1e-3,
            times=b.times,
            positions=b.positions,
            momenta=b.momenta,
            valid=b.valid,
        )
        with pytest.raises(UsageError):
            trajectory_deviation_measure(a, shifted, 0.05)

    def test_doubled_ensemble_consistency(self):
        # the statistic is a Monte-Carlo mean over samples: doubling M moves
        # it by less than 3 combined standard errors
        delta = 0.045
        a1, b1 = self._paired_ensembles(m=500, seed=21)
        a2, b2 = self._paired_ensembles(m=1000, seed=22)
        f1 = trajectory_deviation_measure(a1, b1, delta)
        f2 = trajectory_deviation_measure(a2, b2, delta)

        def sample_sigma(ea, eb):
            dx = ea.positions - eb.positions
            dp = ea.momenta - eb.momenta
            dev = np.sqrt(np.sum(dx * dx, axis=2) + np.sum(dp * dp, axis=2))
            per_sample = (dev >= delta).mean(axis=0)
            return per_sample.std(ddof=1) / np.sqrt(per_sample.size)

        sigma = np.hypot(sample_sigma(a1, b1), sample_sigma(a2, b2))
        assert abs(f1 - f2) < 3.0 * sigma


def directed_pair_monitor(ens, n_neighbors=64, violation_ratio=1e-3):
    """Reference monitor: every directed neighbor pair (i, j), measured separately."""
    valid = np.flatnonzero(ens.valid)
    if valid.size < 2:
        raise UsageError("need at least 2 valid samples to monitor injectivity")
    x0 = ens.initial_points[valid]
    k = min(n_neighbors + 1, valid.size)
    _, nbr = cKDTree(x0).query(x0, k=k)
    nbr = np.atleast_2d(nbr)[:, 1:]
    rows = np.repeat(np.arange(valid.size), nbr.shape[1])
    cols = nbr.ravel()
    base = np.linalg.norm(x0[rows] - x0[cols], axis=1)
    keep = base > 0
    rows, cols, base = rows[keep], cols[keep], base[keep]
    if rows.size == 0:
        raise UsageError("all neighbor pairs coincide at t=0")
    min_ratio = np.inf
    first_violation = None
    for k_t, t in enumerate(ens.times):
        pos = ens.positions[k_t][valid]
        sep = np.linalg.norm(pos[rows] - pos[cols], axis=1)
        ratio = float(np.min(sep / base))
        if ratio < min_ratio:
            min_ratio = ratio
        if first_violation is None and ratio < violation_ratio:
            first_violation = float(t)
    return InjectivityReport(min_ratio, first_violation)


def random_ensemble(rng, dim, m, n_times=6):
    """Ensemble of random, partly contracting paths, some samples invalid,
    with samples 0 and 1 starting at the same point."""
    g = make_grid(dim, 16, 4.0)
    x0 = rng.normal(size=(m, dim))
    x0[1] = x0[0]
    scale = rng.uniform(1e-4, 2.0, size=(n_times, 1, 1))
    scale[0] = 1.0
    positions = scale * x0 + rng.normal(scale=0.05, size=(n_times, m, dim))
    positions[0] = x0
    valid = rng.random(m) > 0.2
    valid[:3] = True
    return TrajectoryEnsemble(
        grid=g,
        initial_points=x0,
        times=np.linspace(0.0, 1.0, n_times),
        positions=positions,
        momenta=np.zeros_like(positions),
        valid=valid,
    )


class TestInjectivityMonitor:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_directed_pair_reference(self, monkeypatch, dim):
        # k-NN is often asymmetric at small k, so pairs listed by only one
        # end must still be measured
        rng = np.random.default_rng(40 + dim)
        violations = 0
        for _ in range(8):
            ens = random_ensemble(rng, dim, int(rng.integers(4, 80)))
            for n_neighbors in (1, 2, 3, 4):
                monkeypatch.setattr(measure, "N_NEIGHBORS", n_neighbors)
                for violation_ratio in (1e-3, 0.2):
                    monkeypatch.setattr(measure, "VIOLATION_RATIO", violation_ratio)
                    got = flow_injectivity_monitor(ens)
                    want = directed_pair_monitor(ens, n_neighbors, violation_ratio)
                    assert got == want
                    violations += got.first_violation_time is not None
        assert violations > 0

    def test_shared_pair_list(self, monkeypatch):
        monkeypatch.setattr(measure, "N_NEIGHBORS", 4)
        rng = np.random.default_rng(4)
        ens = random_ensemble(rng, 2, 60)
        twin = dataclasses.replace(ens, positions=ens.positions[::-1].copy())
        pairs = injectivity_pairs(ens)
        for e in (ens, twin):
            assert flow_injectivity_monitor(e, pairs=pairs) == flow_injectivity_monitor(e)

    def test_pair_indices_are_int32(self, monkeypatch):
        monkeypatch.setattr(measure, "N_NEIGHBORS", 8)
        rng = np.random.default_rng(6)
        ens = random_ensemble(rng, 2, 300)
        pairs = injectivity_pairs(ens)
        assert pairs.lo.dtype == pairs.hi.dtype == np.int32
        wide = dataclasses.replace(pairs, lo=pairs.lo.astype(np.int64), hi=pairs.hi.astype(np.int64))
        for violation_ratio in (1e-3, 0.2):
            monkeypatch.setattr(measure, "VIOLATION_RATIO", violation_ratio)
            got = flow_injectivity_monitor(ens, pairs=pairs)
            assert got == flow_injectivity_monitor(ens, pairs=wide)

    def test_pair_list_of_other_samples_rejected(self):
        rng = np.random.default_rng(5)
        ens = random_ensemble(rng, 1, 40)
        pairs = injectivity_pairs(ens)
        valid = ens.valid.copy()
        valid[0] = False
        with pytest.raises(UsageError, match="pair list"):
            flow_injectivity_monitor(dataclasses.replace(ens, valid=valid), pairs=pairs)
        moved = dataclasses.replace(ens, initial_points=ens.initial_points + 1.0)
        with pytest.raises(UsageError, match="pair list"):
            flow_injectivity_monitor(moved, pairs=pairs)

    def test_rigid_translation(self):
        g = make_grid(1, 64, 8.0)
        times = np.linspace(0.0, 1.0, 41)
        hist = FieldHistory(g, times, np.full((41, 1) + g.shape, 0.5))
        ens = integrate_trajectories(hist, np.linspace(-2, 2, 20)[:, None], times[::4])
        rep = flow_injectivity_monitor(ens)
        assert rep.min_pair_separation_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.first_violation_time is None

    def test_spreading_flow_never_contracts(self):
        g = make_grid(1, 512, 16.0)
        psi0 = gaussian_packet(g, width=1.0)
        dtf = 0.005
        times = np.arange(201) * dtf
        from pilotwave.potential import StaticPotential

        snaps = propagate(psi0, StaticPotential(g, np.zeros(g.shape)), 1.0, dtf, times)
        hist = FieldHistory(g, times, np.stack([densities(s).velocity for s in snaps]))
        ens = integrate_trajectories(hist, np.linspace(-2, 2, 30)[:, None], times[::4])
        rep = flow_injectivity_monitor(ens)
        assert rep.min_pair_separation_ratio >= 1.0 - 1e-9
        assert rep.first_violation_time is None

    def test_focusing_flow_violation_time(self):
        # u = -x contracts pairs like e^{-t}; the 1e-3 proxy trips near ln(1e3)
        g = make_grid(1, 64, 8.0)
        T, h = 7.5, 0.05
        dtf = h / 4.0
        times = np.arange(int(round(T / dtf)) + 1) * dtf
        fields = np.broadcast_to(-g.axes[0], (times.size, 1) + g.shape).copy()
        hist = FieldHistory(g, times, fields)
        ens = integrate_trajectories(hist, np.linspace(-3, 3, 16)[:, None], times[::4])
        rep = flow_injectivity_monitor(ens)
        assert rep.first_violation_time is not None
        assert 6.8 <= rep.first_violation_time <= 7.1
        assert rep.min_pair_separation_ratio == pytest.approx(np.exp(-T), rel=1e-3)

    def test_needs_two_samples(self):
        g = make_grid(1, 64, 8.0)
        times = np.linspace(0.0, 1.0, 41)
        hist = FieldHistory(g, times, np.zeros((41, 1) + g.shape))
        ens = integrate_trajectories(hist, np.array([[0.0]]), times[::4])
        with pytest.raises(UsageError):
            flow_injectivity_monitor(ens)


def whole_array_deviation(a, b, delta):
    """Reference deviation fraction: the mean over the whole (times x samples) array."""
    both = a.valid & b.valid
    dx = a.positions[:, both, :] - b.positions[:, both, :]
    dp = a.momenta[:, both, :] - b.momenta[:, both, :]
    dev = np.sqrt(np.sum(dx * dx, axis=2) + np.sum(dp * dp, axis=2))
    exceed = dev >= delta if delta > 0 else dev > 0.0
    return float(exceed.mean())


def perturbed_twin(rng, ens):
    """Paired ensemble: half of the samples moved, the rest identical, its own escapes."""
    m = ens.valid.size
    moved = rng.random(m) < 0.5
    positions = ens.positions.copy()
    positions[:, moved] += rng.normal(scale=0.05, size=positions[:, moved].shape)
    valid = rng.random(m) > 0.2
    valid[:3] = True
    momenta = rng.normal(scale=0.02, size=ens.momenta.shape) * moved[:, None]
    return dataclasses.replace(ens, positions=positions, momenta=momenta, valid=valid)


@pytest.fixture
def small_blocks(monkeypatch):
    """Block sizes that put block boundaries in the middle of every array."""
    monkeypatch.setattr(measure, "QUERY_BLOCK", 7)
    monkeypatch.setattr(measure, "PAIR_BLOCK", 5)


@pytest.mark.usefixtures("small_blocks")
class TestBlockedMeasures:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_deviation_equals_the_whole_array_formula(self, dim):
        rng = np.random.default_rng(60 + dim)
        for _ in range(6):
            a = random_ensemble(rng, dim, int(rng.integers(4, 300)), n_times=int(rng.integers(1, 9)))
            b = perturbed_twin(rng, a)
            assert not (a.valid == b.valid).all()
            for delta in (0.0, 0.01, 0.05, 0.3):
                got = trajectory_deviation_measure(a, b, delta)
                assert got == whole_array_deviation(a, b, delta), delta
            assert 0.0 < trajectory_deviation_measure(a, b, 0.0) < 1.0  # unmoved samples count 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_monitor_equals_the_directed_pair_reference(self, monkeypatch, dim):
        rng = np.random.default_rng(70 + dim)
        violations = 0
        for _ in range(6):
            ens = random_ensemble(rng, dim, int(rng.integers(4, 120)))
            for n_neighbors in (1, 3, 9):
                monkeypatch.setattr(measure, "N_NEIGHBORS", n_neighbors)
                pairs = injectivity_pairs(ens)
                # samples 0 and 1 start at the same point: their pair is dropped
                assert not ((pairs.lo == 0) & (pairs.hi == 1)).any()
                for violation_ratio in (1e-3, 0.2):
                    monkeypatch.setattr(measure, "VIOLATION_RATIO", violation_ratio)
                    got = flow_injectivity_monitor(ens)
                    assert got == directed_pair_monitor(ens, n_neighbors, violation_ratio)
                    assert got == flow_injectivity_monitor(ens, pairs=pairs)
                    violations += got.first_violation_time is not None
        assert violations > 0

    def test_pair_list_does_not_depend_on_the_blocks(self, monkeypatch):
        rng = np.random.default_rng(8)
        ens = random_ensemble(rng, 2, 500)
        monkeypatch.setattr(measure, "N_NEIGHBORS", 8)
        small = injectivity_pairs(ens)
        monkeypatch.setattr(measure, "QUERY_BLOCK", 1 << 20)
        monkeypatch.setattr(measure, "PAIR_BLOCK", 1 << 20)
        whole = injectivity_pairs(ens)
        for name in ("lo", "hi", "base"):
            assert np.array_equal(getattr(small, name), getattr(whole, name)), name


class TestMeasureMemory:
    """The ensemble statistics need a few MB beyond their inputs at M = 20000."""

    def _traced_peak(self, fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_transient_peaks_are_bounded(self):
        rng = np.random.default_rng(9)
        m, n_times = 20000, 41  # the bohm_ensemble row: 41 output times
        ens = random_ensemble(rng, 1, m, n_times=n_times)
        x0 = ens.initial_points.copy()
        x0[1] += 1e-6  # no coincident pair, so the list is not compacted
        ens = dataclasses.replace(ens, initial_points=x0, valid=np.ones(m, dtype=bool))
        twin = perturbed_twin(rng, ens)
        pairs = injectivity_pairs(ens)
        limit = 4e6  # bytes; the whole-array versions took about 31 MB and 22 MB
        peak, _ = self._traced_peak(lambda: trajectory_deviation_measure(ens, twin, 0.05))
        assert peak < limit
        peak, _ = self._traced_peak(lambda: flow_injectivity_monitor(ens, pairs=pairs))
        assert peak < limit
        # building the list needs little beyond the list and its sorted keys,
        # one int64 per (sample, neighbour)
        peak, built = self._traced_peak(lambda: injectivity_pairs(ens))
        list_bytes = built.lo.nbytes + built.hi.nbytes + built.base.nbytes
        keys_bytes = m * 64 * 8
        assert peak < list_bytes + keys_bytes

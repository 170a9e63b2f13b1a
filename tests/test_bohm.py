import numpy as np
import pytest

from pilotwave.bohm import (
    FieldHistory,
    densities,
    hydrodynamic_residual,
    integrate_trajectories,
    newton_residual,
    quantum_potential,
    sample_initial_positions,
    velocity,
)
from pilotwave.errors import ConfigError, InputError, SamplingError, TrajectoryEscape, UsageError
from pilotwave.grid import ComplexField, gradient_values, make_grid, norms
from pilotwave.potential import (
    StaticPotential,
    TimePeriodicPotential,
    constant_profile,
    effective_potential,
    harmonic,
)
from pilotwave.solver import OscillatingSystem, WaveFunction, gaussian_packet, propagate


def free_static(grid):
    return StaticPotential(grid, np.zeros(grid.shape))


def plane_wave_state(grid, mode):
    k = np.pi * mode / grid.half_width
    vals = np.exp(1j * k * grid.axes[0]) * (2.0 * grid.half_width) ** -0.5
    return WaveFunction(ComplexField(grid, vals), 0.0), k


def free_gaussian_history(grid, T, h, extra_fields=False):
    """Velocity (and optionally Q) history for a width-1 free packet."""
    psi0 = gaussian_packet(grid, width=1.0)
    dtf = h / 4.0
    times = np.arange(int(round(T / dtf)) + 1) * dtf
    snaps = propagate(psi0, free_static(grid), T, dtf, times, boundary_tol=1e-7)
    u = np.stack([densities(s).velocity for s in snaps])
    hist = FieldHistory(grid, times, u)
    if not extra_fields:
        return hist
    q = np.stack(
        [quantum_potential(np.abs(s.values) ** 2, grid).values[None] for s in snaps]
    )
    return hist, FieldHistory(grid, times, q)


class TestDensities:
    def test_plane_wave(self):
        g = make_grid(1, 256, 8.0)
        psi, k = plane_wave_state(g, mode=4)
        d = densities(psi)
        rho_expected = 1.0 / (2.0 * g.half_width)
        assert np.allclose(d.rho, rho_expected, rtol=1e-12)
        assert np.allclose(d.current[0], k * rho_expected, rtol=1e-11)
        assert np.allclose(d.velocity[0], k, rtol=1e-11)

    def test_real_state_has_no_current(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        d = densities(psi)
        assert np.max(np.abs(d.current)) < 1e-13

    def test_current_integral_is_mean_momentum(self):
        g = make_grid(1, 512, 16.0)
        psi = gaussian_packet(g, width=1.0, momentum=2.0)
        d = densities(psi)
        assert abs(float(np.sum(d.current[0]) * g.dx) - 2.0) < 1e-8

    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 32), (3, 16)])
    def test_h1_is_the_norms_h1_bit_for_bit(self, dim, n):
        # the harness's blow-up monitor reads d.h1 in place of norms(...).h1
        g = make_grid(dim, n, 6.0)
        rng = np.random.default_rng(dim)
        for _ in range(3):
            coeffs = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
            vals = np.fft.ifftn(coeffs * np.exp(-g.k_squared()))
            psi = WaveFunction(ComplexField(g, vals), 0.25)
            assert densities(psi).h1 == norms(psi.field).h1

    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 32), (3, 16)])
    def test_current_owns_its_data(self, dim, n):
        # a view of Im(conj(psi) grad psi) would keep the complex product alive
        g = make_grid(dim, n, 6.0)
        rng = np.random.default_rng(10 + dim)
        coeffs = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        vals = np.fft.ifftn(coeffs * np.exp(-g.k_squared()))
        d = densities(WaveFunction(ComplexField(g, vals), 0.0))
        view = np.imag(np.conj(vals) * gradient_values(g, vals))
        assert d.current.flags.owndata
        assert d.current.dtype == np.float64
        assert (d.current == view).all()


class TestVelocity:
    def test_constant_density_and_current(self):
        rho = np.full(64, 0.25)
        current = np.full((1, 64), 0.25 * 1.7)
        u, frac = velocity(rho, current)
        assert np.allclose(u[0], 1.7, rtol=1e-14)
        assert frac == 0.0

    def test_zero_current_gives_zero_velocity(self):
        rho = np.abs(np.linspace(-1, 1, 64)) + 1e-20
        u, _ = velocity(rho, np.zeros((1, 64)))
        assert np.all(u == 0.0)

    def test_nodal_state_regularized_and_finite(self):
        # first-excited-style state: node at x = 0, nonzero current
        g = make_grid(1, 512, 16.0)
        x = g.axes[0]
        vals = x * np.exp(-(x**2) / 4.0) * np.exp(1j * 0.5 * x)
        vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * g.dx)
        d = densities(WaveFunction(ComplexField(g, vals), 0.0))
        assert d.regularized_fraction > 0.0
        assert np.all(np.isfinite(d.velocity))

    def test_density_without_a_positive_value_rejected(self):
        # the floor is relative to max(rho), so there is none to set
        g = make_grid(1, 64, 8.0)
        for rho in (np.zeros(g.shape), np.full(g.shape, np.nan)):
            with pytest.raises(InputError, match="no positive value"):
                velocity(rho, np.zeros((1,) + g.shape))
            with pytest.raises(InputError, match="no positive value"):
                quantum_potential(rho, g)


class TestQuantumPotential:
    def test_gaussian_symbolic_oracle(self):
        # d^2/dx^2 sqrt(rho) / sqrt(rho) with rho ~ e^{-x^2/2}: Q = x^2/8 - 1/4
        g = make_grid(1, 512, 16.0)
        x = g.axes[0]
        rho = np.exp(-(x**2) / 2.0)
        rho /= rho.sum() * g.dx
        q = quantum_potential(rho, g).values
        assert abs(q[g.n_per_axis // 2] + 0.25) < 1e-6
        window = np.abs(x) <= 4.0
        assert np.max(np.abs(q - (x**2 / 8.0 - 0.25))[window]) < 1e-6

    def test_constant_density(self):
        g = make_grid(1, 128, 8.0)
        q = quantum_potential(np.full(g.shape, 0.3), g).values
        assert np.max(np.abs(q)) < 1e-12

    def test_scale_invariance(self):
        # exactly box-periodic density with no floored cells: homogeneity
        # holds pointwise to roundoff
        g = make_grid(1, 128, 6.0)
        x = g.axes[0]
        rho = 1.0 + 0.5 * np.cos(np.pi * x / g.half_width)
        q1 = quantum_potential(rho, g).values
        q2 = quantum_potential(1737.5 * rho, g).values
        assert np.max(np.abs(q1 - q2)) < 1e-10

    def test_scale_invariance_on_supported_region(self):
        # with floored tails present, invariance still holds where the
        # density carries mass
        g = make_grid(1, 256, 16.0)
        x = g.axes[0]
        rho = np.exp(-(x**2) / 2.0)
        q1 = quantum_potential(rho, g).values
        q2 = quantum_potential(0.03 * rho, g).values
        region = rho >= 1e-6 * rho.max()
        assert np.max(np.abs(q1 - q2)[region]) < 1e-10


class TestSampling:
    def test_gaussian_mean_clt_bound(self):
        g = make_grid(1, 512, 16.0)
        x = g.axes[0]
        rho = np.exp(-(x**2) / 2.0)
        M = 100_000
        pts = sample_initial_positions(rho, g, M, seed=123)
        assert pts.shape == (M, 1)
        assert abs(pts.mean()) < 3.0 / np.sqrt(M)

    def test_deterministic_for_fixed_seed(self):
        g = make_grid(1, 256, 8.0)
        rho = np.exp(-(g.axes[0] ** 2))
        a = sample_initial_positions(rho, g, 50, seed=9)
        b = sample_initial_positions(rho, g, 50, seed=9)
        assert np.array_equal(a, b)
        c1 = sample_initial_positions(rho, g, 1, seed=9)
        c2 = sample_initial_positions(rho, g, 1, seed=9)
        assert c1.shape == (1, 1)
        assert np.array_equal(c1, c2)

    def test_half_line_support(self):
        g = make_grid(1, 256, 8.0)
        x = g.axes[0]
        rho = np.where(x > 0, np.exp(-((x - 3.0) ** 2)), 0.0)
        pts = sample_initial_positions(rho, g, 2000, seed=5)
        assert np.all(pts[:, 0] > 0.0)

    def test_degenerate_density_rejected(self):
        g = make_grid(1, 256, 8.0)
        with pytest.raises(SamplingError):
            sample_initial_positions(np.zeros(g.shape), g, 10, seed=0)

    def test_2d_conditional_sampling(self):
        g = make_grid(2, 64, 8.0)
        mesh = g.meshgrid()
        rho = np.exp(-((mesh[0] - 1.0) ** 2) - ((mesh[1] + 2.0) ** 2) / 2.0)
        M = 50_000
        pts = sample_initial_positions(rho, g, M, seed=17)
        # per-axis CLT bounds (sigma ~ 0.71 and 1.0)
        assert abs(pts[:, 0].mean() - 1.0) < 3.0 * 0.71 / np.sqrt(M)
        assert abs(pts[:, 1].mean() + 2.0) < 3.0 * 1.0 / np.sqrt(M)


def interp_space_reference(grid, field, X):
    """Catmull-Rom lookup with np.mod wrapping and stacked weights."""
    from pilotwave.bohm import _catmull_weights

    n = grid.n_per_axis
    g = (X + grid.half_width) / grid.dx
    base = np.floor(g).astype(np.int64)
    frac = g - base
    weights = [np.stack(_catmull_weights(frac[:, a])) for a in range(grid.dim)]
    indices = [
        np.stack([np.mod(base[:, a] + o, n) for o in (-1, 0, 1, 2)]) for a in range(grid.dim)
    ]
    flat = field.reshape(field.shape[0], -1)
    strides = [n ** (grid.dim - 1 - a) for a in range(grid.dim)]
    out = np.zeros((X.shape[0], field.shape[0]))
    for combo in np.ndindex(*(4,) * grid.dim):
        w = weights[0][combo[0]]
        flat_idx = indices[0][combo[0]] * strides[0]
        for a in range(1, grid.dim):
            w = w * weights[a][combo[a]]
            flat_idx = flat_idx + indices[a][combo[a]] * strides[a]
        out += w[:, None] * flat[:, flat_idx].T
    return out


def blended_field_at(history, t):
    """The Catmull-Rom time blend that field reads once made (clamped ends)."""
    from pilotwave.bohm import _catmull_weights

    g = (t - history.times[0]) / history.dt
    j = min(max(int(np.floor(g)), 0), len(history.times) - 2)
    w = _catmull_weights(np.asarray(g - j))
    jm = max(j - 1, 0)
    jp = min(j + 2, len(history.times) - 1)
    v = history.values
    return w[0] * v[jm] + w[1] * v[j] + w[2] * v[j + 1] + w[3] * v[jp]


def blended_trajectories(history, x0, times):
    """RK4 through the blended history, each velocity looked up afresh."""
    from pilotwave.bohm import _interp_space

    h = float(times[1] - times[0])
    L = history.grid.half_width

    def u_at(t, X):
        return _interp_space(history.grid, blended_field_at(history, t), X)

    X = x0.copy()
    positions, momenta = [X], [u_at(times[0], X)]
    alive = np.ones(len(x0), dtype=bool)
    for t in times[:-1]:
        k1 = u_at(t, X)
        k2 = u_at(t + 0.5 * h, X + 0.5 * h * k1)
        k3 = u_at(t + 0.5 * h, X + 0.5 * h * k2)
        k4 = u_at(t + h, X + h * k3)
        X_new = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        escaped = np.abs(X_new).max(axis=1) > L
        X_new[escaped] = X[escaped]
        alive &= ~escaped
        X = np.where(alive[:, None], X_new, X)
        positions.append(X)
        momenta.append(u_at(t + h, X))
    return np.stack(positions), np.stack(momenta), alive


class TestFieldHistory:
    def test_mesh_times_return_the_stored_frame(self, monkeypatch):
        # frame j holds the constant j/1000, so each velocity lookup names
        # the frame it read: a step of s frames from frame f reads f + s/2 for
        # its middle stages and f + s for its last stage and the momentum
        import pilotwave.bohm as bohm

        read = []
        real_interp = bohm._interp_space

        def recorded(grid, field, X):
            read.append(int(round(1000 * field[0, 0])))
            return real_interp(grid, field, X)

        monkeypatch.setattr(bohm, "_interp_space", recorded)
        g = make_grid(1, 32, 4.0)
        times = np.arange(41) * 0.0125
        values = np.arange(41)[:, None, None] * np.full((41, 1) + g.shape, 1e-3)
        hist = FieldHistory(g, times, values)
        for out, s in ((times[::4], 4), (times[8::2], 2)):
            read.clear()
            integrate_trajectories(hist, np.zeros((3, 1)), out)
            first = int(round(out[0] / 0.0125))
            want = [first]
            for f in range(first, 40, s):
                want += [f + s // 2, f + s // 2, f + s, f + s]
            assert read == want

    @pytest.mark.parametrize("t", [0.00625, 0.1 + 1e-7, -0.0125, 0.5125, np.nan])
    def test_off_mesh_or_outside_raises(self, t):
        g = make_grid(1, 32, 4.0)
        hist = FieldHistory(g, np.arange(41) * 0.0125, np.zeros((41, 1) + g.shape))
        # t as the first output time, and as the last
        for out in (t + np.arange(3) * 0.05, t - np.arange(3)[::-1] * 0.05):
            with pytest.raises(ConfigError, match="not a stored frame"):
                integrate_trajectories(hist, np.zeros((2, 1)), out)


class TestTrajectories:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_interp_space_matches_mod_reference(self, dim):
        # RK4 stages may probe points outside [-L, L) before escapes are frozen
        from pilotwave.bohm import _interp_space

        g = make_grid(dim, 16, 2.0)
        L = g.half_width
        rng = np.random.default_rng(dim)
        X = rng.uniform(-3.0 * L, 3.0 * L, size=(300, dim))
        X[0], X[1], X[2] = -L, L, np.nextafter(L, 0.0)
        for ncomp in (1, dim):
            field = rng.normal(size=(ncomp,) + g.shape)
            assert np.array_equal(_interp_space(g, field, X), interp_space_reference(g, field, X))

    def test_constant_velocity_exact(self):
        g = make_grid(1, 64, 8.0)
        times = np.linspace(0.0, 1.0, 11)
        hist = FieldHistory(g, np.linspace(0, 1, 41), np.full((41, 1) + g.shape, 0.7))
        x0 = np.array([[-2.0], [0.5], [3.0]])
        ens = integrate_trajectories(hist, x0, times)
        expected = x0[None, :, 0] + 0.7 * times[:, None]
        assert np.max(np.abs(ens.positions[:, :, 0] - expected)) < 1e-13
        assert np.allclose(ens.momenta, 0.7, atol=1e-13)

    @pytest.mark.parametrize("h, tol", [(2.0**-6, 0.0), (0.02, 4e-16)])
    def test_even_frames_give_the_blended_integration(self, h, tol):
        # RK4 stages read frames 4k, 4k+2 and 4k+4 only, so the odd frames
        # can go unstored.  On a dyadic mesh every stage time is exact and
        # the old time blend weighed one frame by exactly 1: no bit moves.
        # On a decimal mesh roundoff left some stage times 2e-15 of a step
        # short of a frame, and the blend mixed in its neighbours at that
        # weight, a last-digit difference
        g = make_grid(1, 512, 16.0)
        full = free_gaussian_history(g, T=1.0, h=h)
        even = FieldHistory(g, full.times[::2], full.values[::2])
        x0 = np.linspace(-3.0, 3.0, 41)[:, None]
        ens = integrate_trajectories(even, x0, full.times[::4])
        positions, momenta, valid = blended_trajectories(full, x0, full.times[::4])
        assert np.abs(ens.positions - positions).max() <= tol
        assert np.abs(ens.momenta - momenta).max() <= tol
        assert (ens.valid == valid).all()

    @pytest.mark.parametrize("dim, K", [(1, 6), (2, 3)])
    def test_velocity_lookups_per_ensemble(self, monkeypatch, dim, K):
        # 3 stage lookups per step plus P(t) at every output time: the
        # velocity at a step's end is its successor's first stage
        import pilotwave.bohm as bohm

        calls = []
        real_interp = bohm._interp_space

        def counted(*args):
            calls.append(args[2].shape[0])
            return real_interp(*args)

        monkeypatch.setattr(bohm, "_interp_space", counted)
        g = make_grid(dim, 16, 8.0)
        times = np.arange(2 * K - 1) * 0.05
        hist = FieldHistory(g, times, np.full((times.size, dim) + g.shape, 0.3))
        x0 = np.zeros((7, dim))
        ens = integrate_trajectories(hist, x0, times[::2])
        assert ens.times.size == K
        assert calls == [7] * (4 * (K - 1) + 1)

    def test_free_gaussian_scaling_oracle(self):
        # X(t, x0) = x0 sqrt(1 + t^2/4); at t = 2 the map is x0 sqrt(2)
        g = make_grid(1, 512, 16.0)
        hist = free_gaussian_history(g, T=2.0, h=0.02)
        x0 = np.linspace(-3.0, 3.0, 41)[:, None]
        ens = integrate_trajectories(hist, x0, hist.times[::4])
        final = ens.positions[-1][:, 0]
        assert np.max(np.abs(final - np.sqrt(2.0) * x0[:, 0])) < 1e-3

    def test_stationary_state_trajectories_frozen(self):
        # residual currents scale with the splitting error, so the field mesh
        # must be fine enough to keep the drift below the 1e-6 target
        g = make_grid(1, 256, 10.0)
        Vstar = effective_potential(TimePeriodicPotential(constant_profile(1.0), harmonic()), g)
        psi0 = gaussian_packet(g, width=1.0 / np.sqrt(2.0))
        dtf = 0.00125
        times = np.arange(801) * dtf
        snaps = propagate(psi0, Vstar, 1.0, dtf, times)
        hist = FieldHistory(g, times, np.stack([densities(s).velocity for s in snaps]))
        x0 = np.array([[-1.0], [0.3], [1.2]])
        ens = integrate_trajectories(hist, x0, times[::4])
        assert np.max(np.abs(ens.positions - ens.positions[0])) < 1e-6

    def test_escape_flagging_and_cap(self):
        g = make_grid(1, 64, 8.0)
        times = np.linspace(0.0, 2.0, 81)
        hist = FieldHistory(g, times, np.full((81, 1) + g.shape, 5.0))
        with pytest.raises(TrajectoryEscape):
            integrate_trajectories(hist, np.array([[0.0], [1.0], [2.0]]), times[::4])
        # single escapee among many survivors is flagged, not fatal
        x0 = np.concatenate([np.full((40, 1), -6.0), np.array([[7.0]])])
        ens = integrate_trajectories(hist, x0, times[::4])
        assert ens.valid.sum() == 40
        assert list(np.flatnonzero(~ens.valid)) == [40]

    def test_history_resolution_precondition(self):
        g = make_grid(1, 64, 8.0)
        times = np.linspace(0.0, 1.0, 11)
        hist = FieldHistory(g, times, np.zeros((11, 1) + g.shape))
        with pytest.raises(ConfigError):
            integrate_trajectories(hist, np.array([[0.0]]), times)  # step == history dt

    def test_output_times_outside_the_history_raise(self):
        g = make_grid(1, 64, 8.0)
        hist = FieldHistory(g, np.linspace(0.0, 1.0, 41), np.zeros((41, 1) + g.shape))
        with pytest.raises(ConfigError, match="not a stored frame"):
            integrate_trajectories(hist, np.array([[0.0]]), np.linspace(0.0, 1.2, 13))

    @pytest.mark.parametrize("dim, ncomp", [(2, 1), (2, 3), (1, 2)])
    def test_history_needs_one_component_per_axis(self, dim, ncomp):
        # a scalar history on a 2D grid once drove both axes by its one component
        g = make_grid(dim, 16, 8.0)
        hist = FieldHistory(g, np.linspace(0.0, 1.0, 5), np.zeros((5, ncomp) + g.shape))
        with pytest.raises(UsageError, match=f"needs {dim} components on a {dim}D grid, got {ncomp}"):
            integrate_trajectories(hist, np.full((1, dim), 0.4), np.linspace(0.0, 1.0, 3))

    def test_momentum_consistency_invariant(self):
        from pilotwave.bohm import _interp_space

        g = make_grid(1, 512, 16.0)
        hist = free_gaussian_history(g, T=1.0, h=0.02)
        x0 = np.linspace(-2.0, 2.0, 21)[:, None]
        ens = integrate_trajectories(hist, x0, hist.times[::4])
        for k in (0, len(ens.times) // 2, len(ens.times) - 1):
            u = _interp_space(g, hist.values[4 * k], ens.positions[k])
            assert np.max(np.abs(u - ens.momenta[k])) < 1e-6

    def test_equivariance_weak_transport(self):
        # Bohmian flow pushes rho0 forward to rho(t): ensemble averages of a
        # smooth test function must match the grid integral to MC accuracy
        g = make_grid(1, 512, 16.0)
        T = 1.0
        psi0 = gaussian_packet(g, width=1.0)
        dtf = 0.005
        times = np.arange(int(round(T / dtf)) + 1) * dtf
        snaps = propagate(psi0, free_static(g), T, dtf, times)
        hist = FieldHistory(g, times, np.stack([densities(s).velocity for s in snaps]))
        M = 10_000
        x0 = sample_initial_positions(np.abs(psi0.values) ** 2, g, M, seed=31)
        ens = integrate_trajectories(hist, x0, times[::4])

        phi = lambda x: np.cos(x / 2.0)
        sample_avg = float(np.mean(phi(ens.positions[-1][:, 0])))
        rho_T = np.abs(snaps[-1].values) ** 2
        grid_avg = float(np.sum(phi(g.axes[0]) * rho_T) * g.dx)
        mc_sigma = float(np.std(phi(ens.positions[-1][:, 0]))) / np.sqrt(M)
        assert abs(sample_avg - grid_avg) < 3.0 * mc_sigma

    def test_time_independent_potential_pathwise_match(self):
        # oscillating system with constant temporal factor == effective system
        g = make_grid(1, 256, 12.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        Vstar = effective_potential(V, g)
        psi0 = gaussian_packet(g, width=1.0)
        dtf = 0.0025
        times = np.arange(401) * dtf
        snaps_osc = propagate(psi0, OscillatingSystem(V, 0.2), 1.0, dtf, times)
        snaps_eff = propagate(psi0, Vstar, 1.0, dtf, times)
        h_osc = FieldHistory(g, times, np.stack([densities(s).velocity for s in snaps_osc]))
        h_eff = FieldHistory(g, times, np.stack([densities(s).velocity for s in snaps_eff]))
        x0 = np.linspace(-2.0, 2.0, 21)[:, None]
        ens_o = integrate_trajectories(h_osc, x0, times[::4])
        ens_e = integrate_trajectories(h_eff, x0, times[::4])
        assert np.max(np.abs(ens_o.positions - ens_e.positions)) < 1e-6


class TestHydrodynamicResidual:
    def test_stationary_state(self):
        g = make_grid(1, 256, 10.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        Vstar = effective_potential(V, g)
        psi0 = gaussian_packet(g, width=1.0 / np.sqrt(2.0))
        tau = 1e-3
        snaps = propagate(psi0, Vstar, 3 * tau, tau, [tau, 2 * tau, 3 * tau])
        res = hydrodynamic_residual([densities(s) for s in snaps], Vstar)
        assert res.continuity < 1e-8

    def test_an_oscillating_system_is_read_at_its_time(self):
        # a(s) == 1 makes OscillatingSystem(V, eps) the static V* at every t
        g = make_grid(1, 256, 10.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        Vstar = effective_potential(V, g)
        snaps = propagate(gaussian_packet(g, width=0.8), Vstar, 3e-3, 1e-3, [1e-3, 2e-3, 3e-3])
        ds = [densities(s) for s in snaps]
        res = hydrodynamic_residual(ds, OscillatingSystem(V, 0.1))
        assert res == pytest.approx(hydrodynamic_residual(ds, Vstar), rel=1e-12)
        assert res.momentum < 1e-3 * hydrodynamic_residual(ds, free_static(g)).momentum

    def test_plane_wave_exact(self):
        g = make_grid(1, 256, 8.0)
        psi, k = plane_wave_state(g, mode=4)
        tau = 1e-3
        ds = []
        for j in range(3):
            t = j * tau
            vals = psi.values * np.exp(-1j * k * k * t / 2.0)
            ds.append(densities(WaveFunction(ComplexField(g, vals), t)))
        res = hydrodynamic_residual(ds, free_static(g))
        assert res.continuity < 1e-10
        assert res.momentum < 1e-10

    def test_free_gaussian_second_order_refinement(self):
        g = make_grid(1, 512, 16.0)
        psi0 = gaussian_packet(g, width=1.0)

        def residual(tau):
            snaps = propagate(psi0, free_static(g), 0.5 + tau, tau, [0.5 - tau, 0.5, 0.5 + tau])
            return hydrodynamic_residual([densities(s) for s in snaps], free_static(g))

        r1 = residual(1e-3)
        r2 = residual(5e-4)
        assert r1.continuity < 1e-6
        assert 3.0 < r1.continuity / r2.continuity < 5.0
        assert 3.0 < r1.momentum / r2.momentum < 5.0

    def test_too_few_snapshots(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        d = densities(psi)
        with pytest.raises(UsageError):
            hydrodynamic_residual([d, d], free_static(g))


class TestNewtonResidual:
    def test_plane_wave_constant_motion(self):
        g = make_grid(1, 256, 8.0)
        k_mode = 4
        psi, k = plane_wave_state(g, mode=k_mode)
        times = np.arange(0.0, 1.0 + 1e-12, 0.0025)
        u = np.full((times.size, 1) + g.shape, k)
        q = np.zeros((times.size, 1) + g.shape)
        hist = FieldHistory(g, times, u)
        ens = integrate_trajectories(hist, np.array([[-1.0], [0.5]]), times[::4])
        r = newton_residual(ens, free_static(g), FieldHistory(g, times, q))
        assert r < 1e-10

    def test_free_gaussian_refines_at_second_order(self):
        g = make_grid(1, 512, 16.0)
        residuals = []
        for h in (0.02, 0.01):
            hist, qhist = free_gaussian_history(g, T=1.0, h=h, extra_fields=True)
            x0 = np.linspace(-2.0, 2.0, 41)[:, None]
            ens = integrate_trajectories(hist, x0, hist.times[::4])
            residuals.append(newton_residual(ens, free_static(g), qhist))
        assert residuals[0] < 1e-4
        assert 3.0 < residuals[0] / residuals[1] < 5.0

    def test_coherent_state_center_newtonian(self):
        # displaced ground state: the packet-centre trajectory obeys Xdd = -X;
        # the full ensemble satisfies the quantum Newton law
        g = make_grid(1, 256, 10.0)
        Vstar = effective_potential(TimePeriodicPotential(constant_profile(1.0), harmonic()), g)
        psi0 = gaussian_packet(g, center=1.0, width=1.0 / np.sqrt(2.0))
        h = 0.01
        dtf = h / 4.0
        times = np.arange(int(round(2.0 / dtf)) + 1) * dtf
        snaps = propagate(psi0, Vstar, 2.0, dtf, times)
        u = np.stack([densities(s).velocity for s in snaps])
        q = np.stack([quantum_potential(np.abs(s.values) ** 2, g).values[None] for s in snaps])
        hist = FieldHistory(g, times, u)
        ens = integrate_trajectories(hist, np.array([[1.0], [0.5], [1.5]]), times[::4])

        X = ens.positions[:, 0, 0]
        tt = ens.times
        xdd = (X[2:] - 2.0 * X[1:-1] + X[:-2]) / h**2
        assert np.max(np.abs(xdd + X[1:-1])) < 1e-3
        assert np.max(np.abs(X - np.cos(tt))) < 1e-3

        r = newton_residual(ens, Vstar, FieldHistory(g, times, q))
        assert r < 1e-3

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import pilotwave.solver as solver
from pilotwave.errors import (
    BoundaryMassExceeded,
    ConfigError,
    PlacementError,
    ResolutionError,
    UsageError,
    WaveBlowUp,
)
from pilotwave.grid import laplacian_values, make_grid, norms
from pilotwave.potential import (
    TimePeriodicPotential,
    constant_profile,
    effective_potential,
    gaussian_well,
    harmonic,
    one_plus_cos,
)
from pilotwave.solver import (
    OscillatingSystem,
    StrangStepper,
    WaveFunction,
    gaussian_packet,
    gronwall_integrand,
    h1_distance,
    lockstep,
    propagate,
    side_by_side,
)


def l2(grid, values):
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume))


def harmonic_cos_potential():
    return TimePeriodicPotential(one_plus_cos(), harmonic())


def zero_potential():
    # a == 0 makes V vanish identically regardless of the spatial factor
    return TimePeriodicPotential(constant_profile(0.0), harmonic())


def step(psi, system, dt):
    """One Strang step of ``system`` from ``psi``, marched as a one-row
    stack; any dt, even negative."""
    stack = StrangStepper((system,), psi.grid, dt).advance(psi.values[np.newaxis], psi.time)
    return WaveFunction(psi.grid, stack[0], psi.time + dt)


class TestInitialize:
    def test_gaussian_normalized(self):
        g = make_grid(1, 512, 16.0)
        psi = gaussian_packet(g, center=0.0, width=1.0, momentum=0.0)
        assert abs(l2(g, psi.values) - 1.0) < 1e-12
        assert psi.time == 0.0

    def test_mean_momentum_matches_quadrature_oracle(self):
        # analytic oracle: for a real envelope times e^{i k0 x} the mean
        # momentum integral Im(conj(psi) dpsi) dx equals k0 exactly
        g = make_grid(1, 512, 16.0)
        psi = gaussian_packet(g, width=1.0, momentum=2.0)
        v = psi.values
        k = g.wavenumbers[0]
        dpsi = np.fft.ifft(1j * k * np.fft.fft(v))
        mean_p = float(np.sum(np.imag(np.conj(v) * dpsi)) * g.dx)
        assert abs(mean_p - 2.0) < 1e-8
        # coarse cross-check with 4th-order finite differences
        h = g.dx
        dpsi_fd = (np.roll(v, 2) - 8 * np.roll(v, 1) + 8 * np.roll(v, -1) - np.roll(v, -2)) / (12 * h)
        mean_p_fd = float(np.sum(np.imag(np.conj(v) * dpsi_fd)) * g.dx)
        assert abs(mean_p_fd - 2.0) < 1e-4

    def test_width_resolution_error(self):
        g = make_grid(1, 64, 16.0)  # dx = 0.5, so width 1 has only 2 points
        with pytest.raises(ResolutionError):
            gaussian_packet(g, width=1.0)

    def test_placement_error_near_boundary(self):
        g = make_grid(1, 512, 16.0)
        with pytest.raises(PlacementError):
            gaussian_packet(g, center=7.8, width=1.0)


class TestStepOscillating:
    def test_plane_wave_kinetic_phase(self):
        g = make_grid(1, 256, 8.0)
        k = np.pi * 6 / g.half_width
        vals = np.exp(1j * k * g.axes[0]) / np.sqrt(2 * g.half_width)
        psi = WaveFunction(g, vals, 0.0)
        dt = 1e-3
        out = step(psi, OscillatingSystem(zero_potential(), eps=0.5), dt)
        expected = np.exp(-1j * k * k * dt / 2.0) * vals
        assert np.max(np.abs(out.values - expected)) < 1e-13
        assert np.max(np.abs(np.abs(out.values) - np.abs(vals))) < 1e-13
        assert out.time == dt

    def test_full_fast_period_phase_integral(self):
        # over one full period the oscillating phase equals the mean phase
        V = harmonic_cos_potential()
        eps = 0.05
        assert V.temporal_integral(0.0, eps, eps) == pytest.approx(eps, abs=1e-12 * eps)

        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        out_osc = step(psi, OscillatingSystem(V, eps), eps)
        out_eff = step(psi, effective_potential(V, g), eps)
        assert np.max(np.abs(out_osc.values - out_eff.values)) < 1e-12

    def test_fast_period_rule_enforced(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        system = OscillatingSystem(harmonic_cos_potential(), eps=0.05)
        with pytest.raises(ConfigError, match="fast-period rule"):
            propagate(psi, system, 0.05, 0.05, [0.05])

    def test_norm_conserved_over_run(self):
        g = make_grid(1, 512, 16.0)
        psi = gaussian_packet(g, width=1.0)
        eps = 0.1
        snaps = propagate(psi, OscillatingSystem(harmonic_cos_potential(), eps), 1.0, eps / 32, [1.0])
        assert abs(l2(g, snaps[-1].values) - 1.0) < 1e-9


class TestStepEffective:
    def test_free_gaussian_spreading_variance(self):
        # analytic oracle: var(t) = sigma0^2 + t^2/(4 sigma0^2) = 2 at t = 2
        g = make_grid(1, 512, 16.0)
        Vstar = effective_potential(zero_potential(), g)
        psi = gaussian_packet(g, width=1.0)
        snaps = propagate(
            psi, Vstar, 2.0, 2.0 / 512, [2.0], boundary_tol=1e-7
        )
        rho = np.abs(snaps[-1].values) ** 2
        x = g.axes[0]
        var = float(np.sum(x**2 * rho) * g.dx)
        assert abs(var - 2.0) < 1e-4

    def test_constant_potential_is_pure_gauge(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0, momentum=1.0)
        from pilotwave.potential import StaticPotential

        free = StaticPotential(g, np.zeros(g.shape))
        const = StaticPotential(g, np.full(g.shape, 2.7))
        a = step(psi, free, 1e-3)
        b = step(psi, const, 1e-3)
        assert np.max(np.abs(np.abs(a.values) - np.abs(b.values))) < 1e-12
        # and the phase offset is exactly the constant times dt
        assert np.max(np.abs(a.values * np.exp(-1j * 2.7 * 1e-3) - b.values)) < 1e-12

    def test_coherent_state_amplitude_invariant(self):
        # ground-state width sigma = 1/sqrt(2) in V = x^2/2 is stationary
        g = make_grid(1, 256, 10.0)
        Vstar = effective_potential(TimePeriodicPotential(constant_profile(1.0), harmonic()), g)
        psi = gaussian_packet(g, width=1.0 / np.sqrt(2.0))
        a0 = np.abs(psi.values)
        T = 2.0 * np.pi
        n_steps = 6284
        snaps = propagate(
            psi,
            Vstar,
            T,
            T / n_steps,
            [T / 4, T / 2, 3 * T / 4, T],
        )
        worst = max(float(np.max(np.abs(np.abs(s.values) - a0))) for s in snaps)
        assert worst < 1e-6


class TestPropagate:
    def test_zero_horizon_returns_initial(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        out = propagate(psi, effective_potential(zero_potential(), g), 0.0, 1e-3, [0.0])
        assert out == [psi]
        assert propagate(psi, effective_potential(zero_potential(), g), 0.0, 1e-3, []) == []

    def test_one_snapshot_per_requested_time_in_request_order(self, monkeypatch):
        # snapshots once came one per distinct step, in step order, so a
        # caller zipping its times with them paired them wrongly
        psi = gaussian_packet(make_grid(1, 256, 16.0), width=1.0)
        system = OscillatingSystem(harmonic_cos_potential(), 0.2)
        checked = []
        real_check = solver.check_monitors

        def check_monitors(*args, **kwargs):
            checked.append(args[3])
            real_check(*args, **kwargs)

        monkeypatch.setattr(solver, "check_monitors", check_monitors)
        out = propagate(psi, system, 0.5, 0.2 / 32, [0.5, 0.25, 0.25])
        assert [wf.time for wf in out] == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)
        assert out[1] is out[2]
        assert checked == pytest.approx([0.25, 0.5], abs=1e-12)  # once per distinct step
        assert propagate(psi, system, 0.0, 0.2 / 32, [0.0, 0.0]) == [psi, psi]

    def test_time_independent_systems_agree(self):
        g = make_grid(1, 256, 12.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        Vstar = effective_potential(V, g)
        psi = gaussian_packet(g, width=1.0)
        for eps in (0.2, 0.05):
            dt = eps / 32
            a = propagate(psi, OscillatingSystem(V, eps), 1.0, dt, [0.5, 1.0])
            b = propagate(psi, Vstar, 1.0, dt, [0.5, 1.0])
            for wa, wb in zip(a, b):
                assert h1_distance(wa, wb) < 5e-9

    def test_h1_stays_within_three_times_initial(self):
        g = make_grid(1, 512, 16.0)
        psi = gaussian_packet(g, width=1.0)
        eps = 0.05
        snaps = propagate(
            psi,
            OscillatingSystem(harmonic_cos_potential(), eps),
            1.0,
            eps / 32,
            np.linspace(0.1, 1.0, 10),
        )
        h1_0 = norms(psi.grid, psi.values).h1
        assert max(norms(s.grid, s.values).h1 for s in snaps) <= 3.0 * h1_0

    def test_blow_up_flag(self, monkeypatch):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        Vstar = effective_potential(harmonic_cos_potential(), g)
        monkeypatch.setattr(solver, "BLOWUP_FACTOR", 0.5)
        with pytest.raises(WaveBlowUp):
            propagate(psi, Vstar, 0.5, 1e-3, [0.5])

    def test_boundary_abort_for_escaping_packet(self):
        g = make_grid(1, 512, 16.0)
        psi = gaussian_packet(g, width=1.0, momentum=6.0)
        Vstar = effective_potential(zero_potential(), g)
        with pytest.raises(BoundaryMassExceeded):
            propagate(psi, Vstar, 1.5, 1.5 / 1024, np.linspace(0.3, 1.5, 5))

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_step_must_be_positive_and_finite(self, dt):
        psi = gaussian_packet(make_grid(1, 256, 16.0), width=1.0)
        system = OscillatingSystem(harmonic_cos_potential(), eps=0.05)
        with pytest.raises(ConfigError, match="positive finite step"):
            propagate(psi, system, 1.0, dt, [1.0])

    @pytest.mark.parametrize("eps", [np.inf, np.nan, 0.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        # an infinite eps made the fast-period limit infinite: two steps ran,
        # then the snapshot's phase integral came out NaN
        with pytest.raises(ConfigError, match="eps must be positive and finite"):
            OscillatingSystem(harmonic_cos_potential(), eps)

    @pytest.mark.parametrize("T", [-1.0, np.nan, np.inf])
    def test_horizon_must_be_finite_and_nonnegative(self, T):
        psi = gaussian_packet(make_grid(1, 256, 16.0), width=1.0)
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            propagate(psi, effective_potential(zero_potential(), psi.grid), T, 1e-3, [])

    @pytest.mark.parametrize("t", [-0.05, 0.2, np.nan])
    def test_snapshot_time_outside_the_horizon_rejected(self, t):
        # a NaN time fails the range test too, not int(round(nan)) later
        psi = gaussian_packet(make_grid(1, 256, 16.0), width=1.0)
        with pytest.raises(ConfigError, match=f"snapshot time {t} outside"):
            propagate(psi, effective_potential(zero_potential(), psi.grid), 0.1, 0.01, [t])

    @pytest.mark.parametrize("t", [np.nan, 5.0, -0.05])
    def test_snapshot_time_checked_at_zero_horizon(self, t):
        # the T == 0 return once came before any time was looked at
        psi = gaussian_packet(make_grid(1, 256, 16.0), width=1.0)
        Vstar = effective_potential(zero_potential(), psi.grid)
        with pytest.raises(ConfigError, match=f"snapshot time {t} outside"):
            propagate(psi, Vstar, 0.0, 0.01, [0.0, t, 7.0])
        assert propagate(psi, Vstar, 0.0, 0.01, [0.0]) == [psi]

    def test_times_are_measured_from_the_initial_stamp(self):
        # from a state stamped 0.5, the horizon and the snapshot times count
        # from 0.5, so the continuation ends where a run from 0 to 1 does
        g = make_grid(1, 512, 16.0)
        system = OscillatingSystem(harmonic_cos_potential(), 0.1)
        dt = 0.1 / 32
        mid, end = propagate(gaussian_packet(g, width=1.0), system, 1.0, dt, [0.5, 1.0])
        assert mid.time == 0.5
        cont = propagate(mid, system, 0.5, dt, [0.25, 0.5])
        assert [wf.time for wf in cont] == [0.75, 1.0]
        assert h1_distance(cont[-1], end) < 1e-12
        with pytest.raises(ConfigError, match="snapshot time 0.75 outside"):
            propagate(mid, system, 0.5, dt, [0.75, 1.0])

    def test_dt_must_divide_horizon(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        Vstar = effective_potential(zero_potential(), g)
        with pytest.raises(ConfigError):
            propagate(psi, Vstar, 1.0, 3e-4, [1.0])


class TestLockstep:
    def _steppers(self, g, dt):
        V = harmonic_cos_potential()
        return (
            StrangStepper((OscillatingSystem(V, 0.2),), g, dt),
            StrangStepper((effective_potential(V, g),), g, dt),
        )

    @pytest.mark.parametrize("n_steps, stride", [(12, 4), (14, 4), (3, 1)])
    def test_lane_changes_no_state_or_frame(self, n_steps, stride):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0).values[np.newaxis]
        t0, dt = 0.5, 0.2 / 32

        def run(lane):
            frames = []
            finals = lockstep(
                self._steppers(g, dt), (psi, psi), t0, n_steps, stride,
                lambda k, t, states: frames.append((k, t, [v.copy() for v in states])),
                lane=lane,
            )
            return frames, finals

        if n_steps % stride:
            # no partial last block: every frame lies a whole stride apart
            with pytest.raises(UsageError, match="does not divide"):
                run(None)
            return
        frames_a, finals_a = run(None)
        with ThreadPoolExecutor(1) as lane:
            frames_b, finals_b = run(lane)
        assert [(k, t) for k, t, _ in frames_a] == [(k, t) for k, t, _ in frames_b]
        assert [k for k, _, _ in frames_a] == list(range(n_steps // stride + 1))
        for (_, _, a), (_, _, b) in zip(frames_a, frames_b):
            assert all((x == y).all() for x, y in zip(a, b))
        # each state as its own stepper alone takes it, step k at t0 + k*dt
        for stepper, final_a, final_b in zip(self._steppers(g, dt), finals_a, finals_b):
            v = psi
            for k in range(n_steps):
                v = stepper.advance(v, t0 + k * dt)
            assert (final_a == v).all() and (final_b == v).all()

    def test_side_by_side_waits_for_the_lane_when_the_first_call_raises(self):
        finished = []

        def fn(x):
            if x == 0:
                raise ValueError("first")
            time.sleep(0.05)
            finished.append(x)
            return x

        with ThreadPoolExecutor(1) as lane:
            with pytest.raises(ValueError, match="first"):
                side_by_side(lane, fn, [0, 1])
            assert finished == [1]
            assert side_by_side(lane, lambda x: 2 * x, [1, 2, 3]) == [2, 4, 6]
        assert side_by_side(None, lambda x: 2 * x, [1, 2]) == [2, 4]


def random_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def numpy_order_step(kin, phase, values, dim):
    """One Strang step as the plain expressions ``kin * fft(v)`` and
    ``phase * v`` evaluate in numpy, temporary elision included."""
    fft, ifft = (np.fft.fft, np.fft.ifft) if dim == 1 else (np.fft.fftn, np.fft.ifftn)
    v = ifft(kin * fft(values))
    v = phase * v
    return ifft(kin * fft(v))


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestStackedStep:
    # one 1D row of 16,384 points is a 256 KiB temporary, where numpy's
    # temporary elision swaps the operands of ``kin * fft(v)``; a (2, 8192)
    # stack crosses that size while its rows do not.  The 2D n = 256 grid
    # is a 2D row's, whose two systems march as two one-row stacks
    @pytest.mark.parametrize(
        "dim, n", [(1, 512), (1, 8192), (1, 16384), (2, 32), (2, 128), (2, 256), (3, 16)]
    )
    def test_each_row_equals_its_own_step_in_numpy_order(self, dim, n):
        g = make_grid(dim, n, 16.0)
        V = harmonic_cos_potential()
        osc, eff = OscillatingSystem(V, 0.1), effective_potential(V, g)
        dt = 0.1 / 32
        stacked = StrangStepper((osc, eff), g, dt)
        assert stacked.static_phase is None
        singles = (StrangStepper((osc,), g, dt), StrangStepper((eff,), g, dt))
        kin = np.exp(-1j * g.k_squared() * dt / 4.0)
        w = V.spatial_values(g)
        rows = [random_values(g.shape, 1), random_values(g.shape, 2)]
        stack = np.stack(rows)
        # a stepper of one system marches a one-row stack to the same bits
        one_row = [r[np.newaxis] for r in rows]
        for k in range(3):
            t = 0.01 + k * dt
            stack = stacked.advance(stack, t)
            one_row = [single.advance(v, t) for single, v in zip(singles, one_row)]
            s = V.temporal_integral(t, t + dt, 0.1)
            rows[0] = numpy_order_step(kin, np.exp(-1j * w * s), rows[0], dim)
            rows[1] = numpy_order_step(kin, np.exp(-1j * eff.values * dt), rows[1], dim)
            assert same_bits(stack[0], rows[0]) and same_bits(stack[1], rows[1])
            assert same_bits(one_row[0][0], rows[0]) and same_bits(one_row[1][0], rows[1])

    def test_a_shared_kinetic_factor_steps_to_the_same_bits(self):
        # a 2D row's two one-row steppers share one kinetic factor, stored
        # with the stack's leading axis
        g = make_grid(2, 256, 16.0)
        V = harmonic_cos_potential()
        osc, eff = OscillatingSystem(V, 0.1), effective_potential(V, g)
        dt = 0.1 / 32
        first = StrangStepper((osc,), g, dt)
        shared = StrangStepper((eff,), g, dt, _kin=first.kin)
        own = StrangStepper((eff,), g, dt)
        assert first.kin.shape == (1,) + g.shape
        assert shared.kin is first.kin
        assert same_bits(own.kin, first.kin)
        a = b = random_values((1,) + g.shape, 3)
        for k in range(3):
            a, b = own.advance(a, k * dt), shared.advance(b, k * dt)
            assert same_bits(a, b)

    def test_a_stack_of_static_systems_has_a_static_phase(self):
        g = make_grid(1, 64, 8.0)
        V = harmonic_cos_potential()
        eff = effective_potential(V, g)
        stepper = StrangStepper((eff, eff), g, 0.001)
        assert stepper.static_phase.shape == (2,) + g.shape

    def test_two_oscillating_systems_in_one_stack_rejected(self):
        g = make_grid(1, 64, 8.0)
        osc = OscillatingSystem(harmonic_cos_potential(), 0.1)
        with pytest.raises(UsageError, match="at most one oscillating"):
            StrangStepper((osc, osc), g, 0.001)

    @pytest.mark.parametrize(
        "dim, spatial",
        [(1, harmonic()), (2, harmonic()), (1, gaussian_well(2.0, 2.0)), (1, None)],
        ids=["canon", "row_2d", "bohm_ensemble", "w=0"],
    )
    def test_phase_equals_numpy_complex_exp_bit_for_bit(self, dim, spatial):
        # the grids of the three benchmark workloads (n=512, or 256 per
        # axis in 2D, half width 16), and a zero potential
        g = make_grid(dim, 512 if dim == 1 else 256, 16.0)
        w = np.zeros(g.shape) if spatial is None else np.asarray(spatial(g.meshgrid()), float)
        out = np.empty(g.shape, dtype=np.complex128)
        for s in np.linspace(-0.05, 0.05, 401):
            expected = np.exp(-1j * w * s)
            assert solver._oscillating_phase(w, s, out=out) is out
            assert same_bits(out, expected), s


class TestIdentityEquality:
    def test_states_compare_and_hash_by_identity(self):
        psi = gaussian_packet(make_grid(1, 256, 16.0), width=1.0)
        twin = WaveFunction(psi.grid, psi.values, 0.0)
        assert psi == psi
        assert psi != twin
        assert len({psi, twin, psi}) == 2


class TestH1Distance:
    def test_identical_is_zero(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        assert h1_distance(psi, psi) == 0.0

    def test_global_phase_algebra(self):
        # ||(e^{i theta} - 1) psi||_H1 = 2 |sin(theta/2)| * ||psi||_H1
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0, momentum=1.5)
        theta = np.pi / 3.0
        rotated = WaveFunction(g, np.exp(1j * theta) * psi.values, psi.time)
        expected = abs(np.exp(1j * theta) - 1.0) * norms(psi.grid, psi.values).h1
        assert h1_distance(psi, rotated) == pytest.approx(expected, rel=1e-12)

    def test_reversibility(self):
        g = make_grid(1, 256, 16.0)
        psi = gaussian_packet(g, width=1.0)
        V = harmonic_cos_potential()
        eps = 0.5
        fwd = step(psi, OscillatingSystem(V, eps), 1e-2)
        back = step(fwd, OscillatingSystem(V, eps), -1e-2)
        assert l2(g, back.values - psi.values) < 1e-10
        assert back.time == pytest.approx(0.0, abs=1e-15)

    def test_mismatched_inputs_rejected(self):
        g1 = make_grid(1, 256, 16.0)
        g2 = make_grid(1, 512, 16.0)
        a = gaussian_packet(g1, width=1.0)
        b = gaussian_packet(g2, width=1.0)
        with pytest.raises(UsageError):
            h1_distance(a, b)
        c = WaveFunction(a.grid, a.values, 1.0)
        with pytest.raises(UsageError):
            h1_distance(a, c)


class TestGronwallIntegrand:
    def test_time_independent_vanishes(self):
        g = make_grid(1, 256, 12.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        Vstar = effective_potential(V, g)
        psi = gaussian_packet(g, width=1.0)
        other = gaussian_packet(g, width=0.8)
        psi, other = (WaveFunction(wf.grid, wf.values, 0.33) for wf in (psi, other))
        # V == V* makes the pairing weight vanish identically
        system = OscillatingSystem(V, 0.1)
        assert gronwall_integrand(psi, other, system, Vstar, w=V.spatial_values(g)) < 1e-12

    def test_matches_evaluated_potential_bit_for_bit(self):
        from pilotwave.potential import evaluate

        g = make_grid(1, 256, 12.0)
        V = harmonic_cos_potential()
        Vstar = effective_potential(V, g)
        eps, t = 0.1, 0.37
        a = WaveFunction(g, gaussian_packet(g, width=1.0, momentum=0.5).values, t)
        b = WaveFunction(g, gaussian_packet(g, width=0.9).values, t)
        dV = evaluate(V, t / eps, g).values - Vstar.values
        lap = laplacian_values(g, a.values - b.values)
        want = float(abs(np.sum(dV * a.values * np.conj(lap)) * g.cell_volume))
        assert gronwall_integrand(a, b, OscillatingSystem(V, eps), Vstar, w=V.spatial_values(g)) == want

    def test_equal_states_vanish(self):
        g = make_grid(1, 256, 12.0)
        V = harmonic_cos_potential()
        Vstar = effective_potential(V, g)
        psi = gaussian_packet(g, width=1.0)
        system = OscillatingSystem(V, 0.1)
        assert gronwall_integrand(psi, psi, system, Vstar, w=V.spatial_values(g)) == 0.0

    def test_mismatched_spatial_values_rejected(self):
        g = make_grid(1, 256, 12.0)
        V = harmonic_cos_potential()
        Vstar = effective_potential(V, g)
        psi = gaussian_packet(g, width=1.0)
        w = V.spatial_values(make_grid(1, 128, 12.0))
        with pytest.raises(UsageError):
            gronwall_integrand(psi, psi, OscillatingSystem(V, 0.1), Vstar, w=w)

    def test_effective_potential_on_another_box_rejected(self):
        # a V* of the states' shape on another box once gave a number
        g = make_grid(1, 256, 16.0)
        V = harmonic_cos_potential()
        Vstar = effective_potential(V, make_grid(1, 256, 20.0))
        psi = gaussian_packet(g, width=1.0)
        with pytest.raises(UsageError, match="different grid"):
            gronwall_integrand(psi, psi, OscillatingSystem(V, 0.1), Vstar, w=V.spatial_values(g))

    def test_states_stamped_at_different_times_rejected(self):
        # the term reads its time from the stamps, as h1_distance does
        g = make_grid(1, 256, 12.0)
        V = harmonic_cos_potential()
        Vstar = effective_potential(V, g)
        psi = gaussian_packet(g, width=1.0)
        later = WaveFunction(psi.grid, psi.values, 0.25)
        with pytest.raises(UsageError, match="different times"):
            gronwall_integrand(psi, later, OscillatingSystem(V, 0.1), Vstar, w=V.spatial_values(g))

    def test_time_average_decays_along_eps(self):
        # sweep oracle: averaged forcing shrinks by >= 4x from eps=0.1 to 0.0125
        from pilotwave.harness import ExperimentConfig, GridSpec, SweepSpec, run_single

        cfg = ExperimentConfig(
            grid=GridSpec(dim=1, n_per_axis=256, half_width=12.0),
            sweep=SweepSpec(eps_list=(0.1, 0.0125), ensemble_size=100, seed=7),
        )
        b_coarse = run_single(cfg, 0.1).b_eps_avg
        b_fine = run_single(cfg, 0.0125).b_eps_avg
        assert b_coarse / b_fine >= 4.0


class TestUnitarityInvariant:
    def test_single_step_preserves_l2(self):
        g = make_grid(1, 512, 16.0)
        psi = gaussian_packet(g, width=1.0)
        out = step(psi, OscillatingSystem(harmonic_cos_potential(), 0.1), 0.1 / 32)
        assert abs(l2(g, out.values) - 1.0) < 1e-12

"""Grid-sized work in place: transforms of the package's own temporaries run
in place, a caller's array is never written, and every result keeps the
bits of the plain expressions it replaced (kept here as references)."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from pilotwave.bohm import _divergence, _stacked_velocity, densities
from pilotwave.grid import (
    _axis_multiplier,
    fftn,
    gradient_values,
    ifftn,
    laplacian_values,
    make_grid,
    norms,
)
from pilotwave.potential import TimePeriodicPotential, effective_potential, harmonic, one_plus_cos
from pilotwave.solver import OscillatingSystem, StrangStepper, WaveFunction, gronwall_integrand

V = TimePeriodicPotential(one_plus_cos(), harmonic())
EPS = 0.1
DT = EPS / 32

# one state of complex128 below numpy's 256 KiB temporary-elision size, and
# one at or above it, in each dimension
SIZES = [(1, 8192), (1, 16384), (2, 64), (2, 256), (3, 16), (3, 32)]


def random_values(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def state(grid, values, time=0.25):
    """A state over ``values`` itself, writable or not as the caller made it."""
    return WaveFunction._wrap(grid, values, time)


# ---------------------------------------------------------------------------
# the expressions the in-place code replaced


def reference_step(kin, phase, values, dim):
    """One Strang step of one state as plain numpy expressions, temporary
    elision included."""
    v = ifftn(kin * fftn(values, dim), dim)
    v = phase * v
    return ifftn(kin * fftn(v, dim), dim)


def reference_gradient(grid, values):
    vhat = fftn(values, grid.dim)
    lead = vhat.shape[: vhat.ndim - grid.dim]
    out = np.empty(lead + (grid.dim,) + grid.shape, dtype=np.complex128)
    by_axis = out.swapaxes(0, len(lead))
    for axis in range(grid.dim):
        by_axis[axis] = ifftn(1j * _axis_multiplier(grid, axis) * vhat, grid.dim)
    if np.isrealobj(values):
        return out.real
    return out


def reference_laplacian(grid, values):
    res = ifftn(-grid.k_squared() * fftn(values, grid.dim), grid.dim)
    return res.real if np.isrealobj(values) else res


def reference_densities(grid, values):
    """rho, current, velocity, regularized fraction and H1 of each row of a
    stack, from the whole gradient at once."""
    rho = np.abs(values) ** 2
    grad = reference_gradient(grid, values)
    current = [j.copy() for j in np.imag(np.conj(values)[:, np.newaxis] * grad)]
    u, frac = _stacked_velocity(rho, current, grid.dim)
    dv = grid.cell_volume
    space = tuple(range(-grid.dim, 0))
    l2_sq = np.sum(rho, axis=space) * dv
    semi_sq = 0.0
    for g in grad.swapaxes(0, -grid.dim - 1):
        semi_sq = semi_sq + np.sum(np.abs(g) ** 2, axis=space) * dv
    return rho, current, u, frac, np.sqrt(l2_sq + semi_sq)


def reference_gronwall(psi_eps, psi_eff, Vstar, w):
    grid = psi_eps.grid
    a = float(V.temporal(np.asarray(psi_eps.time / EPS, dtype=np.float64)))
    dV = a * w - Vstar.values
    lap = reference_laplacian(grid, psi_eps.values - psi_eff.values)
    inner = np.sum(dV * psi_eps.values * np.conj(lap)) * grid.cell_volume
    return float(abs(inner))


# ---------------------------------------------------------------------------


class TestSameBitsAsTheExpressions:
    @pytest.mark.parametrize("dim, n", SIZES)
    def test_advance(self, dim, n):
        g = make_grid(dim, n, 16.0)
        osc, eff = OscillatingSystem(V, EPS), effective_potential(V, g)
        kin = np.exp(-1j * g.k_squared() * DT / 4.0)
        w = V.spatial_values(g)
        # a stack of both systems, and each system as a one-row stack
        steppers = [StrangStepper(systems, g, DT) for systems in ((osc, eff), (osc,), (eff,))]
        rows = [random_values(g.shape, 1), random_values(g.shape, 2)]
        stacks = [np.stack(rows), rows[0][np.newaxis], rows[1][np.newaxis]]
        for k in range(2):
            t = 0.01 + k * DT
            stacks = [s.advance(v, t) for s, v in zip(steppers, stacks)]
            phase = np.exp(-1j * w * V.temporal_integral(t, t + DT, EPS))
            rows[0] = reference_step(kin, phase, rows[0], dim)
            rows[1] = reference_step(kin, np.exp(-1j * eff.values * DT), rows[1], dim)
            assert same_bits(stacks[0][0], rows[0]) and same_bits(stacks[0][1], rows[1])
            assert same_bits(stacks[1][0], rows[0]) and same_bits(stacks[2][0], rows[1])

    @pytest.mark.parametrize("dim, n", SIZES)
    @pytest.mark.parametrize("real", [False, True])
    def test_gradient_and_laplacian(self, dim, n, real):
        g = make_grid(dim, n, 16.0)
        values = random_values((2,) + g.shape, 3)
        if real:
            values = values.real.copy()
        for v in (values[0], values):  # a lone array and a stack
            assert same_bits(gradient_values(g, v), reference_gradient(g, v))
            assert same_bits(laplacian_values(g, v), reference_laplacian(g, v))

    @pytest.mark.parametrize("dim, n", SIZES)
    def test_densities(self, dim, n):
        g = make_grid(dim, n, 16.0)
        mesh = g.meshgrid()
        centred = np.exp(-sum(m**2 for m in mesh) / 4.0)
        moving = np.exp(-sum((m - 3.0) ** 2 for m in mesh) / 9.0 + 2j * mesh[0])
        states = (WaveFunction(g, centred, 0.25), WaveFunction(g, moving, 0.25))
        for given in (states[:1], states):
            stack = np.stack([s.values for s in given])
            want = reference_densities(g, stack)
            for i, d in enumerate(densities(given)):
                rho, current, u, frac, h1 = (x[i] for x in want)
                assert same_bits(d.rho, rho) and same_bits(d.current, current)
                assert same_bits(d.velocity, u) and same_bits(d.h1, h1)
                assert d.regularized_fraction == frac
                assert d.current.flags.owndata

    @pytest.mark.parametrize("dim, n", SIZES)
    def test_gronwall_integrand(self, dim, n):
        g = make_grid(dim, n, 16.0)
        osc, Vstar = OscillatingSystem(V, EPS), effective_potential(V, g)
        w = V.spatial_values(g)
        psi_eps = WaveFunction(g, random_values(g.shape, 4), 0.37)
        psi_eff = WaveFunction(g, random_values(g.shape, 5), 0.37)
        got = gronwall_integrand(psi_eps, psi_eff, osc, Vstar, w=w)
        assert same_bits(got, reference_gronwall(psi_eps, psi_eff, Vstar, w))

    @pytest.mark.parametrize("dim, n", SIZES)
    def test_divergence(self, dim, n, monkeypatch):
        # once each component's whole gradient: dim * (dim + 1) transforms
        g = make_grid(dim, n, 16.0)
        vec = random_values((dim,) + g.shape, 6).real.copy()
        want = np.zeros(g.shape)
        for axis in range(dim):
            want += reference_gradient(g, vec[axis])[axis]
        calls = []  # on numpy's backend (one axis) and scipy's (several)
        for module in (np.fft, scipy.fft):
            for name in ("fft", "fftn", "ifft", "ifftn"):
                transform = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _t=transform, **k: calls.append(1) or _t(*a, **k))
        got = _divergence(g, vec)
        assert len(calls) == 2 * dim
        assert same_bits(got, want)


class TestCallersArraysKeepTheirBytes:
    """No in-place transform reaches an array the package did not make."""

    @pytest.fixture(params=[(1, 64), (2, 32), (3, 16)], ids=["1d", "2d", "3d"])
    def grid(self, request):
        return make_grid(*request.param, 8.0)

    @staticmethod
    def inputs(shape, writable, seed):
        values = random_values(shape, seed)
        values.setflags(write=writable)
        return values

    @staticmethod
    def check_untouched(arrays, call):
        before = [a.tobytes() for a in arrays]
        call()
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("writable", [True, False])
    def test_advance(self, grid, writable):
        osc, eff = OscillatingSystem(V, EPS), effective_potential(V, grid)
        for systems in ((osc,), (osc, eff)):
            values = self.inputs((len(systems),) + grid.shape, writable, 6)
            stepper = StrangStepper(systems, grid, DT)
            self.check_untouched([values], lambda: stepper.advance(values, 0.0))
        # a harness row starts from a broadcast view of its initial state
        start = np.broadcast_to(values[0], (2,) + grid.shape)
        self.check_untouched([values], lambda: stepper.advance(start, 0.0))

    @pytest.mark.parametrize("writable", [True, False])
    def test_densities_and_gronwall_integrand(self, grid, writable):
        a = self.inputs(grid.shape, writable, 7)
        b = self.inputs(grid.shape, writable, 8)
        psi_a, psi_b = state(grid, a), state(grid, b)
        self.check_untouched([a, b], lambda: densities(psi_a))
        self.check_untouched([a, b], lambda: densities((psi_a, psi_b)))
        osc, Vstar = OscillatingSystem(V, EPS), effective_potential(V, grid)
        w = V.spatial_values(grid)
        w.setflags(write=writable)
        self.check_untouched(
            [a, b, w, Vstar.values], lambda: gronwall_integrand(psi_a, psi_b, osc, Vstar, w=w)
        )

    @pytest.mark.parametrize("writable", [True, False])
    @pytest.mark.parametrize("real", [False, True])
    def test_grid_functions(self, grid, writable, real):
        values = self.inputs((2,) + grid.shape, True, 9)
        if real:
            values = values.real.copy()
        values.setflags(write=writable)
        for v in (values[0], values):  # a lone array and a stack
            self.check_untouched([values], lambda: gradient_values(grid, v))
            self.check_untouched([values], lambda: laplacian_values(grid, v))
        self.check_untouched([values], lambda: norms(grid, values[0]))


class TestTransients:
    """At 64^3 (one state 4 MiB) a step allocates only its output, and the
    frame diagnostics a few states of scratch."""

    SLACK = 64 * 1024  # Python objects and numpy's fixed-size ufunc buffers

    def traced_peak(self, fn):
        fn()  # caches and plans are made outside the trace
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_step_and_frame_diagnostics_at_64_cubed(self):
        g = make_grid(3, 64, 16.0)
        one = g.size * np.dtype(np.complex128).itemsize
        osc, Vstar = OscillatingSystem(V, EPS), effective_potential(V, g)
        w = V.spatial_values(g)
        psi = WaveFunction(g, random_values(g.shape, 10), 0.25)
        phi = WaveFunction(g, random_values(g.shape, 11), 0.25)
        stepper = StrangStepper((osc,), g, DT)
        stack = psi.values[np.newaxis]
        assert self.traced_peak(lambda: stepper.advance(stack, 0.0)) <= 1.0 * one + self.SLACK
        assert self.traced_peak(lambda: densities(psi)) <= 5.5 * one + self.SLACK
        term = self.traced_peak(lambda: gronwall_integrand(psi, phi, osc, Vstar, w=w))
        assert term <= 3.0 * one + self.SLACK

import dataclasses

import numpy as np
import pytest

from pilotwave.errors import ConfigError, InconsistencyError, InputError
from pilotwave.grid import make_grid
from pilotwave.potential import (
    SpatialProfile,
    TemporalProfile,
    TimePeriodicPotential,
    check_subquadratic,
    constant_profile,
    cosine_lattice,
    effective_potential,
    evaluate,
    exp_sin,
    gaussian_well,
    harmonic,
    one_plus_cos,
    one_plus_half_sin,
)
from pilotwave.potential import _gauss_nodes


def bessel_i0_series(x, terms=30):
    """Independent oracle: I0(x) = sum_k (x^2/4)^k / (k!)^2."""
    total, term = 0.0, 1.0
    for k in range(terms):
        total += term
        term *= (x * x / 4.0) / ((k + 1) ** 2)
    return total


def gl_mean_oracle(func, order=64):
    """Independent oracle: one-panel Gauss-Legendre mean over [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (nodes + 1.0)
    return 0.5 * float(np.sum(weights * func(s)))


class TestEvaluate:
    def test_time_independent(self):
        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        sp = evaluate(V, 0.37, g)
        assert np.allclose(sp.values, 0.5 * g.axes[0] ** 2, rtol=0, atol=1e-14)

    def test_cos_modulation_peak(self):
        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(one_plus_cos(), harmonic())
        x = g.axes[0]
        assert np.allclose(evaluate(V, 0.0, g).values, x**2, atol=1e-13)
        assert np.allclose(evaluate(V, 0.25, g).values, 0.5 * x**2, atol=1e-13)

    def test_exact_periodicity(self):
        g = make_grid(1, 32, 8.0)
        V = TimePeriodicPotential(one_plus_half_sin(), gaussian_well(2.0, 1.5))
        a = evaluate(V, 0.4, g).values
        b = evaluate(V, 1.4, g).values
        assert np.allclose(a, b, rtol=1e-15, atol=1e-15)

    def test_nan_spatial_profile_rejected(self):
        g = make_grid(1, 32, 8.0)
        bad = SpatialProfile("bad", lambda coords: np.full_like(coords[0], np.nan))
        V = TimePeriodicPotential(constant_profile(1.0), bad)
        with pytest.raises(InputError):
            evaluate(V, 0.0, g)


class TestEffectivePotential:
    def test_time_independent_is_identity(self):
        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(constant_profile(1.0), harmonic())
        star = effective_potential(V, g)
        assert np.allclose(star.values, 0.5 * g.axes[0] ** 2, rtol=1e-14, atol=1e-14)

    def test_cosine_modulation_averages_out(self):
        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(one_plus_cos(), harmonic())
        star = effective_potential(V, g, quad_order=8)
        assert np.allclose(star.values, 0.5 * g.axes[0] ** 2, rtol=1e-12, atol=1e-12)

    def test_exp_sin_mean_is_bessel_value(self):
        # two independent oracles: high-order quadrature and the I0 series
        series = bessel_i0_series(1.0)
        quad = gl_mean_oracle(lambda s: np.exp(np.sin(2 * np.pi * s)), order=64)
        assert abs(series - quad) < 1e-13
        assert abs(series - 1.2660658777520084) < 1e-12

        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(exp_sin(), harmonic())
        star = effective_potential(V, g, quad_order=64)
        expected = series * 0.5 * g.axes[0] ** 2
        assert np.allclose(star.values, expected, rtol=1e-12, atol=1e-12)

    def test_exp_sin_mean_has_the_bits_of_scipy_i0(self):
        # exp_sin's mean is numpy's I0(1); every exp_sin result hangs on its
        # last bit, which is scipy's
        import scipy.special

        want = np.float64(scipy.special.i0(1.0)).view(np.uint64)
        assert np.float64(np.i0(1.0)).view(np.uint64) == want
        assert np.float64(exp_sin().mean).view(np.uint64) == want

    def test_exp_sin_consistency_check_passes_at_order_8(self):
        g = make_grid(1, 32, 8.0)
        V = TimePeriodicPotential(exp_sin(), harmonic())
        effective_potential(V, g, quad_order=8)  # must not raise

    def test_wrong_analytic_mean_raises(self):
        g = make_grid(1, 32, 8.0)
        V = TimePeriodicPotential(dataclasses.replace(one_plus_cos(), mean=1.01), harmonic())
        with pytest.raises(InconsistencyError):
            effective_potential(V, g)

    def test_quad_order_validated(self):
        g = make_grid(1, 32, 8.0)
        V = TimePeriodicPotential(one_plus_cos(), harmonic())
        with pytest.raises(ConfigError):
            effective_potential(V, g, quad_order=4)


class TestCheckSubquadratic:
    def test_harmonic_with_cos_modulation(self):
        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(one_plus_cos(), harmonic())
        report = check_subquadratic(V, g)
        assert report.ok
        assert report.max_second_derivative == pytest.approx(2.0, abs=1e-12)
        assert report.min_value >= 0.0

    def test_cosine_lattice_bounded(self):
        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(one_plus_half_sin(), cosine_lattice(1.0, 2, g.half_width))
        report = check_subquadratic(V, g)
        assert report.ok
        k = np.pi * 2 / g.half_width
        assert report.max_second_derivative == pytest.approx(1.5 * k * k, rel=1e-12)

    def test_exponential_growth_flagged(self):
        # direct-evaluation oracle: max |d^2 exp(x^2)| = (4x^2+2) e^{x^2}
        g = make_grid(1, 256, 8.0)
        exp_sq = SpatialProfile("exp_sq", lambda coords: np.exp(coords[0] ** 2))
        V = TimePeriodicPotential(constant_profile(1.0), exp_sq)
        report = check_subquadratic(V, g)
        assert not report.ok
        x_int = g.axes[0][2:-2]
        oracle = np.max((4.0 * x_int**2 + 2.0) * np.exp(x_int**2))
        assert report.max_second_derivative > 1e6
        assert 0.1 < report.max_second_derivative / oracle < 10.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_max_over_axes_equals_the_stacked_max(self, dim):
        # the check takes each axis's max in turn; the max is exact in any order
        g = make_grid(dim, 16, 8.0)
        well = gaussian_well(2.0, 1.5)
        report = check_subquadratic(TimePeriodicPotential(one_plus_cos(), well), g)
        stacked = float(np.max(np.abs(np.stack(well.second_derivative(g.meshgrid())))))
        assert report.max_second_derivative == 2.0 * stacked

    def test_finite_difference_fallback_matches_analytic(self):
        # same profile with and without the analytic second derivative
        g = make_grid(1, 128, 8.0)
        well = gaussian_well(2.0, 1.0)
        plain = SpatialProfile("well_no_grad", well.func)
        r_analytic = check_subquadratic(TimePeriodicPotential(constant_profile(1.0), well), g)
        r_fd = check_subquadratic(TimePeriodicPotential(constant_profile(1.0), plain), g)
        assert r_fd.max_second_derivative == pytest.approx(
            r_analytic.max_second_derivative, rel=1e-4
        )


class TestProperties:
    def test_mean_zero_oscillation(self):
        # a(1/4) = 1 for the cosine profile, so V* equals evaluate there
        g = make_grid(1, 64, 8.0)
        V = TimePeriodicPotential(one_plus_cos(), gaussian_well(1.0, 2.0))
        star = effective_potential(V, g)
        snap = evaluate(V, 0.25, g)
        assert np.max(np.abs(star.values - snap.values)) < 1e-12

    def test_linearity_in_spatial_profile(self):
        g = make_grid(1, 64, 8.0)
        w1 = harmonic()
        w2 = gaussian_well(1.3, 1.1)
        combo = SpatialProfile("sum", lambda c: w1.func(c) + w2.func(c))
        t = one_plus_half_sin()
        star_combo = effective_potential(TimePeriodicPotential(t, combo), g)
        star_sep = (
            effective_potential(TimePeriodicPotential(t, w1), g).values
            + effective_potential(TimePeriodicPotential(t, w2), g).values
        )
        assert np.max(np.abs(star_combo.values - star_sep)) < 1e-14

    @pytest.mark.parametrize("shift", [0.1, 0.37, 0.9])
    def test_period_shift_leaves_mean_unchanged(self, shift):
        g = make_grid(1, 64, 8.0)
        base = exp_sin()
        shifted = TemporalProfile(
            name="exp_sin_shifted",
            func=lambda s: base.func(np.asarray(s) + shift),
            mean=base.mean,
        )
        star_base = effective_potential(TimePeriodicPotential(base, harmonic()), g)
        star_shift = effective_potential(TimePeriodicPotential(shifted, harmonic()), g)
        assert np.max(np.abs(star_base.values - star_shift.values)) < 1e-12


class TestGaussNodes:
    @pytest.mark.parametrize("order", [8, 16])
    def test_cached_read_only_and_unchanged(self, order):
        nodes, weights = _gauss_nodes(order)
        assert _gauss_nodes(order)[0] is nodes  # computed once per order
        x, w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, 0.5 * (x + 1.0)) and np.array_equal(weights, 0.5 * w)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

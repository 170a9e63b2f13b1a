import numpy as np
import pytest

from pilotwave.errors import ConfigError, InputError
from pilotwave.grid import (
    Grid,
    boundary_mass_fraction,
    fftn,
    gradient_values,
    ifftn,
    laplacian_values,
    make_grid,
    norms,
)
from pilotwave.solver import WaveFunction


def plane_wave(grid, mode):
    """Grid-resolved plane wave e^{i k x} with k = pi * mode / L per axis."""
    k = np.pi * mode / grid.half_width
    mesh = grid.meshgrid()
    phase = sum(k * m for m in mesh)
    return np.exp(1j * phase), k


class TestMakeGrid:
    def test_spacing_1d(self):
        g = make_grid(1, 16, 8.0)
        assert g.dx == 1.0
        assert g.dx * g.n_per_axis == 2.0 * g.half_width  # exact, power of two

    def test_spacing_2d(self):
        g = make_grid(2, 64, 10.0)
        assert g.dx == 0.3125
        assert g.shape == (64, 64)

    @pytest.mark.parametrize(
        "dim,n,L",
        [
            (1, 17, 8.0), (1, 8, 8.0), (4, 32, 8.0), (0, 32, 8.0), (1, 32, 0.0), (1, 32, -2.0),
            # a non-finite box once built NaN axes under a RuntimeWarning
            (1, 512, float("inf")), (1, 32, float("nan")), (2, 32, -float("inf")),
        ],
    )
    def test_invalid_configs(self, dim, n, L):
        with pytest.raises(ConfigError):
            make_grid(dim, n, L)

    @pytest.mark.parametrize("dim,n", [(1, 512.9), (1.0, 512), (True, 512)])
    def test_sizes_must_be_integers(self, dim, n):
        # a float size was once truncated or misread, and a bool taken for 1
        with pytest.raises(ConfigError, match="must be an integer"):
            make_grid(dim, n, 16.0)

    @pytest.mark.parametrize("build", [make_grid, Grid])
    @pytest.mark.parametrize("L", [True, "16", 16.0 + 0j, None])
    def test_half_width_must_be_a_real_number(self, build, L):
        # make_grid once passed it through float(): True gave a box of 1.0
        # and "16" one of 16.0, while Grid raised a raw TypeError on "16"
        with pytest.raises(ConfigError, match="half_width must be a real number"):
            build(1, 64, L)

    @pytest.mark.parametrize("L", [np.float64(16.0), np.float32(16.0), 16, np.int64(16)])
    def test_real_half_widths_accepted_and_stored_as_float(self, L):
        for g in (make_grid(1, 64, L), Grid(1, 64, L)):
            assert g == make_grid(1, 64, 16.0)
            assert type(g.half_width) is float

    def test_numpy_integer_sizes_accepted(self):
        g = make_grid(np.int64(2), np.int32(64), 10.0)
        assert g == make_grid(2, 64, 10.0)
        assert type(g.dim) is int and type(g.n_per_axis) is int

    def test_equality_hash_repr_and_pickle_read_the_parameters(self):
        import pickle

        g = make_grid(2, 32, 8.0)
        same = make_grid(2, 32, 8.0)
        assert g == same and g is not same and hash(g) == hash(same) == hash((2, 32, 8.0))
        for other in (make_grid(1, 32, 8.0), make_grid(2, 64, 8.0), make_grid(2, 32, 10.0)):
            assert g != other
        assert g != (2, 32, 8.0)
        assert repr(g) == "Grid(dim=2, n_per_axis=32, half_width=8.0, dx=0.5)"
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        assert np.array_equal(copy.k_squared(), g.k_squared())

    def test_wavenumber_convention(self):
        g = make_grid(1, 32, 8.0)
        k = g.wavenumbers[0]
        m = np.concatenate([np.arange(0, 16), np.arange(-16, 0)])
        assert np.allclose(k, np.pi * m / 8.0, atol=0, rtol=1e-15)

    def test_field_shape_and_finiteness_validated(self):
        g = make_grid(1, 32, 8.0)
        with pytest.raises(InputError):
            WaveFunction(g, np.zeros(16), 0.0)
        bad = np.zeros(32, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(InputError):
            WaveFunction(g, bad, 0.0)

    def test_public_field_copies_and_private_field_adopts(self):
        g = make_grid(1, 32, 8.0)
        arr = np.exp(1j * g.axes[0])
        public = WaveFunction(g, arr, 0.5)
        assert not np.shares_memory(public.values, arr)
        assert arr.flags.writeable
        assert not public.values.flags.writeable
        assert public.values.dtype == np.complex128
        real = WaveFunction(g, np.ones(32), 0.5)  # cast, so a fresh complex128 array
        assert real.values.dtype == np.complex128 and not real.values.flags.writeable
        adopted = WaveFunction._adopt(g, arr, 0.5)
        assert adopted.values is arr
        assert not arr.flags.writeable
        assert (adopted.grid, adopted.time) == (g, 0.5)
        bad = np.zeros(32, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(InputError):
            WaveFunction._adopt(g, bad, 0.0)
        with pytest.raises(InputError):
            WaveFunction._adopt(g, np.zeros(16, dtype=complex), 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_inner_box_mask_cached_read_only(self, dim):
        g = make_grid(dim, 16, 4.0)
        mask = g.inner_box_mask()
        assert mask is g.inner_box_mask()
        assert not mask.flags.writeable
        reference = np.ones(g.shape, dtype=bool)
        for m in g.meshgrid():
            reference &= np.abs(m) <= 0.5 * g.half_width
        assert np.array_equal(mask, reference)


class TestSpectralGradient:
    def test_constant_field(self):
        g = make_grid(1, 64, 8.0)
        (df,) = gradient_values(g, np.full(g.shape, 2.3 + 0.5j))
        assert np.max(np.abs(df)) < 1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_plane_wave_eigenfunction(self, dim):
        g = make_grid(dim, 32, 8.0)
        f, k = plane_wave(g, mode=3)
        grads = gradient_values(g, f)
        for df in grads:
            assert np.max(np.abs(df - 1j * k * f)) < 1e-12

    def test_matches_fourth_order_finite_differences(self):
        # oracle: 5-point centred stencil, exact up to (max|f^(5)|/30) dx^4
        g = make_grid(1, 64, 8.0)
        x = g.axes[0]
        f_vals = np.sin(np.pi * x / g.half_width).astype(complex)
        (df,) = gradient_values(g, f_vals)

        h = g.dx
        fd = (
            np.roll(f_vals, 2)
            - 8.0 * np.roll(f_vals, 1)
            + 8.0 * np.roll(f_vals, -1)
            - np.roll(f_vals, -2)
        ) / (12.0 * h)
        bound = (np.pi / g.half_width) ** 5 / 30.0 * h**4
        assert np.max(np.abs(df - fd)) < 1.5 * bound


class TestSpectralLaplacian:
    def test_constant_field(self):
        g = make_grid(2, 32, 8.0)
        lap = laplacian_values(g, np.ones(g.shape, dtype=complex))
        assert np.max(np.abs(lap)) < 1e-13

    def test_plane_wave_eigenfunction(self):
        g = make_grid(1, 64, 8.0)
        f, k = plane_wave(g, mode=5)
        lap = laplacian_values(g, f)
        assert np.max(np.abs(lap + k * k * f)) < 1e-11

    def test_gaussian_matches_symbolic_oracle(self):
        # d^2/dx^2 e^{-x^2/2} = (x^2 - 1) e^{-x^2/2}
        g = make_grid(1, 256, 16.0)
        x = g.axes[0]
        lap = laplacian_values(g, np.exp(-(x**2) / 2.0).astype(complex))
        exact = (x**2 - 1.0) * np.exp(-(x**2) / 2.0)
        assert np.max(np.abs(lap - exact)) < 1e-8

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
    @pytest.mark.parametrize("real", [False, True])
    def test_stack_equals_each_row_bit_for_bit(self, dim, n, real):
        # a (k, *grid.shape) stack is transformed over the grid's axes only,
        # never across its rows
        g = make_grid(dim, n, 8.0)
        rng = np.random.default_rng(dim)
        stack = rng.normal(size=(2,) + g.shape)
        if not real:
            stack = stack + 1j * rng.normal(size=stack.shape)
        lap = laplacian_values(g, stack)
        assert lap.shape == stack.shape
        assert np.isrealobj(lap) == real
        for row, want in zip(lap, stack):
            assert np.array_equal(row, laplacian_values(g, want))


class TestNorms:
    def test_normalized_gaussian(self):
        g = make_grid(1, 512, 16.0)
        x = g.axes[0]
        vals = np.exp(-(x**2) / 4.0).astype(complex)
        vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * g.dx)
        n = norms(g, vals)
        assert abs(n.l2 - 1.0) < 1e-10

    def test_zero_field(self):
        g = make_grid(1, 32, 8.0)
        n = norms(g, np.zeros(g.shape, dtype=complex))
        assert n.l2 == 0.0 and n.h1 == 0.0 and n.h1_semi == 0.0

    @pytest.mark.parametrize("dim,mode", [(1, 4), (2, 2)])
    def test_plane_wave_h1_seminorm(self, dim, mode):
        # normalized plane wave: |grad psi| = |k| pointwise, so h1_semi = |k|
        g = make_grid(dim, 32, 8.0)
        f, k_axis = plane_wave(g, mode)
        vals = f * (2.0 * g.half_width) ** (-dim / 2.0)
        n = norms(g, vals)
        k_norm = np.sqrt(dim) * k_axis
        assert abs(n.h1_semi - k_norm) < 1e-10
        assert abs(n.h1 - np.sqrt(1.0 + k_norm**2)) < 1e-10


class TestTransforms:
    """The package's transforms equal numpy's bit for bit; results hang on it."""

    @pytest.mark.parametrize(
        "shape",
        # (16384,) and up hold at least 256 KiB of complex128; 1D arrays go
        # through np.fft.fft/ifft, so every 1D size from 8 to 65536 is here
        [(512,), (16384,), (32, 32), (256, 256), (16, 16, 16), (64, 64, 64)]
        + [(2**p,) for p in range(3, 17) if p not in (9, 14)],
    )
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_equal_numpy_bit_for_bit(self, shape, kind):
        rng = np.random.default_rng(5)
        values = rng.normal(size=shape)
        if kind == "complex":
            values = values + 1j * rng.normal(size=shape)
        forward = fftn(values, values.ndim)
        assert forward.dtype == np.complex128
        assert (forward == np.fft.fftn(values)).all()
        assert (ifftn(values, values.ndim) == np.fft.ifftn(values)).all()
        assert (ifftn(forward, values.ndim) == np.fft.ifftn(np.fft.fftn(values))).all()


class TestInvariants:
    def test_parseval(self):
        rng = np.random.default_rng(7)
        g = make_grid(1, 128, 8.0)
        vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        l2_phys = norms(g, vals).l2
        coeffs = np.fft.fftn(vals)
        l2_spec = np.sqrt(np.sum(np.abs(coeffs) ** 2) / g.size * g.cell_volume)
        assert abs(l2_phys - l2_spec) < 1e-12 * l2_phys

    def test_linearity(self):
        rng = np.random.default_rng(11)
        g = make_grid(2, 16, 4.0)
        f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        h = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        combo = a * f + b * h
        lap_combo = laplacian_values(g, combo)
        lap_sep = a * laplacian_values(g, f) + b * laplacian_values(g, h)
        scale = np.max(np.abs(lap_sep)) + 1e-30
        assert np.max(np.abs(lap_combo - lap_sep)) < 1e-12 * scale
        grad_combo = gradient_values(g, combo)
        grad_f = gradient_values(g, f)
        grad_h = gradient_values(g, h)
        for gc, gf, gh in zip(grad_combo, grad_f, grad_h):
            diff = gc - (a * gf + b * gh)
            assert np.max(np.abs(diff)) < 1e-12 * (np.max(np.abs(gc)) + 1e-30)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_divergence_of_gradient_is_laplacian(self, dim):
        g = make_grid(dim, 32, 6.0)
        mesh = g.meshgrid()
        vals = np.exp(-sum(m * m for m in mesh) / 2.0).astype(complex)
        lap = laplacian_values(g, vals)
        div_grad = np.zeros_like(lap)
        for axis, df in enumerate(gradient_values(g, vals)):
            div_grad += gradient_values(g, df)[axis]
        scale = np.max(np.abs(lap))
        assert np.max(np.abs(lap - div_grad)) < 1e-10 * scale

    def test_boundary_mass_fraction(self):
        g = make_grid(1, 256, 16.0)
        x = g.axes[0]
        centered = np.exp(-(x**2)).astype(complex)
        offset = np.exp(-((x - 7.5) ** 2)).astype(complex)
        # the function takes the density |psi|^2
        assert boundary_mass_fraction(g, np.abs(centered) ** 2) < 1e-12
        assert boundary_mass_fraction(g, np.abs(offset) ** 2) > 0.1

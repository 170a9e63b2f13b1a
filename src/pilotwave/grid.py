"""Periodic spatial grids with FFT-based spectral differentiation and norms.

The functions here take a grid and a plain array of values on it; the one
checked state type, which holds its grid, values and time, is
``solver.WaveFunction``.

Transform convention (fixed package-wide): forward transform is numpy's
unnormalized FFT, the inverse carries the 1/n factor.  Every transform in
the package goes through ``fftn``/``ifftn`` below, which run scipy.fft's
pocketfft over the axes in numpy's order (last axis first) on complex128
input, a real input being cast to complex first; a transform over one
axis goes through the one-axis ``scipy.fft.fft``/``ifft``.  They equal
``np.fft.fftn``/``ifftn`` bit for bit (tests/test_grid.py checks it), so
results hang on the numpy and scipy versions together.  A stack of
states, an array of shape ``(k, *grid.shape)``, is transformed over its
last ``grid.dim`` axes in one call, and each state's transform equals its
own bit for bit; ``gradient_values`` and ``laplacian_values`` take such
a stack too.  Per-axis wavenumbers are k = pi*m/half_width for integer m
in [-n/2, n/2), stored in numpy's standard FFT ordering (0, 1, ...,
n/2-1, -n/2, ..., -1 scaled).  All integrals are plain dx^N Riemann
sums, which on a periodic grid coincide with the trapezoidal rule and
are spectrally accurate for smooth fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.fft  # imported with the package, so that no row pays the import

from .errors import ConfigError

__all__ = [
    "Grid",
    "Norms",
    "make_grid",
    "norms",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic tensor grid on the box [-L, L)^dim.

    ``n_per_axis`` must be a power of two so that ``dx = 2L/n`` is exact in
    binary floating point (``dx * n == 2L`` bit-for-bit).
    """

    dim: int
    n_per_axis: int
    half_width: float
    dx: float = field(init=False, compare=False)
    axes: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    wavenumbers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _inner_box: np.ndarray = field(init=False, repr=False, compare=False)
    _k_squared: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("dim", "n_per_axis"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.n_per_axis
        if n < 16 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_per_axis must be a power of two >= 16, got {n}")
        if not (0 < self.half_width < math.inf):
            raise ConfigError(f"half_width must be positive and finite, got {self.half_width}")
        dx = 2.0 * self.half_width / n
        x = -self.half_width + dx * np.arange(n)
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        x.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "axes", (x,) * self.dim)
        object.__setattr__(self, "wavenumbers", (k,) * self.dim)
        inner = np.ones(self.shape, dtype=bool)
        for m in self.meshgrid():
            inner &= np.abs(m) <= 0.5 * self.half_width
        inner.setflags(write=False)
        object.__setattr__(self, "_inner_box", inner)
        k2 = sum(k * k for k in self.wavenumber_mesh())
        k2.setflags(write=False)
        object.__setattr__(self, "_k_squared", k2)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.n_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    def meshgrid(self) -> list[np.ndarray]:
        """Coordinate arrays of shape ``self.shape``, one per axis."""
        return list(np.meshgrid(*self.axes, indexing="ij"))

    def points(self) -> np.ndarray:
        """All grid points as an (size, dim) array in C order."""
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=1)

    def wavenumber_mesh(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.wavenumbers, indexing="ij"))

    def k_squared(self) -> np.ndarray:
        """Read-only |k|^2 on the full transform grid."""
        return self._k_squared

    def inner_box_mask(self) -> np.ndarray:
        """Read-only boolean mask of points with max-norm |x| <= half_width/2."""
        return self._inner_box


class Norms(NamedTuple):
    l2: float
    h1: float
    h1_semi: float


def make_grid(dim: int, n_per_axis: int, half_width: float) -> Grid:
    """Build a periodic grid on [-half_width, half_width)^dim."""
    return Grid(dim=dim, n_per_axis=n_per_axis, half_width=float(half_width))


def boundary_mass_fraction(grid: Grid, rho: np.ndarray) -> float:
    """Fraction of the mass of a density ``rho`` (|psi|^2, of shape
    ``grid.shape``) outside the inner half-box |x|_inf <= L/2."""
    total = rho.sum()
    if total == 0.0:
        return 0.0
    inner = grid.inner_box_mask()
    return float(rho[~inner].sum() / total)


def fftn(values: np.ndarray, dim: int | None = None) -> np.ndarray:
    """``np.fft.fftn(values)`` bit for bit, on scipy.fft's faster pocketfft.

    With ``dim``, only the last ``dim`` axes are transformed: a stack of
    states of shape ``(k, *grid.shape)`` goes through one call with
    ``dim=grid.dim``, and each state comes out as its own transform would,
    bit for bit.  The cast keeps scipy off its real-to-complex path, whose
    bits differ from numpy's; the reversed axes give numpy's order of 1D
    passes.  One transformed axis goes to the one-axis ``scipy.fft.fft``,
    which runs the same pass without the n-dimensional dispatch.
    """
    x = np.asarray(values, dtype=np.complex128)
    axes = _last_axes(x, dim)
    if len(axes) == 1:
        return scipy.fft.fft(x)
    return scipy.fft.fftn(x, axes=axes)


def ifftn(values: np.ndarray, dim: int | None = None) -> np.ndarray:
    """``np.fft.ifftn(values)`` bit for bit; see ``fftn``."""
    x = np.asarray(values, dtype=np.complex128)
    axes = _last_axes(x, dim)
    if len(axes) == 1:
        return scipy.fft.ifft(x)
    return scipy.fft.ifftn(x, axes=axes)


def _last_axes(x: np.ndarray, dim: int | None) -> tuple[int, ...]:
    """The last ``dim`` axes of ``x`` (all of them by default), last first."""
    return tuple(range(-1, -(x.ndim if dim is None else dim) - 1, -1))


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral gradient of a raw array; returns shape (dim, *grid.shape).

    A stack of arrays of shape ``(k, *grid.shape)`` gives ``(k, dim,
    *grid.shape)`` from one transform per direction, each state's gradient
    equal bit for bit to its own.  Real input yields real output (imaginary
    roundoff is discarded).
    """
    vhat = fftn(values, grid.dim)
    lead = vhat.shape[: vhat.ndim - grid.dim]
    out = np.empty(lead + (grid.dim,) + grid.shape, dtype=np.complex128)
    by_axis = out.swapaxes(0, len(lead))
    for axis in range(grid.dim):
        by_axis[axis] = ifftn(1j * _axis_multiplier(grid, axis) * vhat, grid.dim)
    if np.isrealobj(values):
        return out.real
    return out


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral Laplacian of a raw array, preserving realness of the input.

    A stack of shape ``(k, *grid.shape)`` is transformed over its last
    ``grid.dim`` axes only, so each state's Laplacian equals its own bit
    for bit.
    """
    res = ifftn(-grid.k_squared() * fftn(values, grid.dim), grid.dim)
    return res.real if np.isrealobj(values) else res


def norms(grid: Grid, values: np.ndarray) -> Norms:
    """L2 norm, H1 seminorm (via the spectral gradient) and full H1 norm."""
    return _norms_from_gradient(grid, np.abs(values) ** 2, gradient_values(grid, values))


def _norms_from_gradient(grid: Grid, rho: np.ndarray, grad: np.ndarray) -> Norms:
    """``norms`` from the density |values|^2 and the spectral gradient, for
    callers that already hold both; one formula, so both give the same bits.

    For a stack, ``rho`` of shape ``(k, *grid.shape)`` and ``grad`` of
    shape ``(k, dim, *grid.shape)``, each norm is an array of ``k``, and
    every sum runs over one state, as for a lone one.
    """
    dv = grid.cell_volume
    space = tuple(range(-grid.dim, 0))
    l2_sq = np.sum(rho, axis=space) * dv
    semi_sq = 0.0
    for g in grad.swapaxes(0, -grid.dim - 1):
        semi_sq = semi_sq + np.sum(np.abs(g) ** 2, axis=space) * dv
    return Norms(
        l2=np.sqrt(l2_sq),
        h1=np.sqrt(l2_sq + semi_sq),
        h1_semi=np.sqrt(semi_sq),
    )


def _axis_multiplier(grid: Grid, axis: int) -> np.ndarray:
    """Wavenumber array broadcast along the given axis of the full grid."""
    k = grid.wavenumbers[axis]
    shape = [1] * grid.dim
    shape[axis] = grid.n_per_axis
    return k.reshape(shape)

"""Periodic spatial grids with FFT-based spectral differentiation and norms.

The functions here take a grid and a plain array of values on it; the one
checked state type, which holds its grid, values and time, is
``solver.WaveFunction``.

Transform convention (fixed package-wide): forward transform is numpy's
unnormalized FFT, the inverse carries the 1/n factor.  Every transform in
the package goes through ``fftn``/``ifftn`` below, on complex128 input, a
real input being cast to complex first.  A transform over one axis (every
transform of a 1D grid) runs on numpy's ``np.fft.fft``/``ifft``; one over
several axes runs on scipy.fft's pocketfft, over the axes in numpy's order
(last axis first), and only that path imports scipy, so a 1D run never
does.  Both equal ``np.fft.fftn``/``ifftn`` bit for bit
(tests/test_grid.py checks it), so results hang on the numpy and scipy
versions together.  A stack of states, an array of shape ``(k,
*grid.shape)``, is transformed over its last ``grid.dim`` axes in one
call, and each state's transform equals its own bit for bit;
``gradient_values`` and ``laplacian_values`` take such a stack too.  A
transform of an array the package has just made runs in place; a
caller's array is never overwritten.  A grid-sized product of a factor
and such a temporary is written into the temporary in the operand order
numpy would take for the expression (``_times_temporary``), so it keeps
numpy's bits.  Per-axis wavenumbers are k = pi*m/half_width for integer
m in [-n/2, n/2), stored in numpy's standard FFT ordering (0, 1, ...,
n/2-1, -n/2, ..., -1 scaled).  All integrals are plain dx^N Riemann
sums, which on a periodic grid coincide with the trapezoidal rule and
are spectrally accurate for smooth fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np
import numpy.fft  # loaded with the package, so that no row pays the import

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
        if isinstance(self.half_width, bool) or not isinstance(self.half_width, numbers.Real):
            raise ConfigError(f"half_width must be a real number, got {self.half_width!r}")
        object.__setattr__(self, "half_width", float(self.half_width))
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
    return Grid(dim=dim, n_per_axis=n_per_axis, half_width=half_width)


def boundary_mass_fraction(grid: Grid, rho: np.ndarray) -> float:
    """Fraction of the mass of a density ``rho`` (|psi|^2, of shape
    ``grid.shape``) outside the inner half-box |x|_inf <= L/2."""
    total = rho.sum()
    if total == 0.0:
        return 0.0
    inner = grid.inner_box_mask()
    return float(rho[~inner].sum() / total)


def fftn(values: np.ndarray, dim: int, *, _overwrite: bool = False) -> np.ndarray:
    """``np.fft.fftn`` over the last ``dim`` axes of ``values``, bit for bit.

    A stack of states of shape ``(k, *grid.shape)`` goes through one call
    with ``dim=grid.dim``, and each state comes out as its own transform
    would, bit for bit.  One transformed axis goes to numpy's one-axis
    ``np.fft.fft``, which runs the pass ``np.fft.fftn`` would run without
    its n-dimensional dispatch.  Several go to scipy.fft's faster
    pocketfft, imported here (``_import_nd_backends`` loads it with an nD
    config); the cast keeps scipy off its real-to-complex path, whose bits
    differ from numpy's, and the reversed axes give numpy's order of 1D
    passes.

    Inside the package, ``_overwrite=True`` transforms a complex128 array
    in place (numpy's ``out=``, scipy's ``overwrite_x``) and returns it,
    with the same bits.  Only a caller that has just made that array
    itself may pass it, never for a caller's array or a state's values.
    """
    x = np.asarray(values, dtype=np.complex128)
    if dim == 1:
        # an output array handed to numpy skips its slower allocation path
        return np.fft.fft(x, out=x if _overwrite else np.empty_like(x))
    import scipy.fft

    return scipy.fft.fftn(x, axes=_last_axes(dim), overwrite_x=_overwrite)


def ifftn(values: np.ndarray, dim: int, *, _overwrite: bool = False) -> np.ndarray:
    """``np.fft.ifftn`` over the last ``dim`` axes of ``values``, bit for bit; see ``fftn``."""
    x = np.asarray(values, dtype=np.complex128)
    if dim == 1:
        return np.fft.ifft(x, out=x if _overwrite else np.empty_like(x))
    import scipy.fft

    return scipy.fft.ifftn(x, axes=_last_axes(dim), overwrite_x=_overwrite)


def _import_nd_backends() -> None:
    """Import what a grid of more than one axis runs on: scipy.fft for its
    transforms and scipy.spatial for its injectivity k-d tree.  An nD config
    calls this when it is built, so that no row pays the import; a 1D run
    never does."""
    import scipy.fft
    import scipy.spatial


def _last_axes(dim: int) -> tuple[int, ...]:
    """The last ``dim`` axes, last first."""
    return tuple(range(-1, -dim - 1, -1))


# numpy runs ``a * t``, ``t`` a temporary of at least this many bytes, as
# ``multiply(t, a)`` (its temporary elision), and a complex product's last
# bit depends on the operand order.
_ELISION_BYTES = 256 * 1024


def _times_temporary(a: np.ndarray, t: np.ndarray, dim: int) -> np.ndarray:
    """``a * t`` written into ``t`` and returned, ``t`` a temporary that the
    caller has just made and that has the product's shape and dtype.

    ``t`` is a state or a stack of states over its last ``dim`` axes.  Each
    state gets the operand order numpy's temporary elision takes for ``a *
    t`` on that state alone: ``multiply(t, a)`` when one state is at least
    ``_ELISION_BYTES``, else ``multiply(a, t)``.  So a state's product has
    the same bits as numpy's expression, in a stack of one row or several.
    """
    state_bytes = math.prod(t.shape[t.ndim - dim :]) * t.itemsize
    if state_bytes >= _ELISION_BYTES:
        return np.multiply(t, a, out=t)
    return np.multiply(a, t, out=t)


def _derivatives(grid: Grid, values: np.ndarray, axes=None) -> Iterator[np.ndarray]:
    """The spectral derivative of ``values`` along each of ``axes`` (all by
    default), in order, each into one reused complex buffer: a derivative
    is only valid until the next one is drawn.  A stack ``(k, *grid.shape)``
    gives ``(k, *grid.shape)`` derivatives from one forward transform."""
    vhat = fftn(values, grid.dim)
    buf = np.empty_like(vhat)
    for axis in range(grid.dim) if axes is None else axes:
        np.multiply(1j * _axis_multiplier(grid, axis), vhat, out=buf)
        yield ifftn(buf, grid.dim, _overwrite=True)


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral gradient of a raw array; returns shape (dim, *grid.shape).

    A stack of arrays of shape ``(k, *grid.shape)`` gives ``(k, dim,
    *grid.shape)`` from one transform per direction, each state's gradient
    equal bit for bit to its own.  Real input yields real output (imaginary
    roundoff is discarded).
    """
    lead = np.shape(values)[: np.ndim(values) - grid.dim]
    out = np.empty(lead + (grid.dim,) + grid.shape, dtype=np.complex128)
    by_axis = out.swapaxes(0, len(lead))
    for axis, d in enumerate(_derivatives(grid, values)):
        by_axis[axis] = d
    if np.isrealobj(values):
        return out.real
    return out


def laplacian_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectral Laplacian of a raw array, preserving realness of the input.

    A stack of shape ``(k, *grid.shape)`` is transformed over its last
    ``grid.dim`` axes only, so each state's Laplacian equals its own bit
    for bit.
    """
    res = _laplacian_of_transform(grid, fftn(values, grid.dim))
    return res.real if np.isrealobj(values) else res


def _laplacian_of_transform(grid: Grid, vhat: np.ndarray) -> np.ndarray:
    """The Laplacian whose forward transform ``vhat`` the caller has just
    made; it is computed in ``vhat``'s buffer, which is returned."""
    return ifftn(_times_temporary(-grid.k_squared(), vhat, grid.dim), grid.dim, _overwrite=True)


def norms(grid: Grid, values: np.ndarray) -> Norms:
    """L2 norm, H1 seminorm (via the spectral gradient) and full H1 norm."""
    real = np.isrealobj(values)
    semi_sq = 0.0
    for d in _derivatives(grid, values):
        semi_sq = semi_sq + _semi_term(grid, d.real if real else d)
    return _norms_from_terms(grid, np.abs(values) ** 2, semi_sq)


def _semi_term(grid: Grid, d: np.ndarray) -> np.ndarray:
    """One axis's term of the squared H1 seminorm, from that axis's
    derivative; for a stack ``(k, *grid.shape)``, one term per state, each
    summed over that state alone."""
    return np.sum(np.abs(d) ** 2, axis=tuple(range(-grid.dim, 0))) * grid.cell_volume


def _norms_from_terms(grid: Grid, rho: np.ndarray, semi_sq) -> Norms:
    """``norms`` from the density |values|^2 and the seminorm's terms
    summed in axis order (``_semi_term``), for every caller of one formula,
    so all give the same bits.  For a stack, each norm is an array of
    ``k``."""
    l2_sq = np.sum(rho, axis=tuple(range(-grid.dim, 0))) * grid.cell_volume
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

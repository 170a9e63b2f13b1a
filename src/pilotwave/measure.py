"""Phase-space measures from Bohmian data and convergence-in-measure statistics.

The weak-* topology on measures has no canonical computable metric, so the
bounded-Lipschitz (flat) distance is estimated from below by a fixed,
seeded dictionary of random-feature cosine test functions with Lipschitz
constant <= 1.  The same (size, seed) pair reproduces the same dictionary,
which makes sweep statistics comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import numpy.random  # loaded with the package, so that no row pays the import

from .bohm import DensityFields, TrajectoryEnsemble
from .errors import UsageError

__all__ = [
    "PhaseSpaceMeasure",
    "FeatureDictionary",
    "InjectivityReport",
    "bohmian_measure",
    "flat_distance",
    "monokinetic_deviation",
    "trajectory_deviation_measure",
    "flow_injectivity_monitor",
]

DROP_FLOOR_SCALE = 1e-14
MASS_MATCH_TOL = 1e-8
FEATURE_BLOCK = 16  # features evaluated together by FeatureDictionary.integrate
QUERY_BLOCK = 2048  # samples per k-d tree query in an nD injectivity pair list
PAIR_BLOCK = 32768  # neighbour pairs measured together
N_NEIGHBORS = 64  # initial neighbours per sample in an nD injectivity pair list
VIOLATION_RATIO = 1e-3  # stretching ratio below which injectivity counts as lost


@dataclass(frozen=True, eq=False)
class PhaseSpaceMeasure:
    """Weighted point cloud on (x, p) phase space."""

    points_x: np.ndarray  # (M, dim)
    points_p: np.ndarray  # (M, dim)
    weights: np.ndarray  # (M,) nonnegative
    total_mass: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if (w < 0).any():
            raise UsageError("measure weights must be nonnegative")
        if abs(w.sum() - self.total_mass) > 1e-10 * max(1.0, self.total_mass):
            raise UsageError(
                f"weights sum {w.sum()!r} does not match total mass {self.total_mass!r}"
            )

    @property
    def dim(self) -> int:
        return self.points_x.shape[1]


def bohmian_measure(d: DensityFields) -> PhaseSpaceMeasure:
    """Point cloud (x_i, u(x_i)) with weights rho(x_i) dx^N.

    Cells with rho below 1e-14 * max(rho) are dropped (at most ~1e-9 total
    mass at desk scale) and their mass is restored proportionally so the
    total is preserved exactly.
    """
    grid = d.grid
    rho = d.rho.ravel()
    total = float(rho.sum() * grid.cell_volume)
    keep = rho >= DROP_FLOOR_SCALE * rho.max()
    x = grid.points()[keep]
    p = d.velocity.reshape(grid.dim, -1).T[keep]
    w = rho[keep] * grid.cell_volume
    w = w * (total / w.sum())
    return PhaseSpaceMeasure(points_x=x, points_p=p, weights=w, total_mass=total)


@dataclass(frozen=True, eq=False)
class FeatureDictionary:
    """Seeded random-feature cosines phi(z) = cos(omega.z + b) / max(1, |omega|).

    Frequencies have log-uniform magnitude in [0.25, 8] with isotropic random
    directions over (x, p) space; the normalization caps every feature's
    Lipschitz constant at 1 (and |phi| <= 1), so the dictionary supremum is a
    lower bound for the bounded-Lipschitz distance.
    """

    omega: np.ndarray  # (size, 2*dim)
    offset: np.ndarray  # (size,)
    norm: np.ndarray  # (size,)

    @classmethod
    def make(cls, dim: int, size: int, seed) -> "FeatureDictionary":
        if size < 1:
            raise UsageError(f"dictionary size must be >= 1, got {size}")
        rng = np.random.default_rng(seed)
        d = 2 * dim
        direction = rng.normal(size=(size, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        scale = np.exp(rng.uniform(np.log(0.25), np.log(8.0), size=size))
        omega = direction * scale[:, None]
        offset = rng.uniform(0.0, 2.0 * np.pi, size=size)
        norm = np.maximum(1.0, np.linalg.norm(omega, axis=1))
        return cls(omega=omega, offset=offset, norm=norm)

    def integrate(self, beta: PhaseSpaceMeasure) -> np.ndarray:
        """<beta, phi_j> for every feature; returns (size,).

        Features are evaluated ``FEATURE_BLOCK`` at a time, so the largest
        temporary is (points x FEATURE_BLOCK), never (points x size).  Each
        block makes the same products as the whole matrix would; when the
        block divides the size, the values equal the whole-matrix ones bit
        for bit.  Otherwise the last block may round differently in the
        last digits, because BLAS treats a partial tile of columns apart.
        """
        z = np.concatenate([beta.points_x, beta.points_p], axis=1)
        out = np.empty(len(self.offset))
        for start in range(0, out.size, FEATURE_BLOCK):
            block = slice(start, start + FEATURE_BLOCK)
            feats = z @ self.omega[block].T
            feats += self.offset[block]
            np.cos(feats, out=feats)
            feats /= self.norm[block]
            out[block] = beta.weights @ feats
        return out


def flat_distance(
    a: PhaseSpaceMeasure,
    b: PhaseSpaceMeasure,
    dictionary_size: int = 256,
    seed=0,
) -> float:
    """Lower-bound estimate of the flat (bounded-Lipschitz) distance.

    Supremum of |<a, phi> - <b, phi>| over the seeded feature dictionary.
    By construction this is symmetric and satisfies the triangle inequality
    (it is the seminorm induced by the fixed dictionary).
    """
    if a.dim != b.dim:
        raise UsageError("measures live on phase spaces of different dimension")
    if abs(a.total_mass - b.total_mass) > MASS_MATCH_TOL * max(1.0, a.total_mass):
        raise UsageError(
            f"total masses differ: {a.total_mass!r} vs {b.total_mass!r}"
        )
    dictionary = FeatureDictionary.make(a.dim, dictionary_size, seed)
    return float(np.max(np.abs(dictionary.integrate(a) - dictionary.integrate(b))))


def monokinetic_deviation(
    beta: PhaseSpaceMeasure,
    d_eff: DensityFields,
    dictionary_size: int = 256,
    seed=0,
) -> float:
    """Flat distance between beta and the mono-kinetic measure of d_eff.

    The comparison measure concentrates all momentum at the effective
    velocity field: rho_eff(x) delta(p - u_eff(x)).
    """
    reference = bohmian_measure(d_eff)
    return flat_distance(beta, reference, dictionary_size=dictionary_size, seed=seed)


def trajectory_deviation_measure(
    ens_eps: TrajectoryEnsemble, ens_eff: TrajectoryEnsemble, deltas: Sequence[float]
) -> tuple[float, ...]:
    """Fraction of (time, sample) pairs with |(X_eps,P_eps)-(X,P)| >= delta,
    one per entry of ``deltas``, in order.

    Monte-Carlo estimate of the normalized product measure of the deviation
    set over [0,T] x supp(rho0); requires paired ensembles (same initial
    points and times) and counts the samples valid in both.  At delta = 0
    only strictly positive deviations count, so identical ensembles give 0.
    One pass over the output times serves every delta: each time's
    positions and momenta are read as views, a sample lost by either
    ensemble gets a NaN deviation, which meets no threshold, and every
    delta's exceedances are counted.  The counts are exact, so each
    fraction equals the mean over the whole (times x shared samples) array
    bit for bit.  An empty ``deltas`` gives ``()``.
    """
    if np.ndim(deltas) != 1:
        raise UsageError(f"deltas must be a sequence of numbers, got {deltas!r}")
    for delta in deltas:
        if not delta >= 0:  # NaN included
            raise UsageError(f"delta must be nonnegative, got {delta}")
    if len(deltas) == 0:
        return ()
    if not np.array_equal(ens_eps.times, ens_eff.times):
        raise UsageError("ensembles are not paired: snapshot times differ")
    if not np.array_equal(ens_eps.initial_points, ens_eff.initial_points):
        raise UsageError("ensembles are not paired: initial points differ")
    lost = ~(ens_eps.valid & ens_eff.valid)
    n_shared = lost.size - int(np.count_nonzero(lost))
    if n_shared == 0:
        raise UsageError("no valid samples shared by the two ensembles")
    counts = np.zeros(len(deltas), dtype=np.int64)
    # a lost sample's values may be non-finite; its deviation is masked
    with np.errstate(invalid="ignore", over="ignore"):
        for k_t in range(ens_eps.times.size):
            dx = np.subtract(ens_eps.positions[k_t], ens_eff.positions[k_t])
            dp = np.subtract(ens_eps.momenta[k_t], ens_eff.momenta[k_t])
            dev = np.sum(np.multiply(dx, dx, out=dx), axis=1)
            dev += np.sum(np.multiply(dp, dp, out=dp), axis=1)
            np.sqrt(dev, out=dev)
            dev[lost] = np.nan
            counts += [np.count_nonzero(dev >= d if d > 0 else dev > 0.0) for d in deltas]
    return tuple((counts / (ens_eps.times.size * n_shared)).tolist())


class InjectivityReport(NamedTuple):
    min_pair_separation_ratio: float
    first_violation_time: float | None


def _injectivity_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(lo, hi)`` indexing the rows of ``points``: the neighbour
    pairs among them, as their search returns them.

    In 1D these are the ``m - 1`` pairs adjacent in a stable sort of the
    points (``lo`` the lower point), found with no k-d tree.  For a
    monotone 1D flow their smallest stretching ratio is the smallest over
    all pairs: between sorted points ``x_i < x_j`` the ratio
    ``(X_j - X_i) / (x_j - x_i)`` is ``sum(g_k) / sum(d_k)`` over the
    adjacent gaps between them, a mediant of the adjacent ratios
    ``g_k / d_k``, so it is at least their minimum.

    In more dimensions each sample is paired with its ``N_NEIGHBORS``
    nearest neighbours (see ``_nearest_neighbour_pairs``).  Coincident
    pairs are kept; the monitor skips them.
    """
    m = len(points)
    if m < 2:
        raise UsageError("need at least 2 valid samples to monitor injectivity")
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0], kind="stable").astype(np.int32)
        return order[:-1], order[1:]  # two views of one array
    return _nearest_neighbour_pairs(points)


def _nearest_neighbour_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(lo, hi)``: each row of ``points`` (``lo``) paired with
    each of its ``N_NEIGHBORS`` nearest neighbours (``hi``), sample by
    sample.  The k-NN relation is not symmetric, so a pair whose samples
    list each other appears twice, which changes no minimum.  The k-d
    tree is queried ``QUERY_BLOCK`` samples at a time.  Only this nD path
    uses scipy (see ``grid._import_nd_backends``)."""
    from scipy.spatial import cKDTree

    m = len(points)
    tree = cKDTree(points)
    k = min(N_NEIGHBORS + 1, m)
    hi = np.empty((m, k - 1), dtype=np.int32)
    for start in range(0, m, QUERY_BLOCK):
        rows = slice(start, start + QUERY_BLOCK)
        hi[rows] = tree.query(points[rows], k=k)[1][:, 1:]  # self match dropped
    return np.repeat(np.arange(m, dtype=np.int32), k - 1), hi.ravel()


def flow_injectivity_monitor(ens: TrajectoryEnsemble) -> InjectivityReport:
    """Track pairwise stretching ratios |X(t,xi)-X(t,xj)| / |xi-xj|.

    The pairs are those of ``_injectivity_pairs`` among the start points
    of ``ens``'s valid samples: in 1D the ``M - 1`` pairs adjacent in the
    initial order, whose minimum is the minimum over all pairs of a
    monotone flow; in more dimensions each sample with its
    ``N_NEIGHBORS`` nearest initial neighbours, so the cost stays
    O(M * N_NEIGHBORS).  A ratio below ``VIOLATION_RATIO`` is the proxy
    for trajectory crossing; the first time it happens is reported.  The
    pairs are measured ``PAIR_BLOCK`` at a time: a block's initial
    separations are computed once from the start points, its coincident
    pairs (separation not positive) are skipped, and the rest is measured
    at every output time.  A min is exact under any blocking, order or
    repetition of the pairs, so these set only the size of the
    temporaries.  Raises ``UsageError`` when every pair coincides.
    """
    valid = np.flatnonzero(ens.valid)
    points = ens.initial_points[valid]
    pair_lo, pair_hi = _injectivity_pairs(points)
    coords = points.T
    ratio = np.full(ens.times.size, np.inf)  # smallest ratio per output time
    n_apart = 0
    for start in range(0, pair_lo.size, PAIR_BLOCK):
        part = slice(start, start + PAIR_BLOCK)
        lo, hi = pair_lo[part], pair_hi[part]
        base = _pair_separation(coords, lo, hi)
        apart = base > 0  # coincident initial samples carry no ratio information
        base = base[apart]
        n_apart += base.size
        # the block's sample indices, translated once for every output time
        lo, hi = valid[lo[apart]], valid[hi[apart]]
        for k_t in range(ens.times.size):
            sep = _pair_separation(ens.positions[k_t].T, lo, hi)
            ratio[k_t] = np.min(sep / base, initial=ratio[k_t])
    if n_apart == 0:
        raise UsageError("all neighbor pairs coincide at t=0")
    violations = ens.times[ratio < VIOLATION_RATIO]
    return InjectivityReport(
        # a time whose ratio is NaN is skipped, as ``<`` skips it
        min_pair_separation_ratio=float(np.fmin.reduce(ratio, initial=np.inf)),
        first_violation_time=float(violations[0]) if violations.size else None,
    )


def _pair_separation(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """|x_lo - x_hi| per pair from (dim, m) coordinates.

    Squares are summed in axis order, as ``np.linalg.norm(..., axis=1)``
    sums them, so the result matches it bit for bit.
    """
    d = np.take(coords[0], lo) - np.take(coords[0], hi)
    sq = d * d
    for c in coords[1:]:
        d = np.take(c, lo) - np.take(c, hi)
        sq += d * d
    return np.sqrt(sq, out=sq)

"""Phase-space measures from Bohmian data and convergence-in-measure statistics.

The weak-* topology on measures has no canonical computable metric, so the
bounded-Lipschitz (flat) distance is estimated from below by a fixed,
seeded dictionary of random-feature cosine test functions with Lipschitz
constant <= 1.  The same (size, seed) pair reproduces the same dictionary,
which makes sweep statistics comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    ens_eps: TrajectoryEnsemble, ens_eff: TrajectoryEnsemble, delta: float
) -> float:
    """Fraction of (time, sample) pairs with |(X_eps,P_eps)-(X,P)| >= delta.

    Monte-Carlo estimate of the normalized product measure of the deviation
    set over [0,T] x supp(rho0); requires paired ensembles (same initial
    points and times).  At delta = 0 only strictly positive deviations
    count, so identical ensembles give 0.  Exceedances are counted one
    output time at a time; the count is exact, so the fraction equals the
    mean over the whole (times x samples) array bit for bit.  When every
    sample of both ensembles is valid, each time's positions and momenta
    are read as views; otherwise the shared valid samples are gathered.
    """
    if not delta >= 0:  # NaN included
        raise UsageError(f"delta must be nonnegative, got {delta}")
    if ens_eps.times.shape != ens_eff.times.shape or not np.array_equal(
        ens_eps.times, ens_eff.times
    ):
        raise UsageError("ensembles are not paired: snapshot times differ")
    if not np.array_equal(ens_eps.initial_points, ens_eff.initial_points):
        raise UsageError("ensembles are not paired: initial points differ")
    both = np.flatnonzero(ens_eps.valid & ens_eff.valid)
    if both.size == 0:
        raise UsageError("no valid samples shared by the two ensembles")
    pick = slice(None) if both.size == ens_eps.valid.size else both
    count = 0
    for k_t in range(ens_eps.times.size):
        dx = np.subtract(ens_eps.positions[k_t, pick], ens_eff.positions[k_t, pick])
        dp = np.subtract(ens_eps.momenta[k_t, pick], ens_eff.momenta[k_t, pick])
        dev = np.sum(np.multiply(dx, dx, out=dx), axis=1)
        dev += np.sum(np.multiply(dp, dp, out=dp), axis=1)
        np.sqrt(dev, out=dev)
        count += int(np.count_nonzero(dev >= delta if delta > 0 else dev > 0.0))
    return count / (ens_eps.times.size * both.size)


class InjectivityReport(NamedTuple):
    min_pair_separation_ratio: float
    first_violation_time: float | None


def _injectivity_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(lo, hi)`` indexing the rows of ``points``: the neighbour
    pairs among them, each once, with coincident pairs dropped.

    In 1D these are the ``m - 1`` pairs adjacent in a stable sort of the
    points (``lo`` the lower point), found with no k-d tree.  For a
    monotone 1D flow their smallest stretching ratio is the smallest over
    all pairs: between sorted points ``x_i < x_j`` the ratio
    ``(X_j - X_i) / (x_j - x_i)`` is ``sum(g_k) / sum(d_k)`` over the
    adjacent gaps between them, a mediant of the adjacent ratios
    ``g_k / d_k``, so it is at least their minimum.

    In more dimensions each pair of ``N_NEIGHBORS``-nearest neighbours
    counts, whether one or both of its samples list the other (the k-NN
    relation is not symmetric).
    """
    m = len(points)
    if m < 2:
        raise UsageError("need at least 2 valid samples to monitor injectivity")
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0], kind="stable").astype(np.int32)
        lo, hi = order[:-1], order[1:]  # two views of one array
    else:
        lo, hi = _nearest_neighbour_pairs(points)
    coords = points.T
    keep = np.empty(lo.size, dtype=bool)
    for start in range(0, lo.size, PAIR_BLOCK):
        block = slice(start, start + PAIR_BLOCK)
        # coincident initial samples carry no ratio information
        keep[block] = _pair_separation(coords, lo[block], hi[block]) > 0
    if not keep.all():
        if not keep.any():
            raise UsageError("all neighbor pairs coincide at t=0")
        lo, hi = lo[keep], hi[keep]
    return lo, hi


def _nearest_neighbour_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 ``(lo, hi)`` with ``lo < hi``, sorted, of every unordered pair
    of ``N_NEIGHBORS``-nearest neighbours among the rows of ``points``.
    Only this nD path uses scipy (see ``grid._import_nd_backends``)."""
    from scipy.spatial import cKDTree

    m = len(points)
    tree = cKDTree(points)
    k = min(N_NEIGHBORS + 1, m)

    # key = min(i, j) * m + max(i, j) per (sample, neighbour), self-match
    # dropped; the tree is queried QUERY_BLOCK samples at a time and each
    # block's keys are formed in place in one preallocated array, which is
    # then sorted in place: that beats np.unique's hashing at this size.
    # The keys are int32 while m * m fits (m <= 46340), else int64
    key_type = np.int32 if m * m <= np.iinfo(np.int32).max else np.int64
    keys = np.empty((m, k - 1), dtype=key_type)
    for start in range(0, m, QUERY_BLOCK):
        stop = min(start + QUERY_BLOCK, m)
        cols = tree.query(points[start:stop], k=k)[1][:, 1:]  # distances dropped at once
        rows = np.arange(start, stop)[:, None]
        block = keys[start:stop]
        np.minimum(cols, rows, out=block)
        np.maximum(cols, rows, out=cols)
        block *= m
        block += cols
    del cols, block  # a leftover view would keep ``keys`` alive
    keys = keys.ravel()
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pair_keys = keys[first]
    del keys, first
    # one sample index fits int32 at any ensemble size, which halves the
    # kept pair list
    lo = np.floor_divide(pair_keys, m, out=np.empty(pair_keys.size, dtype=np.int32))
    hi = np.remainder(pair_keys, m, out=np.empty(pair_keys.size, dtype=np.int32))
    return lo, hi


def flow_injectivity_monitor(ens: TrajectoryEnsemble) -> InjectivityReport:
    """Track pairwise stretching ratios |X(t,xi)-X(t,xj)| / |xi-xj|.

    The pairs are those of ``_injectivity_pairs`` among the start points
    of ``ens``'s valid samples, each measured once: in 1D the ``M - 1``
    pairs adjacent in the initial order, whose minimum is the minimum over
    all pairs of a monotone flow; in more dimensions each sample's
    ``N_NEIGHBORS`` nearest initial neighbours, so the cost stays
    O(M * N_NEIGHBORS).  A ratio below ``VIOLATION_RATIO`` is the proxy
    for trajectory crossing; the first time it happens is reported.  The
    pairs are measured ``PAIR_BLOCK`` at a time: a block's initial
    separations are computed once from the start points, then the block
    is measured at every output time; a min is exact under any blocking,
    so the block sets only the size of the temporaries.
    """
    valid = np.flatnonzero(ens.valid)
    points = ens.initial_points[valid]
    pair_lo, pair_hi = _injectivity_pairs(points)
    coords = points.T
    ratio = np.full(ens.times.size, np.inf)  # smallest ratio per output time
    for start in range(0, pair_lo.size, PAIR_BLOCK):
        part = slice(start, start + PAIR_BLOCK)
        base = _pair_separation(coords, pair_lo[part], pair_hi[part])
        # the block's sample indices, translated once for every output time
        lo, hi = valid[pair_lo[part]], valid[pair_hi[part]]
        for k_t in range(ens.times.size):
            sep = _pair_separation(ens.positions[k_t].T, lo, hi)
            ratio[k_t] = np.minimum(ratio[k_t], np.min(sep / base))
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

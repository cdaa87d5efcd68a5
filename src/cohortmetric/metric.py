"""Function-driven feature weights and the regularized diffusion metric.

Folder-level feature weights score each feature's power to discriminate a
cohort functional F (size-weighted variance of F over value bins), decay-sum
to per-point diagonal metrics, and feed the locally weighted PSD kernel. The
fit runs a fixed number of steps of tree -> weights -> weighted kernel ->
embedding, and returns the last step's tree, weights and the embedding of the
kernel those weights build. The weighted kernel is summed from per-feature
planes.

A point's neighbourhood is its cohort: the k = max(c, ceil(0.05 n)) nearest
of n reference points in the embedding (`cohort_neighborhood`).
`neighborhood_indices` answers a whole batch of centers in one pass, and
`multiscale_estimate` is the filtration of nested kNN cohorts inside one
point's cohort; on the reference coordinates its coarse value is the
estimate `predict` serves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import RunConfig
from .data import as_values
from .diffusion import (
    PLANE_DEPTH,
    AffinityMatrix,
    DiffusionEmbedding,
    _assemble,
    _pairwise_sum,
    _rows_per_block,
    gaussian_kernel,
    markov_normalize,
    spectral_embed,
)
from .survival import CohortError, CohortTooSmallError
from .tree import PartitionTree, build_topdown, fit_min_folder

logger = logging.getLogger(__name__)

# the fit's fixed choices: the diffusion time t of every embedding, the
# 2^{-alpha l} decay of folder weights with level, the quantile bins per
# feature in a folder, and the tree's branching
DIFFUSION_TIME = 1.0
WEIGHT_ALPHA = 1.0
K_BINS = 3
BRANCHING = 2


class CohortFunctional:
    """A functional F(E) defined only on index sets with at least c points.

    The wrapped callable receives a sorted integer index array and must be
    deterministic for a fixed subset.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], min_cohort: int):
        if min_cohort < 1:
            raise ValueError(f"min_cohort must be >= 1, got {min_cohort}")
        self._fn = fn
        self.min_cohort = int(min_cohort)

    def __call__(self, indices) -> float:
        idx = np.asarray(indices, dtype=int)
        if idx.size < self.min_cohort:
            raise CohortTooSmallError(idx.size, self.min_cohort)
        return float(self._fn(np.sort(idx)))

    @classmethod
    def from_labels(cls, labels, min_cohort: int) -> "CohortFunctional":
        """Cohort mean of a stored per-point label."""
        arr = np.asarray(labels, dtype=float)
        return cls(lambda idx: float(arr[idx].mean()), min_cohort)


class Bin(NamedTuple):
    indices: np.ndarray
    lo: float
    hi: float


@dataclass(frozen=True)
class WeightField:
    """Aggregated per-point feature weights.

    point_weights[i, y] = sum_l 2^{-alpha l} w^l_{folder(i,l)}(y); the induced
    diagonal metric entries are (point_weights + lam)^{-1}.
    """

    point_weights: np.ndarray
    lam: float

    def __post_init__(self):
        w = np.asarray(self.point_weights, dtype=float)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("point weights must be finite and nonnegative")
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        object.__setattr__(self, "point_weights", w)

    def inv_diag(self) -> np.ndarray:
        """Diagonal entries of W_x, one row per point: (w + lam)^{-1}."""
        return 1.0 / (self.point_weights + self.lam)


@dataclass(frozen=True)
class IterationDiagnostics:
    weight_change: float
    sigma: float
    lam: float
    top_eigenvalues: tuple


def cohort_neighborhood(n: int, min_cohort: int) -> int:
    """The cohort size of a point among n references: its max(c, ceil(0.05 n))
    nearest."""
    return max(min_cohort, int(np.ceil(0.05 * n)))


@dataclass(frozen=True)
class RegularizedMetric:
    """Stable function-weighted embedding with its weight field and tree."""

    embedding: DiffusionEmbedding
    weights: WeightField
    tree: PartitionTree
    cohort_size: int  # k nearest references per estimate
    sigma: float
    history: tuple  # one IterationDiagnostics per weight step

    @property
    def iterations(self) -> int:
        return len(self.history)


def bin_feature(folder_points, X, feature: int, k_bins: int) -> list[Bin]:
    """Quantile-edge bins of one feature over a folder; empty bins dropped.

    Every folder point lands in exactly one bin; a constant feature gives a
    single bin.
    """
    pts = np.sort(np.asarray(folder_points, dtype=int))
    if pts.size == 0:
        raise ValueError("folder is empty")
    if k_bins < 1:
        raise ValueError(f"k_bins must be >= 1, got {k_bins}")
    values = as_values(X)[pts, feature]
    return _bins(pts, values, np.quantile(values, _bin_probs(k_bins)))


def _bin_probs(k_bins: int) -> np.ndarray:
    """The quantile levels of the inner bin edges."""
    return np.arange(1, k_bins) / k_bins


def _bins(pts: np.ndarray, values: np.ndarray, quantiles: np.ndarray) -> list[Bin]:
    """The bins of the sorted folder points `pts`, whose feature values are
    `values`, at the distinct `quantiles`: a point goes to the number of
    edges at or below its value, and empty bins are dropped. Each bin's
    indices stay sorted."""
    assignment = np.searchsorted(np.unique(quantiles), values, side="right")
    order = np.argsort(assignment, kind="stable")
    bins, lo = [], 0
    for hi in np.cumsum(np.bincount(assignment)).tolist():
        if hi > lo:
            run = order[lo:hi]
            vals = values[run]
            bins.append(Bin(pts[run], float(vals.min()), float(vals.max())))
        lo = hi
    return bins


def _merge_small_bins(bins: list[Bin], c: int) -> list[Bin]:
    """Merge bins below the cohort minimum into the adjacent bin whose edge is
    closer, until all bins are valid or one remains."""
    bins = list(bins)
    while len(bins) > 1:
        small = [j for j, b in enumerate(bins) if b.indices.size < c]
        if not small:
            break
        j = small[0]
        if j == 0:
            target = 1
        elif j == len(bins) - 1:
            target = j - 1
        else:
            gap_left = bins[j].lo - bins[j - 1].hi
            gap_right = bins[j + 1].lo - bins[j].hi
            target = j - 1 if gap_left <= gap_right else j + 1
        a, b = sorted((j, target))
        merged = Bin(
            np.sort(np.concatenate([bins[a].indices, bins[b].indices])),
            min(bins[a].lo, bins[b].lo),
            max(bins[a].hi, bins[b].hi),
        )
        bins[a:b + 1] = [merged]
    return bins


def folder_weight(bins: list[Bin], F: CohortFunctional) -> float:
    """Size-weighted variance of F across the folder's bins.

    Bins below F's minimum cohort are merged first; bins where F is undefined
    are dropped. No valid bin left means weight 0.
    """
    merged = _merge_small_bins(bins, F.min_cohort)
    sizes, values = [], []
    for b in merged:
        if b.indices.size < F.min_cohort:
            continue
        try:
            values.append(F(b.indices))
            sizes.append(b.indices.size)
        except CohortError:
            continue
    if not sizes:
        logger.info("no valid bin after merging; folder weight set to 0")
        return 0.0
    sizes = np.asarray(sizes, dtype=float)
    # shifting by the first value keeps the (translation-invariant) weight
    # exactly zero for a constant functional
    values = np.asarray(values, dtype=float) - values[0]
    p = sizes / sizes.sum()
    fbar = float(p @ values)
    return float(p @ (values - fbar) ** 2)


def compute_folder_weights(tree: PartitionTree, X, F: CohortFunctional,
                           k_bins: int) -> dict:
    """Weights for every (level, folder, feature) with folder size >= c.

    Each such folder takes one `np.quantile` pass over all of its features,
    and each feature's bins are those `bin_feature` makes. F sees the bins
    folder by folder and feature by feature.
    """
    if k_bins < 1:
        raise ValueError(f"k_bins must be >= 1, got {k_bins}")
    values = as_values(X)
    probs = _bin_probs(k_bins)
    out: dict = {}
    for level in range(1, tree.n_levels + 1):
        for fid, pts in enumerate(tree.folders(level)):
            if len(pts) < F.min_cohort:
                continue
            vals = values[pts].T  # (m, folder): a feature per row
            edges = np.quantile(vals, probs, axis=1).T
            out[(level, fid)] = np.array(
                [folder_weight(_bins(pts, v, e), F) for v, e in zip(vals, edges)])
    return out


def resolve_lam(point_weights: np.ndarray) -> float:
    """1e-3 times the median nonzero weight, or 1e-6 when every weight is 0."""
    nz = point_weights[point_weights > 0]
    if nz.size == 0:
        return 1e-6
    return 1e-3 * float(np.median(nz))


def aggregate_point_weights(tree: PartitionTree, folder_weights: dict, alpha: float,
                            lam: float | None = None) -> WeightField:
    """Per-point weights as the 2^{-alpha l} decayed sum over ancestor folders."""
    n = tree.n_points
    m = next(iter(folder_weights.values())).shape[0] if folder_weights else 0
    if m == 0:
        raise ValueError("no folder weights to aggregate")
    w = np.zeros((n, m))
    for (level, fid), farr in folder_weights.items():
        w[tree.folders(level)[fid]] += 2.0 ** (-alpha * level) * farr[None, :]
    return WeightField(w, resolve_lam(w) if lam is None else lam)


def _median_quadratic_scale(values: np.ndarray, u: np.ndarray, subsample: int = 512) -> float:
    """Median nonzero weighted quadratic form on a subsample; bandwidth^2."""
    n = values.shape[0]
    idx = np.unique(np.linspace(0, n - 1, min(n, subsample)).astype(int))
    vt, ut = values[idx].T.copy(), u[idx].T.copy()  # (m, s): feature-major

    def block(i0, i1, j0):
        def term(y):
            t = np.subtract.outer(vt[y, i0:i1], vt[y, j0:])
            np.square(t, out=t)
            t /= np.add.outer(ut[y, i0:i1], ut[y, j0:])
            return t
        return _pairwise_sum(term, 0, vt.shape[0])

    # the form is symmetric bit for bit: the upper blocks, mirrored
    q = _assemble(len(idx), block)
    nz = q[q > 0]
    return float(np.median(nz)) if nz.size else 1.0


def weighted_kernel(X, weights, sigma: float | None = None) -> AffinityMatrix:
    """Locally weighted PSD kernel

        exp(-(x_i-x_j)' (W_i + W_j)^{-1} (x_i-x_j) / sigma^2) / sqrt(det(W_i + W_j)),

    with diagonal W. Determinants go through log space. `weights` is a
    WeightField or a raw (n, m) array of W diagonals.

    Row blocks are built from per-feature (rows, cols) planes: q is their
    pairwise sum in numpy's order, the determinant a running product of the
    a = W_i + W_j planes in feature order (np.prod's), so the entries equal
    those of the (rows, cols, m) formula bit for bit.
    """
    values = as_values(X)
    u = weights.inv_diag() if isinstance(weights, WeightField) else np.asarray(weights, dtype=float)
    if u.shape != values.shape:
        raise ValueError(f"weight diagonals {u.shape} do not match data {values.shape}")
    if np.any(u <= 0):
        raise ValueError("W_x diagonals must be positive")
    if sigma is None:
        sigma = float(np.sqrt(_median_quadratic_scale(values, u)))
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    n, m = values.shape
    xt, ut = values.T.copy(), u.T.copy()  # (m, n): one contiguous row per feature

    def block(i0, i1, j0):
        det = None

        def term(y):
            nonlocal det
            a = np.add.outer(ut[y, i0:i1], ut[y, j0:])
            t = np.subtract.outer(xt[y, i0:i1], xt[y, j0:])
            np.square(t, out=t)
            t /= a
            det = a if det is None else np.multiply(det, a, out=det)
            return t

        # determinant via products when safe, per-element logs when it
        # overflows (as huge W_i + W_j may, too)
        with np.errstate(over="ignore"):
            q = _pairwise_sum(term, 0, m)
            if np.all(np.isfinite(det)) and det.min() > 0:
                logdet = np.log(det, out=det)
            else:
                logdet = _pairwise_sum(
                    lambda y: np.log(np.add.outer(ut[y, i0:i1], ut[y, j0:])), 0, m)
        # exp(-q / sigma**2 - 0.5 * logdet), in place
        np.negative(q, out=q)
        q /= sigma**2
        logdet *= 0.5
        q -= logdet
        return np.exp(q, out=q)

    return AffinityMatrix(_assemble(n, block), float(sigma))


def compute_weight_field(X, F: CohortFunctional, tree: PartitionTree) -> WeightField:
    folder_w = compute_folder_weights(tree, X, F, K_BINS)
    if not folder_w:
        # no folder reached the cohort minimum; all-zero field
        values = as_values(X)
        w = np.zeros_like(values)
        return WeightField(w, resolve_lam(w))
    return aggregate_point_weights(tree, folder_w, WEIGHT_ALPHA)


def _weight_change(prev: WeightField | None, new: WeightField) -> float:
    """Relative Frobenius change of the point weights; NaN on the first step."""
    if prev is None:
        return np.nan
    prev_norm = float(np.linalg.norm(prev.point_weights))
    diff_norm = float(np.linalg.norm(new.point_weights - prev.point_weights))
    return diff_norm / prev_norm if prev_norm > 0 else (0.0 if diff_norm == 0 else np.inf)


def fit_weighted_metric(X, F: CohortFunctional, config: RunConfig = RunConfig()) -> RegularizedMetric:
    """Run `config.max_iters` steps of tree -> weights -> weighted kernel -> embedding.

    Starts from the unweighted Gaussian diffusion embedding; step `it`
    (0-based) builds its tree with seed `config.seed + it`. The result holds
    the last step's tree, the weights computed on it, and the embedding and
    bandwidth of the weighted kernel those weights build, so the reference
    decomposition serves the same geometry as `embedding`. Each kernel is
    freed once embedded. `history` has one record per step.
    Of `config` it reads only `seed`, `dim` and `max_iters`: the cohort size
    is taken from F's own minimum cohort.
    """
    values = as_values(X)
    n = values.shape[0]
    if n < 2 * F.min_cohort:
        raise ValueError(
            f"need at least two valid cohorts: n={n} < 2c={2 * F.min_cohort}"
        )
    emb = spectral_embed(
        markov_normalize(gaussian_kernel(values)),
        t=DIFFUSION_TIME, d=config.dim,
    )
    W = tree = None
    history: list[IterationDiagnostics] = []
    for it in range(config.max_iters):
        del tree  # one tree at a time
        tree = build_topdown(emb, BRANCHING, fit_min_folder(n), config.seed + it)
        W_prev, W = W, compute_weight_field(values, F, tree)
        K = weighted_kernel(values, W)
        sigma = K.sigma
        emb = spectral_embed(markov_normalize(K), t=DIFFUSION_TIME, d=config.dim)
        del K  # one n x n kernel at a time
        history.append(
            IterationDiagnostics(
                weight_change=_weight_change(W_prev, W),
                sigma=sigma,
                lam=W.lam,
                top_eigenvalues=tuple(np.round(emb.eigenvalues[:4], 6)),
            )
        )
    return RegularizedMetric(
        embedding=emb,
        weights=W,
        tree=tree,
        cohort_size=cohort_neighborhood(n, F.min_cohort),
        sigma=sigma,
        history=tuple(history),
    )


def neighborhood_indices(coords: np.ndarray, centers: np.ndarray, k: int) -> list[np.ndarray]:
    """The k nearest coords of each row of the (q, d) `centers`, nearest
    first: q index arrays, a center's own row included when it is one of
    the coords. A k above the number of coords keeps them all.

    One pass over row blocks of centers: distances are pairwise sums of
    feature-major (rows, n) planes, equal bit for bit to
    np.linalg.norm(coords - center, axis=1) for each center. The k nearest
    are kept by argpartition, then ordered by a stable argsort.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"a cohort needs an integer k >= 1, got {k!r}")
    centers = np.asarray(centers, dtype=float)
    n, d = coords.shape
    if centers.ndim != 2 or centers.shape[1] != d:
        raise ValueError(f"centers must be (q, {d}) rows, got shape {centers.shape}")
    xt, ct = coords.T.copy(), centers.T.copy()  # (d, points): one row per coordinate
    k = min(k, n)
    out: list[np.ndarray] = []
    block = _rows_per_block(n, PLANE_DEPTH)
    for i0 in range(0, centers.shape[0], block):
        i1 = min(centers.shape[0], i0 + block)

        def term(y):
            t = np.subtract(xt[y][None, :], ct[y, i0:i1][:, None])
            return np.square(t, out=t)

        dist = np.sqrt(_pairwise_sum(term, 0, d))
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(dist, part, axis=1), axis=1, kind="stable")
        out.extend(np.take_along_axis(part, order, axis=1))
    return out


@dataclass(frozen=True)
class MultiscaleDecomposition:
    sizes: tuple  # nested cohort sizes, coarse to fine
    coefficients: tuple  # one per consecutive pair of sizes
    coarse_value: float


def multiscale_estimate(coords: np.ndarray, k: int, F: CohortFunctional,
                        i: int) -> MultiscaleDecomposition:
    """The filtration of point i's cohort among the rows of `coords`: nested
    kNN cohorts of sizes k, ceil(k/2), ceil(k/4), ... down to the last of at
    least F's c.

    All are prefixes of one ordered `neighborhood_indices` list of row i's k
    nearest rows, and coefficient j is F(first sizes[j+1]) - F(first
    sizes[j]), so the coefficients sum to F(finest) - coarse_value.
    `coarse_value` is F over the full k-cohort; with a model's `ref.coords`,
    `metric.cohort_size` and `predict`'s functional it is the estimate that
    `predict` serves at training point i. F raises CohortTooSmallError when
    k is below c.
    """
    order = neighborhood_indices(coords, coords[i:i + 1], k)[0]
    sizes = [order.size]
    while (half := -(-sizes[-1] // 2)) >= F.min_cohort and half < sizes[-1]:
        sizes.append(half)
    values = [F(order[:s]) for s in sizes]
    coeffs = tuple(fine - coarse for coarse, fine in zip(values, values[1:]))
    return MultiscaleDecomposition(tuple(sizes), coeffs, values[0])

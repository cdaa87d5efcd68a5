"""Function-driven feature weights and the regularized diffusion metric.

Folder-level feature weights score each feature's power to discriminate a
cohort functional F (size-weighted variance of F over value bins), decay-sum
to per-point diagonal metrics, and feed the locally weighted PSD kernel. The
fit runs a fixed number of steps of tree -> weights -> weighted kernel ->
embedding, and returns the last step's tree, weights and the embedding of the
kernel those weights build. The weighted kernel is summed from per-feature
planes, and `neighborhood_indices` answers a whole batch of centers in one
pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import NeighborhoodRule, RunConfig
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
from .tree import PartitionTree, build_bottomup, build_topdown

logger = logging.getLogger(__name__)


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
    alpha: float
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


@dataclass(frozen=True)
class RegularizedMetric:
    """Stable function-weighted embedding with its weight field and tree."""

    embedding: DiffusionEmbedding
    weights: WeightField
    tree: PartitionTree
    neighborhood: NeighborhoodRule
    sigma: float
    tau: float
    iterations: int
    history: tuple


def bin_feature(folder_points, X, feature: int, k_bins: int) -> list[Bin]:
    """Quantile-edge bins of one feature over a folder; empty bins dropped.

    Every folder point lands in exactly one bin; a constant feature gives a
    single bin.
    """
    pts = np.asarray(folder_points, dtype=int)
    if pts.size == 0:
        raise ValueError("folder is empty")
    if k_bins < 1:
        raise ValueError(f"k_bins must be >= 1, got {k_bins}")
    values = as_values(X)[pts, feature]
    edges = np.unique(np.quantile(values, np.arange(1, k_bins) / k_bins))
    assignment = np.searchsorted(edges, values, side="right")
    bins = []
    for b in np.unique(assignment):
        sel = pts[assignment == b]
        vals = values[assignment == b]
        bins.append(Bin(np.sort(sel), float(vals.min()), float(vals.max())))
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
    """Weights for every (level, folder, feature) with folder size >= c."""
    values = as_values(X)
    m = values.shape[1]
    out: dict = {}
    for level in range(1, tree.n_levels + 1):
        folders = tree.folders(level)
        if not any(len(pts) >= F.min_cohort for pts in folders):
            continue
        for fid, pts in enumerate(folders):
            if len(pts) < F.min_cohort:
                continue
            w = np.empty(m)
            for y in range(m):
                w[y] = folder_weight(bin_feature(pts, values, y, k_bins), F)
            out[(level, fid)] = w
    return out


def resolve_lam(point_weights: np.ndarray, lam: float | None) -> float:
    if lam is not None:
        return lam
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
    return WeightField(w, alpha, resolve_lam(w, lam))


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
    q = _assemble(len(idx), block, 0.0)
    nz = q[q > 0]
    return float(np.median(nz)) if nz.size else 1.0


def weighted_kernel(X, weights, sigma: float | None = None, tau: float = 0.0) -> AffinityMatrix:
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

    K = _assemble(n, block, tau)
    return AffinityMatrix(K, float(sigma), float(tau))


def compute_weight_field(X, F: CohortFunctional, tree: PartitionTree,
                         config: RunConfig) -> WeightField:
    folder_w = compute_folder_weights(tree, X, F, config.k_bins)
    if not folder_w:
        # no folder reached the cohort minimum; all-zero field
        values = as_values(X)
        w = np.zeros_like(values)
        return WeightField(w, config.weight_alpha, resolve_lam(w, config.weight_lam))
    return aggregate_point_weights(tree, folder_w, config.weight_alpha, config.weight_lam)


def _build_tree(emb: DiffusionEmbedding, config: RunConfig, n: int, seed: int) -> PartitionTree:
    if config.tree_method == "bottomup":
        eps = config.bottomup_eps
        if eps is None:
            coords = emb.coords
            span = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
            eps = 0.05 * span if span > 0 else 1.0
        return build_bottomup(emb, eps)
    return build_topdown(emb, config.branching, config.resolve_min_folder(n), seed)


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
    The default neighborhood is sized from F's own minimum cohort, not from
    `config.min_cohort`.
    """
    values = as_values(X)
    n = values.shape[0]
    if n < 2 * F.min_cohort:
        raise ValueError(
            f"need at least two valid cohorts: n={n} < 2c={2 * F.min_cohort}"
        )
    emb = spectral_embed(
        markov_normalize(gaussian_kernel(values, sigma=config.sigma0, tau=config.tau)),
        t=config.time, d=config.dim,
    )
    W = tree = None
    history: list[IterationDiagnostics] = []
    for it in range(config.max_iters):
        del tree  # one tree at a time
        tree = _build_tree(emb, config, n, config.seed + it)
        W_prev, W = W, compute_weight_field(values, F, tree, config)
        K = weighted_kernel(values, W, sigma=config.sigma_weighted, tau=config.tau)
        sigma = K.sigma
        emb = spectral_embed(markov_normalize(K), t=config.time, d=config.dim)
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
        neighborhood=config.resolve_neighborhood(n, F.min_cohort),
        sigma=sigma,
        tau=config.tau,
        iterations=config.max_iters,
        history=tuple(history),
    )


def neighborhood_indices(coords: np.ndarray, centers: np.ndarray,
                         rule: NeighborhoodRule) -> list[np.ndarray]:
    """Point indices inside the neighborhood of each row of the (q, d)
    `centers`: q index arrays, a center's own row included when it is one
    of the coords.

    One pass over row blocks of centers: distances are pairwise sums of
    feature-major (rows, n) planes, equal bit for bit to
    np.linalg.norm(coords - center, axis=1) for each center. knn keeps the k
    nearest by argpartition, then orders them by a stable argsort; radius
    keeps every point closer than eps, in index order.
    """
    centers = np.asarray(centers, dtype=float)
    n, d = coords.shape
    if centers.ndim != 2 or centers.shape[1] != d:
        raise ValueError(f"centers must be (q, {d}) rows, got shape {centers.shape}")
    xt, ct = coords.T.copy(), centers.T.copy()  # (d, points): one row per coordinate
    k = min(rule.k, n) if rule.kind == "knn" else 0
    out: list[np.ndarray] = []
    block = _rows_per_block(n, PLANE_DEPTH)
    for i0 in range(0, centers.shape[0], block):
        i1 = min(centers.shape[0], i0 + block)

        def term(y):
            t = np.subtract(xt[y][None, :], ct[y, i0:i1][:, None])
            return np.square(t, out=t)

        dist = np.sqrt(_pairwise_sum(term, 0, d))
        if rule.kind == "radius":
            inside = dist < rule.eps
            out.extend(np.split(np.nonzero(inside)[1], np.cumsum(inside.sum(axis=1))[:-1]))
            continue
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(dist, part, axis=1), axis=1, kind="stable")
        out.extend(np.take_along_axis(part, order, axis=1))
    return out


def pointwise_estimate(metric: RegularizedMetric, F: CohortFunctional, i: int,
                       eps: float | None = None) -> float:
    """F over the embedding neighborhood of training point i.

    Radius eps overrides the metric's neighborhood rule; too-small
    neighborhoods raise with the achieved size.
    """
    coords = metric.embedding.coords
    rule = NeighborhoodRule("radius", eps=eps) if eps is not None else metric.neighborhood
    nbhd = neighborhood_indices(coords, coords[i:i + 1], rule)[0]
    if nbhd.size < F.min_cohort:
        raise CohortTooSmallError(nbhd.size, F.min_cohort)
    return F(nbhd)


@dataclass(frozen=True)
class MultiscaleDecomposition:
    scales: tuple
    coefficients: tuple
    coarse_value: float
    truncated_at: float | None  # first scale whose eps/2 neighborhood was too small


def multiscale_estimate(metric: RegularizedMetric, F: CohortFunctional, i: int,
                        scales) -> MultiscaleDecomposition:
    """Detail coefficients F(N^{eps/2}) - F(N^{eps}) per scale.

    Each scale must be below the one before; scales whose half-radius neighborhood
    drops below the cohort minimum truncate the decomposition and are
    reported.
    """
    scales = [float(s) for s in scales]
    if any(b >= a for a, b in zip(scales, scales[1:])) or not scales:
        raise ValueError("scales must be nonempty, each below the one before")
    coords = metric.embedding.coords
    center = coords[i:i + 1]

    def ball(eps):
        return neighborhood_indices(coords, center, NeighborhoodRule("radius", eps=eps))[0]

    n_coarse = ball(scales[0])
    if n_coarse.size < F.min_cohort:
        raise CohortTooSmallError(n_coarse.size, F.min_cohort)
    coarse_value = F(n_coarse)
    used, coeffs = [], []
    truncated_at = None
    for eps in scales:
        half = ball(eps / 2)
        if half.size < F.min_cohort:
            truncated_at = eps
            break
        full = ball(eps)
        coeffs.append(F(half) - F(full))
        used.append(eps)
    return MultiscaleDecomposition(tuple(used), tuple(coeffs), coarse_value, truncated_at)

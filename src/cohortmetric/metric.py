"""Function-driven feature weights and the regularized diffusion metric.

`compute_weight_field` walks the tree's folders once, levels top down. A
folder's feature weights score each feature's power to discriminate a
cohort functional F (size-weighted variance of F over its quantile bins) and
are added, decayed by 2^{-l}, straight into its points' weights; the
locally weighted PSD kernel takes the field's W diagonals u, an (n, m)
array. F is evaluated only where a weight can be nonzero: a folder under 2c
points, or a feature left with one valid bin of at least c points, weighs 0
with no F call. The fit runs a fixed number of steps of tree -> weights ->
bandwidth, and returns the last step's tree, weights and bandwidth, which
the reference decomposition serves; no kernel follows the last weights. The
weighted kernel is the package's one kernel assembly, one matrix product per
block of a weight group's rows: the points whose W rows are equal bit for bit.

A point's neighbourhood is its cohort: the k = max(c, ceil(0.05 n)) nearest
of n reference points in the reference coordinates (`cohort_neighborhood`).
`neighborhood_indices` answers a whole batch of centers in one pass: it
ranks by the squared distance less the center's own term, one matrix
product per row block, so points within rounding of a tie may swap places
(and a cohort may differ with the batch's row count only at such a tie).
`multiscale_estimate` is the filtration of nested kNN cohorts inside one
point's cohort; on the reference coordinates its coarse value is the
estimate `predict` serves.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import RunConfig
from .data import as_values
from .diffusion import (
    PLANE_DEPTH,
    AffinityMatrix,
    _check_count,
    _grouped_kernel,
    _median_nonzero,
    _rows_per_block,
    gaussian_kernel,
    markov_normalize,
    spectral_embed,
)
from .survival import CohortError, CohortTooSmallError
from .tree import PartitionTree, build_topdown

logger = logging.getLogger(__name__)

# the fit's fixed choices: the 2^{-alpha l} decay of folder weights with
# level, the quantile bins per feature in a folder and the most points of
# the bandwidth's subsample; the diffusion time is 1
# (`DiffusionEmbedding.coords`) and the branching is `tree.BRANCHING`
WEIGHT_ALPHA = 1.0
K_BINS = 3
SCALE_SUBSAMPLE = 512


class CohortFunctional:
    """A functional F(E) defined only on index sets with at least c points.

    The wrapped callable receives a sorted integer index array and must be
    deterministic for a fixed subset. A min_cohort that is not an integer
    >= 1 is a ValueError.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], min_cohort: int):
        _check_count("min_cohort", min_cohort)
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
    """One fit step. `top_eigenvalues` belong to the embedding its tree split:
    the Gaussian kernel's at step 1, the previous step's kernel's after."""

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
    """A fit's last tree, with the weight field computed on it and their sigma."""

    weights: WeightField
    tree: PartitionTree
    cohort_size: int  # k nearest references per estimate
    sigma: float
    history: tuple  # one IterationDiagnostics per weight step

    @property
    def iterations(self) -> int:
        return len(self.history)


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

    Bins below F's minimum cohort are merged first, which reads only their
    sizes and value ranges. F is evaluated only where the weight can be
    nonzero: fewer than two merged bins of at least c points weigh 0 with no
    F call. Otherwise F is called once per merged bin, bins where it is
    undefined (a `CohortError`) are dropped, and no defined bin left means
    weight 0. A non-finite F value is a ValueError naming the bin's size.
    So a functional that breaks the `CohortFunctional` contract on a feature
    left with one valid bin, by returning NaN or raising an error other than
    `CohortError` there, is not called there and passes unnoticed.
    """
    merged = _merge_small_bins(bins, F.min_cohort)
    if len(merged) < 2:
        # at most one value of F: its variance is 0
        return 0.0
    # merging stopped with every bin at least c points
    sizes, values = [], []
    for b in merged:
        try:
            value = F(b.indices)
        except CohortError:
            continue
        if not math.isfinite(value):
            raise ValueError(f"F is {value} on a bin of {b.indices.size} points")
        values.append(value)
        sizes.append(b.indices.size)
    if not sizes:
        logger.info("F undefined on every bin after merging; folder weight set to 0")
        return 0.0
    sizes = np.asarray(sizes, dtype=float)
    # shifting by the first value keeps the (translation-invariant) weight
    # exactly zero for a constant functional
    values = np.asarray(values, dtype=float) - values[0]
    p = sizes / sizes.sum()
    fbar = float(p @ values)
    return float(p @ (values - fbar) ** 2)


def resolve_lam(point_weights: np.ndarray) -> float:
    """1e-3 times the median nonzero weight, or 1e-6 when every weight is 0."""
    nz = point_weights[point_weights > 0]
    if nz.size == 0:
        return 1e-6
    return 1e-3 * float(np.median(nz))


def compute_weight_field(X, F: CohortFunctional, tree: PartitionTree) -> WeightField:
    """The point weights of F over `tree`, with lam from `resolve_lam`:

        point_weights[i] = sum_l 2^{-alpha l} w^l_{folder(i, l)},

    a folder's row w holding each feature's `folder_weight` over its
    quantile bins. F is evaluated only where a weight can be nonzero. A
    folder under 2c points holds at most one bin of c points, so it weighs 0
    with no quantile, binning or F call. Each larger folder takes one
    `np.quantile` pass over all of its features, and `folder_weight` merges
    each feature's bins and calls F on the merged bins of each feature with
    at least two of them, folder by folder (levels top down) and feature by
    feature; each row is added into its points' weights in that order. A
    tree over a different number of points than X has rows is a ValueError.
    """
    values = as_values(X)
    if tree.n_points != values.shape[0]:
        raise ValueError(
            f"the tree holds {tree.n_points} points but X has {values.shape[0]} rows")
    probs = _bin_probs(K_BINS)
    w = np.zeros_like(values)
    for level in range(1, tree.n_levels + 1):
        decay = 2.0 ** (-WEIGHT_ALPHA * level)
        for pts in tree.folders(level):
            if len(pts) < 2 * F.min_cohort:
                continue
            vals = values[pts].T  # (m, folder): a feature per row
            edges = np.quantile(vals, probs, axis=1).T
            row = np.array([folder_weight(_bins(pts, v, e), F) for v, e in zip(vals, edges)])
            w[pts] += decay * row
    return WeightField(w, resolve_lam(w))


def _median_quadratic_scale(values: np.ndarray, u: np.ndarray) -> float:
    """Median nonzero weighted quadratic form on a subsample; bandwidth^2.

    q = sum_f (x_if - x_jf)^2 / (u_if + u_jf) is summed from per-feature
    (rows, cols) planes in feature order, over the strict upper triangle of
    the at most SCALE_SUBSAMPLE subsampled points only, so that a repeated
    point's form is exactly 0 and the median skips it. The full matrix holds each form
    twice, which leaves the median the same float. It keeps these planes
    rather than the kernels' matrix-product expansion, whose rounding would
    leave a repeated point's form a little off 0 and change sigma's bits.
    """
    n = values.shape[0]
    idx = np.unique(np.linspace(0, n - 1, min(n, SCALE_SUBSAMPLE)).astype(int))
    s = len(idx)
    vt, ut = values[idx].T.copy(), u[idx].T.copy()  # (m, s): feature-major
    q = np.empty(s * (s - 1) // 2)
    block = _rows_per_block(s, PLANE_DEPTH)
    at = 0
    for i0 in range(0, s, block):
        i1 = min(s, i0 + block)
        form = None
        for y in range(vt.shape[0]):
            t = np.subtract.outer(vt[y, i0:i1], vt[y, i0 + 1:])
            np.square(t, out=t)
            t /= np.add.outer(ut[y, i0:i1], ut[y, i0 + 1:])
            form = t if form is None else np.add(form, t, out=form)
        # row i0 + r keeps its columns after the diagonal: c >= r
        upper = form[~np.tri(*form.shape, -1, dtype=bool)]
        q[at:at + upper.size] = upper
        at += upper.size
    return _median_nonzero(q)


def weighted_kernel(X, u, sigma: float | None = None) -> AffinityMatrix:
    """Locally weighted PSD kernel

        exp(-(x_i-x_j)' (W_i + W_j)^{-1} (x_i-x_j) / sigma^2) / sqrt(det(W_i + W_j)),

    with diagonal W given as the (n, m) array u of its diagonals (a
    `WeightField`'s `inv_diag()`); sigma defaults to the root of
    `_median_quadratic_scale`, and one that is not finite and positive is a
    ValueError.

    `diffusion._grouped_kernel` assembles it one weight group at a time
    (the points whose u rows are equal bit for bit), one matrix product per
    block of a group's rows, clamped so that q >= 0. The log determinant is
    a sum of per-element logs, which cannot overflow, and K is symmetric bit
    for bit, with the diagonal exp(-1/2 sum_f log 2 u_if).

    Each entry's exponent is within (3m + 10) 2^-53 S of the formula's, with
    S = sum_f [(|x_if - mu_f| + |x_jf - mu_f|)^2 / (sigma^2 a_f)
    + 1/2 |log a_f| + 1], a = u_i + u_j and mu the mean point: the expansion
    cancels terms of that size, which centring keeps small. An entry's last
    bits may change with the row blocks. A fit has few groups: a folder
    under 2c points weighs 0, so the points under the same smallest folder
    of at least 2c points share a row (17-21 groups in fits at n = 1440 and
    2000). With every row distinct (generic u), each group is one row and
    one matrix-vector product, at 2-3.5 times the cost of summing
    per-feature planes: 92 against 41 ms at n=2000 and 21 against 6.3 ms at
    n=800 (m=9, one BLAS thread).
    """
    values = as_values(X)
    u = np.asarray(u, dtype=float)
    if u.shape != values.shape:
        raise ValueError(f"weight diagonals {u.shape} do not match data {values.shape}")
    if not (u > 0).all():  # NaN fails too
        raise ValueError("W_x diagonals must be positive")
    if sigma is None:
        sigma = float(np.sqrt(_median_quadratic_scale(values, u)))
    # the block temporaries are freed before the symmetry check
    return AffinityMatrix(_grouped_kernel(values, u, sigma), float(sigma))


def _weight_change(prev: WeightField | None, new: WeightField) -> float:
    """Relative Frobenius change of the point weights; NaN on the first step."""
    if prev is None:
        return np.nan
    prev_norm = float(np.linalg.norm(prev.point_weights))
    diff_norm = float(np.linalg.norm(new.point_weights - prev.point_weights))
    return diff_norm / prev_norm if prev_norm > 0 else (0.0 if diff_norm == 0 else np.inf)


def fit_weighted_metric(X, F: CohortFunctional, config: RunConfig = RunConfig()) -> RegularizedMetric:
    """Run `config.max_iters` steps of tree -> weights -> bandwidth.

    Starts from the unweighted Gaussian diffusion embedding, and draws no
    random numbers: each step's tree depends on its embedding alone. Only a
    step that another follows embeds the weighted kernel of its weights, for
    the next tree. The result holds the last step's tree, the weights
    computed on it and their bandwidth (`weighted_kernel`'s default sigma).
    Each kernel is freed once embedded. `history` has one record per step.
    Of `config` it reads only `dim` and `max_iters`: the cohort size is
    taken from F's own minimum cohort.
    """
    values = as_values(X)
    n = values.shape[0]
    if n < 2 * F.min_cohort:
        raise ValueError(
            f"need at least two valid cohorts: n={n} < 2c={2 * F.min_cohort}"
        )
    emb = spectral_embed(markov_normalize(gaussian_kernel(values)), d=config.dim)
    W = tree = None
    history: list[IterationDiagnostics] = []
    for step in range(1, config.max_iters + 1):
        del tree  # one tree at a time
        # split every folder of at least 2c points: the weight field reads no smaller one
        tree = build_topdown(emb, 2 * F.min_cohort - 1)
        W_prev, W = W, compute_weight_field(values, F, tree)
        u = W.inv_diag()
        sigma = float(np.sqrt(_median_quadratic_scale(values, u)))
        history.append(
            IterationDiagnostics(
                weight_change=_weight_change(W_prev, W),
                sigma=sigma,
                lam=W.lam,
                top_eigenvalues=tuple(np.round(emb.eigenvalues[:4], 6)),
            )
        )
        if step < config.max_iters:  # the next step's tree splits this embedding
            K = weighted_kernel(values, u, sigma)
            emb = spectral_embed(markov_normalize(K), d=config.dim)
            del K  # one n x n kernel at a time
    return RegularizedMetric(
        weights=W,
        tree=tree,
        cohort_size=cohort_neighborhood(n, F.min_cohort),
        sigma=sigma,
        history=tuple(history),
    )


def neighborhood_indices(coords: np.ndarray, centers: np.ndarray, k: int) -> list[np.ndarray]:
    """The k nearest coords of each row of the (q, d) `centers`, nearest
    first: q index arrays, a center's own row included when it is one of
    the coords. A k above the number of coords keeps them all. Non-finite
    coords or centers are a ValueError.

    The coords x are ranked for a center c by

        q(c, x) = |x - c|^2 - |c - mu|^2 = |x - mu|^2 - 2 (c - mu) . (x - mu),

    with mu the mean of the coords: q orders the coords as the distance
    does, centring keeps its cancellation small, and each row block of
    centers is one matrix product of [c - mu, 1] with
    [-2 (x - mu)'; |x - mu|^2]. No square root is taken. The k smallest are
    kept by argpartition, then ordered by a stable argsort. q is exact to a
    few units in the last place of |x - mu|^2 + 2 |c - mu| |x - mu|, so
    points whose distances tie within that may swap places, and only at such
    a tie may a center's cohort differ with the number of rows in its batch
    (a one-row batch runs a matrix-vector product).
    """
    _check_count("k", k)
    coords = np.asarray(coords, dtype=float)
    centers = np.asarray(centers, dtype=float)
    n, d = coords.shape
    if centers.ndim != 2 or centers.shape[1] != d:
        raise ValueError(f"centers must be (q, {d}) rows, got shape {centers.shape}")
    if not (np.isfinite(coords).all() and np.isfinite(centers).all()):
        raise ValueError("coords and centers must be finite")
    xt = coords.T.copy()  # (d, n): one row per coordinate
    mean = xt.mean(axis=1)
    xt -= mean[:, None]
    right = np.vstack([-2.0 * xt, np.einsum("ij,ij->j", xt, xt)])
    left = np.hstack([centers - mean, np.ones((centers.shape[0], 1))])
    k = min(k, n)
    out: list[np.ndarray] = []
    block = _rows_per_block(n, PLANE_DEPTH)
    for i0 in range(0, left.shape[0], block):
        q = left[i0:i0 + block] @ right
        part = np.argpartition(q, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(q, part, axis=1), axis=1, kind="stable")
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
    `predict` serves at training point i, up to the near-ties of
    `neighborhood_indices`. F raises CohortTooSmallError when k is below c;
    an i that is not an integer in 0..n-1 is a ValueError.
    """
    n = len(coords)
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
        raise ValueError(f"i must be an integer row of the {n} coords, got {i!r}")
    order = neighborhood_indices(coords, coords[i:i + 1], k)[0]
    sizes = [order.size]
    while (half := -(-sizes[-1] // 2)) >= F.min_cohort and half < sizes[-1]:
        sizes.append(half)
    values = [F(order[:s]) for s in sizes]
    coeffs = tuple(fine - coarse for coarse, fine in zip(values, values[1:]))
    return MultiscaleDecomposition(tuple(sizes), coeffs, values[0])

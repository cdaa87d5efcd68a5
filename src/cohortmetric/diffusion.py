"""The Gaussian kernel, Markov normalization, and the diffusion embedding.

Pipeline: kernel -> row-stochastic operator P (with its symmetric conjugate
S = D^{-1/2} K D^{-1/2}) -> top eigenpairs of S, back-transformed to the right
eigenvectors of P -> embedding coordinates lambda_k * phi_k.

Also the package's one kernel assembly and its shared kernel plumbing. A
kernel's exponent is the row side [x o x, x, 1] times the column side that
`_expansion` builds, clamped at q = 0 and exponentiated in place
(`_clamped_exp`). `_grouped_kernel` assembles the symmetric kernels one
weight group at a time: `metric.weighted_kernel`, and the Gaussian kernel as
its one-group case; `extension.asymmetric_kernel` takes the same expansion
with the row side's W at 0. The plumbing: row blocks (`_rows_per_block`),
memory-mapped n x n buffers and the median of nonzero entries that both
bandwidths take (`_median_nonzero`).
"""

from __future__ import annotations

import logging
import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial.distance import pdist

from .data import as_values

logger = logging.getLogger(__name__)


class EigensolverError(RuntimeError):
    """Eigendecomposition failed; carries solver diagnostics."""


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative affinity matrix with its bandwidth."""

    entries: np.ndarray  # dense (n, n)
    sigma: float

    def __post_init__(self):
        K = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", K)
        max_asym = _max_asymmetry(K)
        min_entry = K.min()
        diag = np.diagonal(K)
        # each test is written so that NaN fails it
        if not max_asym <= 1e-12:
            raise ValueError(f"affinity matrix asymmetric or not finite: "
                             f"max |K - K^T| = {max_asym:.3g}")
        if not min_entry >= 0:
            raise ValueError(f"negative or NaN affinity entries (min {min_entry:.3g})")
        if not (diag > 0).all():
            bad = np.flatnonzero(~(diag > 0))
            raise ValueError(f"non-positive diagonal at points {bad[:10].tolist()}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class MarkovOperator:
    """Symmetric conjugate S = D^{-1/2} K D^{-1/2} of P = D^{-1} K, with D."""

    S: np.ndarray
    row_sums: np.ndarray

    @property
    def n(self) -> int:
        return self.row_sums.shape[0]


@dataclass(frozen=True)
class DiffusionEmbedding:
    """Top eigenpairs of the diffusion operator.

    eigenvalues[0] is the trivial eigenvalue 1; coordinates use components
    1..d scaled by their eigenvalues (diffusion time t = 1).
    """

    eigenvalues: np.ndarray  # (d+1,) descending
    eigenvectors: np.ndarray  # (n, d+1) right eigenvectors of P
    d: int

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        if vals.shape != (self.d + 1,) or vecs.ndim != 2 or vecs.shape[1] != self.d + 1:
            raise ValueError(f"d={self.d} needs {self.d + 1} eigenpairs, got eigenvalues of "
                             f"shape {vals.shape} and eigenvectors of shape {vecs.shape}")
        # the tree sorts points by their projections, and a NaN would sort
        # into a folder of its own, so the coordinates must be finite
        if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
            raise ValueError("eigenvalues and eigenvectors must be finite")
        if abs(vals[0] - 1.0) > 1e-8:
            raise ValueError(f"top eigenvalue {vals[0]} is not 1")
        if np.any(np.abs(vals) > 1 + 1e-8):
            raise ValueError(f"spectrum outside [-1, 1]: {vals}")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """Embedding coordinates lambda_k phi_k, k = 1..d, shape (n, d)."""
        return self.eigenvectors[:, 1:] * self.eigenvalues[None, 1:]


# the most points whose pairwise distances give the Gaussian bandwidth's median
BANDWIDTH_SUBSAMPLE = 2000


def median_bandwidth(X) -> float:
    """Median of the nonzero pairwise distances, on a subsample for large n.

    Each pair is counted once: the full distance matrix holds every nonzero
    distance twice, which leaves the median the same float."""
    values = as_values(X)
    n = values.shape[0]
    if n > BANDWIDTH_SUBSAMPLE:
        idx = np.unique(np.linspace(0, n - 1, BANDWIDTH_SUBSAMPLE).astype(int))
        values = values[idx]
    n = len(values)
    return _median_nonzero(pdist(values, out=_empty_mapped((n * (n - 1) // 2,))))


def _median_nonzero(d: np.ndarray) -> float:
    """The median of the nonzero entries of the nonnegative d, as np.median
    takes it, from one partition of d in place; 1.0 when every entry is 0."""
    # the zeros sort first: the median of the rest
    zeros = d.size - np.count_nonzero(d)
    size = d.size - zeros
    if size == 0:
        return 1.0
    mid = [zeros + (size - 1) // 2, zeros + size // 2]
    d.partition(mid)
    return float(np.mean(d[mid]))


def _rows_per_block(n_cols: int, m: int) -> int:
    """Rows per block so that m (rows, n_cols) float planes hold at most
    2^21 floats (16 MB) together; at least one row."""
    return max(1, (1 << 21) // max(n_cols * m, 1))


# `_max_asymmetry` keeps blocks of 2^21 floats, though its 16 MB
# temporaries add to the fit's peak, and they are the only temporaries that
# large that a fit frees (S is symmetric by construction). When it and a
# since-deleted symmetrization of S took blocks of 2^16 floats, a sphere fit
# at n=2000 (m=9, one BLAS thread) peaked at 142 MiB instead of 159 MiB.
# Freeing a temporary that large is what raises glibc's dynamic mmap
# and trim thresholds; without it every 0.3-0.5 MB temporary of the tree and
# the kernels page-faults afresh: in a traced serve-sphere run (seed 911,
# 10 s) the smaller blocks made `build_topdown` 18% and `weighted_kernel` 20%
# slower, and 18% fewer prediction batches were served. Fixing the two
# thresholds (MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_) restored the
# speed.


# Kernel blocks take their rows as if 32 planes deep, so that a (rows, cols)
# block holds about 2^16 floats (512 KB). At n=2000, m=9, one BLAS thread,
# the weighted kernel of a sphere fit's weights (21 groups, AMD EPYC) took
# 22.6-24 ms with blocks of 2^16 floats, 24-25 ms with 2^14, 25-26 ms with
# 2^18 and 26.5-31 ms with 2^20. The entries of the Gaussian kernel of a
# sphere trial (one group, Intel Xeon) took 39-42 ms with 2^16, 48-50 ms
# with 2^14, 44-45 ms with 2^18, 52 ms with 2^20 and 67 ms with 2^21.
PLANE_DEPTH = 32


# Arrays of at least this many bytes get their own anonymous memory map.
MAPPED_MIN_BYTES = 1 << 20


def _empty_mapped(shape) -> np.ndarray:
    """Uninitialised float array; from MAPPED_MIN_BYTES up in its own
    anonymous memory map, which is unmapped when the array is freed.

    The fit's n x n kernels (each Markov operator S is built in its
    kernel's buffer), the reference kernel A and the extension's kernel
    rows, A'A on the dense paths of the reference decomposition, and the
    pairwise buffers of the two bandwidth medians come from here. On the
    malloc heap (glibc serves an n=2000 kernel from it once its dynamic mmap
    threshold has risen) the space a freed kernel leaves stays resident
    whenever a later small allocation lands above it, and whether one does
    changes from one process to the next: the serve-sphere peak RSS took 211
    or 236 MB at random. A mapped array gives its pages back as soon as it
    is freed.
    """
    nbytes = 8 * int(np.prod(shape))
    if nbytes < MAPPED_MIN_BYTES:
        return np.empty(shape)
    # private, as malloc's own maps are: not shared with a forked child
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE), dtype=float).reshape(shape)


def _max_asymmetry(K: np.ndarray) -> float:
    """max |K - K^T|, over upper row blocks of at most 2^21 entries."""
    n = K.shape[0]
    block = _rows_per_block(n, 1)
    maxima = []
    for i0 in range(0, n, block):
        D = K[i0:i0 + block, i0:] - K[i0:, i0:i0 + block].T
        maxima.append(np.abs(D, out=D).max())
    return np.max(maxima) if maxima else 0.0


def gaussian_kernel(X, sigma: float | None = None) -> AffinityMatrix:
    """Gaussian affinities exp(-||x_i - x_j||^2 / (2 sigma^2)).

    sigma defaults to the median nonzero pairwise distance. It is the
    weighted kernel at u = 1/2 and bandwidth sqrt(2) sigma, one weight group
    with a = 1: the log determinant is exactly 0, the diagonal exactly 1,
    and each exponent within the bound `metric.weighted_kernel` states.
    """
    values = as_values(X)
    if sigma is None:
        sigma = median_bandwidth(values)
    K = _grouped_kernel(values, np.full(values.shape, 0.5), np.sqrt(2.0) * sigma)
    return AffinityMatrix(K, float(sigma))


def _weight_groups(u: np.ndarray) -> list[np.ndarray]:
    """The rows of u, grouped by W diagonal row equal bit for bit; each
    group's rows ascending."""
    rows = np.ascontiguousarray(u).view(np.dtype((np.void, u.itemsize * u.shape[1]))).ravel()
    _, group = np.unique(rows, return_inverse=True)
    order = np.argsort(group, kind="stable")
    return np.split(order, np.cumsum(np.bincount(group))[:-1])


def _expansion(xt: np.ndarray, a: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of the exponent -q / sigma^2 - 1/2 sum_f log a_f,
    q = sum_f (x_f - xt_f)^2 / a_f, and its value at q = 0 (the bound).

    For centred columns xt and a = W_row + W_col, both (m, cols), and
    w = 1 / (sigma^2 a), a row x's exponent is [x o x, x, 1] times
    [-w; 2 xt o w; bound - sum_f xt_f^2 w_f], bound = -1/2 sum_f log a_f.
    A sigma that is not finite and positive is a ValueError.
    """
    if not 0 < sigma < np.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    w = np.reciprocal(a * sigma**2)
    bound = -0.5 * np.log(a).sum(axis=0)
    xw = xt * w
    return np.vstack([-w, 2.0 * xw, bound - (xt * xw).sum(axis=0)]), bound


def _clamped_exp(B: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """exp of the exponents B in place, clamped at each column's bound (q >= 0)."""
    np.minimum(B, bound, out=B)
    return np.exp(B, out=B)


def _grouped_kernel(values: np.ndarray, u: np.ndarray, sigma: float) -> np.ndarray:
    """The kernel entries of `metric.weighted_kernel`, for W diagonals u. A
    row of weight group g has a = u_g + u_j, which depends on the column
    only, so the group's `_expansion` is built once, on x centred on its
    mean, and each block of `_rows_per_block(n, PLANE_DEPTH)` of its rows is
    one matrix product with it, over the columns from the block's first row
    on. The upper triangle is mirrored and the diagonal set from its closed
    form."""
    n = values.shape[0]
    xc = values - values.mean(axis=0)
    lead = np.hstack([xc * xc, xc, np.ones((n, 1))])  # the row side of the exponent
    xt, ut = xc.T.copy(), u.T.copy()  # (m, n): one contiguous row per feature
    K = _empty_mapped((n, n))
    block = _rows_per_block(n, PLANE_DEPTH)
    buf = np.empty(block * n)
    for rows in _weight_groups(u):
        j0 = rows[0]  # the group's columns: from its first row on
        coef, bound = _expansion(xt[:, j0:], ut[:, j0:] + ut[:, j0, None], sigma)
        for k0 in range(0, rows.size, block):
            chunk = rows[k0:k0 + block]
            c0 = chunk[0] - j0  # the block's columns: from its first row on
            B = buf[:chunk.size * (coef.shape[1] - c0)].reshape(chunk.size, -1)
            np.matmul(lead[chunk], coef[:, c0:], out=B)
            K[chunk, j0 + c0:] = _clamped_exp(B, bound[c0:])
    _mirror_upper(K)
    np.fill_diagonal(K, np.exp(-0.5 * np.log(2.0 * ut).sum(axis=0)))
    return K


def _mirror_upper(K: np.ndarray) -> None:
    """K's strict lower triangle <- its strict upper, in place, one block of
    `_rows_per_block(n, PLANE_DEPTH)` rows at a time."""
    n = K.shape[0]
    block = _rows_per_block(n, PLANE_DEPTH)
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        K[i0:i1, :i0] = K[:i0, i0:i1].T
        D = K[i0:i1, i0:i1]
        D[...] = np.triu(D) + np.triu(D, 1).T


def markov_normalize(K: AffinityMatrix) -> MarkovOperator:
    """Build S = D^{-1/2} K D^{-1/2}; P = D^{-1} K is never formed.

    Each entry is scaled once, by s_i s_j with s = D^{-1/2}, one block of
    `_rows_per_block(n, PLANE_DEPTH)` rows at a time; s_i s_j and s_j s_i
    are the same float, so S is exactly symmetric when K is.
    K is consumed: S is built in K's own buffer, so that the fit holds one
    n x n array here, and `K.entries` holds S afterwards.
    """
    A = K.entries
    d = A.sum(axis=1)
    if np.any(d <= 0):
        bad = np.where(d <= 0)[0]
        raise ValueError(f"isolated points with zero affinity row sums: {bad[:10].tolist()}")
    s = 1.0 / np.sqrt(d)
    block = _rows_per_block(len(s), PLANE_DEPTH)
    for i0 in range(0, len(s), block):
        A[i0:i0 + block] *= np.multiply.outer(s[i0:i0 + block], s)
    return MarkovOperator(A, d)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """A copy of vecs with each column negated where its largest-magnitude
    entry, the first on ties, is negative. The copy is C-ordered whatever
    the layout of vecs (eigensolvers return Fortran order): a saved model
    loads C-ordered, and products on it keep their bits only in the layout
    the fitted model had."""
    out = vecs.copy()
    out *= np.where(out[np.abs(out).argmax(axis=0), np.arange(out.shape[1])] < 0, -1.0, 1.0)
    return out


def _check_count(name: str, value, least: int = 1) -> None:
    """ValueError naming `name` unless value is an integer >= least, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _top_eigenpairs(M, k: int, dense=None):
    """Top k eigenpairs of symmetric M, descending; the package's one solver.

    M is an array, or an operator that ARPACK reaches only through its
    products (a `LinearOperator`) with `dense()` building it as an array.
    ARPACK runs whenever k < n - 1; the dense subset `eigh` runs for k >= n - 1
    and when ARPACK does not converge. Ties keep the solver's order.
    """
    n = M.shape[0]
    vals = None
    if k < n - 1:
        v0 = 1.0 + 1e-3 * np.cos(np.arange(n))
        v0 /= np.linalg.norm(v0)
        try:
            vals, vecs = eigsh(M, k=k, which="LA", v0=v0)
        except ArpackNoConvergence as exc:
            logger.warning("ARPACK converged %d/%d eigenpairs at n=%d; using dense eigh",
                           len(exc.eigenvalues), k, n)
    if vals is None:
        vals, vecs = eigh(M if dense is None else dense(), subset_by_index=[n - k, n - 1])
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def spectral_embed(op: MarkovOperator, d: int = 5) -> DiffusionEmbedding:
    """Top d+1 eigenpairs of the symmetric conjugate, back-transformed to P.

    Only the top d+1 pairs of S are computed, then phi = D^{-1/2} psi. Signs
    are fixed so each eigenvector's largest-magnitude entry is positive.
    """
    n = op.n
    _check_count("d", d)
    if not d < n:
        raise ValueError(f"need 0 < d < n, got d={d}, n={n}")
    vals, vecs = _top_eigenpairs(op.S, d + 1)
    gaps = np.diff(vals)
    if np.any(np.abs(gaps) < 1e-12):
        logger.warning("degenerate eigenvalue pairs in the top spectrum: %s", vals)
    if np.max(np.abs(vals)) > 1 + 1e-8 or abs(vals[0] - 1.0) > 1e-8:
        raise EigensolverError(f"spectrum violates Markov bounds: top values {vals[:3]}")
    vals = np.clip(vals, -1.0, 1.0)
    phi = _fix_signs(vecs / np.sqrt(op.row_sums)[:, None])
    return DiffusionEmbedding(vals, phi, int(d))


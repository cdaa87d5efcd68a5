"""The Gaussian kernel, Markov normalization, and the diffusion embedding.

Pipeline: kernel -> row-stochastic operator P (with its symmetric conjugate
S = D^{-1/2} K D^{-1/2}) -> top eigenpairs of S, back-transformed to the right
eigenvectors of P -> embedding coordinates lambda_k^t * phi_k. The fit's
other kernels are `metric.weighted_kernel` and the reference kernel
`extension.asymmetric_kernel`.

Also the package's shared kernel plumbing: row blocks (`_rows_per_block`)
and memory-mapped n x n buffers. The weighted kernel adds its per-feature
planes as a running sum in feature order, so it equals its dense formula
summed over the first axis of a C-contiguous feature-first stack bit for
bit. The reference kernel separates into matrix products, one per row
block, and agrees with its formula to about 1e-14 relative.
"""

from __future__ import annotations

import logging
import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial.distance import cdist, pdist

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
    """Top eigenpairs of the diffusion operator plus the diffusion time.

    eigenvalues[0] is the trivial eigenvalue 1; coordinates use components
    1..d scaled by eigenvalue^t.
    """

    eigenvalues: np.ndarray  # (d+1,) descending
    eigenvectors: np.ndarray  # (n, d+1) right eigenvectors of P
    t: float
    d: int

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        if vals.shape != (self.d + 1,) or vecs.ndim != 2 or vecs.shape[1] != self.d + 1:
            raise ValueError(f"d={self.d} needs {self.d + 1} eigenpairs, got eigenvalues of "
                             f"shape {vals.shape} and eigenvectors of shape {vecs.shape}")
        # the tree's k-means labels are argmin's only on finite distances,
        # so the coordinates must be finite
        if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
            raise ValueError("eigenvalues and eigenvectors must be finite")
        if not 0 < self.t < np.inf:
            raise ValueError(f"diffusion time must be finite and positive, got {self.t}")
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
        """Embedding coordinates lambda_k^t phi_k, k = 1..d, shape (n, d)."""
        lam = self.eigenvalues[1:]
        scale = np.sign(lam) * np.abs(lam) ** self.t  # real-valued power for any sign
        return self.eigenvectors[:, 1:] * scale[None, :]


def median_bandwidth(X, subsample: int = 2000) -> float:
    """Median of the nonzero pairwise distances, on a subsample for large n.

    Each pair is counted once: the full distance matrix holds every nonzero
    distance twice, which leaves the median the same float."""
    values = as_values(X)
    n = values.shape[0]
    if n > subsample:
        idx = np.unique(np.linspace(0, n - 1, subsample).astype(int))
        values = values[idx]
    n = len(values)
    d = pdist(values, out=_empty_mapped((n * (n - 1) // 2,)))
    # the zero distances sort first: the median of the rest, as np.median
    # takes it, from one partition in place
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


# `_max_asymmetry` and `_symmetrize` keep blocks of 2^21 floats, though their
# 16 MB temporaries add to the fit's peak: a sphere fit at n=2000 (m=9, one
# BLAS thread) peaks at 159 MiB with them and at 142 MiB with blocks of 2^16
# floats. Freeing a temporary that large is what raises glibc's dynamic mmap
# and trim thresholds; without it every 0.3-0.5 MB temporary of the tree and
# the kernels page-faults afresh: in a traced serve-sphere run (seed 911,
# 10 s) the smaller blocks made `build_topdown` 18% and `weighted_kernel` 20%
# slower, and 18% fewer prediction batches were served. Fixing the two
# thresholds (MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_) restored the
# speed.


# Kernel blocks take their rows as if 32 planes deep, so that a (rows, cols)
# plane holds about 2^16 floats (512 KB): at n=2000, m=9, one BLAS thread,
# the weighted kernel took 45 ms with planes of 2^16 floats, 48 ms with 2^18
# and 55 ms with 2^14, and the Gaussian kernel 21 ms with 2^16 and 27 ms
# with 2^21.
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


def _symmetrize(S: np.ndarray) -> None:
    """S <- 0.5 * (S + S^T) in place, one upper row block at a time."""
    n = S.shape[0]
    block = _rows_per_block(n, 1)
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        B = S[i0:i1, i0:] + S[i0:, i0:i1].T
        B *= 0.5
        S[i0:i1, i0:] = B
        S[i1:, i0:i1] = B[:, i1 - i0:].T


def _assemble(n, row_block_fn):
    """Assemble a dense symmetric kernel from a row-block function.

    row_block_fn(i0, i1, j0) must return dense rows [i0, i1) against columns
    [j0, n); only these upper-triangular blocks are computed and mirrored.
    Blocks take `_rows_per_block(n, PLANE_DEPTH)` rows, so that each
    (rows, cols) plane holds about 2^16 floats.
    """
    K = _empty_mapped((n, n))
    block = _rows_per_block(n, PLANE_DEPTH)
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        B = row_block_fn(i0, i1, i0)
        K[i0:i1, i0:] = B
        K[i0:, i0:i1] = B.T
    return K


def gaussian_kernel(X, sigma: float | None = None) -> AffinityMatrix:
    """Gaussian affinities exp(-||x_i - x_j||^2 / (2 sigma^2)).

    sigma defaults to the median nonzero pairwise distance.
    """
    values = as_values(X)
    if sigma is None:
        sigma = median_bandwidth(values)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    n = values.shape[0]

    def block(i0, i1, j0):
        d2 = cdist(values[i0:i1], values[j0:], "sqeuclidean")
        return np.exp(-d2 / (2.0 * sigma**2))

    K = _assemble(n, block)
    np.fill_diagonal(K, 1.0)
    return AffinityMatrix(K, float(sigma))


def markov_normalize(K: AffinityMatrix) -> MarkovOperator:
    """Build S = D^{-1/2} K D^{-1/2}; P = D^{-1} K is never formed.

    K is consumed: S is built in K's own buffer, so that the fit holds one
    n x n array here, and `K.entries` holds S afterwards.
    """
    A = K.entries
    d = A.sum(axis=1)
    if np.any(d <= 0):
        bad = np.where(d <= 0)[0]
        raise ValueError(f"isolated points with zero affinity row sums: {bad[:10].tolist()}")
    inv_sqrt = 1.0 / np.sqrt(d)
    A *= inv_sqrt[:, None]
    A *= inv_sqrt[None, :]
    _symmetrize(A)
    return MarkovOperator(A, d)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


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


def spectral_embed(op: MarkovOperator, t: float = 1.0, d: int = 5) -> DiffusionEmbedding:
    """Top d+1 eigenpairs of the symmetric conjugate, back-transformed to P.

    Only the top d+1 pairs of S are computed, then phi = D^{-1/2} psi. Signs
    are fixed so each eigenvector's largest-magnitude entry is positive.
    """
    n = op.n
    if not (0 < d < n):
        raise ValueError(f"need 0 < d < n, got d={d}, n={n}")
    if t <= 0:
        raise ValueError(f"diffusion time must be positive, got {t}")
    vals, vecs = _top_eigenpairs(op.S, d + 1)
    gaps = np.diff(vals)
    if np.any(np.abs(gaps) < 1e-12):
        logger.warning("degenerate eigenvalue pairs in the top spectrum: %s", vals)
    if np.max(np.abs(vals)) > 1 + 1e-8 or abs(vals[0] - 1.0) > 1e-8:
        raise EigensolverError(f"spectrum violates Markov bounds: top values {vals[:3]}")
    vals = np.clip(vals, -1.0, 1.0)
    phi = _fix_signs(vecs / np.sqrt(op.row_sums)[:, None])
    return DiffusionEmbedding(vals, phi, float(t), int(d))


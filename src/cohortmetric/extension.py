"""Reference-set extension of the weighted embedding to unseen points.

The asymmetric kernel against the training (reference) points is normalized
on both sides, only the top eigenpairs of its Gram matrix A'A are computed,
and new points embed through their normalized kernel rows. Test points never
touch the weights or each other. The kernel is built feature-major, one
(rows, n_ref) plane per feature, and a batch's rows are normalized in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, as_values
from .diffusion import (
    PLANE_DEPTH,
    _empty_mapped,
    _fix_signs,
    _pairwise_sum,
    _rows_per_block,
    _symmetrize,
    _top_eigenpairs,
)
from .metric import RegularizedMetric, WeightField

SINGULAR_CUTOFF = 1e-10


def _as_rows(Z) -> np.ndarray:
    """DataMatrix, 2-d array, or a single 1-d point, as validated (k, m) rows."""
    return as_values(Z if isinstance(Z, DataMatrix) else np.atleast_2d(Z))


class OutOfSupportError(ValueError):
    """The point has no affinity to any reference point at the threshold."""


@dataclass(frozen=True)
class ReferenceEmbedding:
    """Frozen decomposition of the normalized asymmetric reference kernel."""

    x_ref: np.ndarray  # reference points (n_ref, m)
    inv_diag: np.ndarray  # W_x diagonals of the references (n_ref, m)
    sigma: float
    tau: float
    psi: np.ndarray  # right singular vectors of A (n_ref, r)
    singular_values: np.ndarray  # descending, cutoff applied (r,)
    d2: np.ndarray  # frozen column normalizer (n_ref,)
    coords: np.ndarray  # reference embedding A psi (n_ref, r)

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        if np.any(s < 0) or np.any(np.diff(s) > 1e-12):
            raise ValueError("singular values must be nonnegative and descending")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not np.all(self.d2 > 0):
            raise ValueError("column normalizer must be positive")

    @property
    def n_ref(self) -> int:
        return self.x_ref.shape[0]

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]


def asymmetric_kernel(Z, x_ref, weights, sigma: float, tau: float = 0.0) -> np.ndarray:
    """One-sided weighted kernel rows:

        k(z, x) = exp(-(z-x)' W_x^{-1} (z-x) / sigma^2) / sqrt(det(W_x)),

    rows indexed by the stacked points Z, columns by the reference points.
    Only the reference point's weights enter; determinants go through logs.
    The quadratic form is a pairwise sum of per-feature (rows, n_ref)
    planes, equal bit for bit to the sum over a (rows, n_ref, m) array.
    """
    Zv = _as_rows(Z)
    Xr = as_values(x_ref)
    u = weights.inv_diag() if isinstance(weights, WeightField) else np.asarray(weights, dtype=float)
    if u.shape != Xr.shape:
        raise ValueError(f"weights {u.shape} do not match reference {Xr.shape}")
    if np.any(u <= 0):
        raise ValueError("W_x diagonals must be positive")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    half_logdet = 0.5 * np.log(u).sum(axis=1)  # log sqrt(det W_x)
    # feature-major (m, points) copies: one (rows, n_ref) plane per feature
    zt, xt, w_inv = Zv.T.copy(), Xr.T.copy(), (1.0 / u).T.copy()
    out = _empty_mapped((Zv.shape[0], Xr.shape[0]))
    block = _rows_per_block(Xr.shape[0], PLANE_DEPTH)
    for i0 in range(0, Zv.shape[0], block):
        i1 = min(Zv.shape[0], i0 + block)

        def term(y):
            t = np.subtract.outer(zt[y, i0:i1], xt[y])
            np.square(t, out=t)
            t *= w_inv[y]
            return t

        # exp(-q / sigma**2 - half_logdet), in place
        q = _pairwise_sum(term, 0, Xr.shape[1])
        np.negative(q, out=q)
        q /= sigma**2
        q -= half_logdet
        np.exp(q, out=out[i0:i1])
    if tau > 0:
        out = np.where(out >= tau, out, 0.0)
    return out


def build_reference(x_ref, weights, sigma: float, tau: float = 0.0,
                    n_components: int | None = None) -> ReferenceEmbedding:
    """Decompose the normalized asymmetric kernel of the reference set.

    A = D1^{-1/2} K D2^{-1/2}; the top n_components (all when None) eigenpairs
    of A'A = Psi Sigma^2 Psi' give the right singular vectors, and the
    reference embedding is A Psi.
    Singular values below 1e-10 of the maximum are discarded.
    """
    Xr = as_values(x_ref)
    if Xr.shape[0] < 2:
        raise ValueError("need at least two reference points")
    A = asymmetric_kernel(Xr, Xr, weights, sigma, tau)  # K, normalized in place below
    d1 = A.sum(axis=1)
    d2 = A.sum(axis=0)
    if np.any(d1 <= 0):
        bad = np.where(d1 <= 0)[0]
        raise ValueError(f"zero kernel row sums at reference points {bad[:10].tolist()}")
    if np.any(d2 <= 0):
        bad = np.where(d2 <= 0)[0]
        raise ValueError(f"zero kernel column sums at reference points {bad[:10].tolist()}")
    A /= np.sqrt(d1)[:, None]
    A /= np.sqrt(d2)[None, :]
    gram = np.matmul(A.T, A, out=_empty_mapped((A.shape[1], A.shape[1])))
    _symmetrize(gram)
    k = Xr.shape[0] if n_components is None else min(n_components, Xr.shape[0])
    vals, vecs = _top_eigenpairs(gram, k)
    s = np.sqrt(np.clip(vals, 0.0, None))
    keep = s >= SINGULAR_CUTOFF * s[0]
    s, vecs = s[keep], vecs[:, keep]
    psi = _fix_signs(vecs)
    u = weights.inv_diag() if isinstance(weights, WeightField) else np.asarray(weights, dtype=float)
    return ReferenceEmbedding(
        x_ref=Xr,
        inv_diag=u,
        sigma=float(sigma),
        tau=float(tau),
        psi=psi,
        singular_values=s,
        d2=d2,
        coords=A @ psi,
    )


def extend(ref: ReferenceEmbedding, z) -> np.ndarray:
    """Embed one new point through its normalized kernel row.

    z is a 1-d point or a one-row 2-d array; more rows go to `extend_batch`.
    The new point's own row sum plays the D1 role; the reference D2 is
    frozen. A point that reaches no reference at the threshold is flagged
    out of support.
    """
    z = _as_rows(z)
    if z.shape[0] != 1:
        raise ValueError(f"extend takes one point, got {z.shape[0]} rows; use extend_batch")
    coords, in_support = extend_batch(ref, z)
    if not in_support.all():
        raise OutOfSupportError(f"point has no affinity to any reference at tau={ref.tau}")
    return coords[0]


def extend_batch(ref: ReferenceEmbedding, Z):
    """Embed rows of Z; returns (coords, in_support).

    Out-of-support rows carry NaN coordinates with in_support False.
    """
    Zv = _as_rows(Z)
    rows = asymmetric_kernel(Zv, ref.x_ref, ref.inv_diag, ref.sigma, ref.tau)
    row_sums = rows.sum(axis=1)
    in_support = row_sums > 0
    if not in_support.all():
        rows, row_sums = rows[in_support], row_sums[in_support]
    # normalized in place: no copy of the kernel rows when all are in support
    rows /= np.sqrt(row_sums)[:, None]
    rows /= np.sqrt(ref.d2)[None, :]
    coords = np.full((Zv.shape[0], ref.rank), np.nan)
    coords[in_support] = rows @ ref.psi
    return coords, in_support


def build_reference_from_metric(X, metric: RegularizedMetric,
                                n_components: int | None = None) -> ReferenceEmbedding:
    """Reference decomposition using the trained metric's weights and scales."""
    comps = n_components if n_components is not None else metric.embedding.d + 1
    return build_reference(X, metric.weights, metric.sigma, metric.tau, comps)

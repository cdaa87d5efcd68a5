"""The served geometry of the fitted metric, and its extension to unseen points.

The fit returns the weights and bandwidth of K_F but no embedding; the
reference decomposition built from them is the geometry `predict` serves.
The asymmetric kernel against the training (reference) points is normalized
on both sides into A, only the top right singular pairs of A are computed,
as eigenpairs of A'A reached through products with A, and new points embed
through their normalized kernel rows: the out-of-sample extension of Coifman
and Lafon 2006 ("Geometric harmonics"). `extend_batch` is the one path from
new points to coordinates, for one point or many. Test points never touch the
weights or each other. The kernel takes the package's one expansion with
the row side's W at 0, one matrix product per row block, and a batch's rows
are normalized in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .data import DataMatrix, as_values
from .diffusion import (
    PLANE_DEPTH,
    _check_count,
    _clamped_exp,
    _empty_mapped,
    _expansion,
    _fix_signs,
    _rows_per_block,
    _top_eigenpairs,
)

SINGULAR_CUTOFF = 1e-10


def _as_rows(Z) -> np.ndarray:
    """DataMatrix, 2-d array, or a single 1-d point, as validated (k, m) rows."""
    return as_values(Z if isinstance(Z, DataMatrix) else np.atleast_2d(Z))


@dataclass(frozen=True)
class ReferenceEmbedding:
    """Frozen decomposition of the normalized asymmetric reference kernel."""

    x_ref: np.ndarray  # reference points (n_ref, m)
    inv_diag: np.ndarray  # W_x diagonals of the references (n_ref, m)
    sigma: float
    psi: np.ndarray  # right singular vectors of A (n_ref, r)
    singular_values: np.ndarray  # descending, cutoff applied (r,)
    d2: np.ndarray  # frozen column normalizer (n_ref,)
    coords: np.ndarray  # reference embedding A psi (n_ref, r)

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        if np.any(s < 0) or np.any(np.diff(s) > 1e-12):
            raise ValueError("singular values must be nonnegative and descending")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not np.all(self.d2 > 0):
            raise ValueError("column normalizer must be positive")

    @property
    def n_ref(self) -> int:
        return self.x_ref.shape[0]

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]


def asymmetric_kernel(Z, x_ref, u, sigma: float) -> np.ndarray:
    """One-sided weighted kernel rows:

        k(z, x) = exp(-(z-x)' W_x^{-1} (z-x) / sigma^2) / sqrt(det(W_x)),

    rows indexed by the stacked points Z, columns by the reference points,
    with u the (n_ref, m) W diagonals of the references (a `WeightField`'s
    `inv_diag()`). Only the reference point's weights enter; determinants
    go through logs.
    It is the package's one expansion (`diffusion._expansion`) with
    a = u_x, the row side's W at 0: each row block is one matrix product of
    [z o z, z, 1] with [-w; 2 x o w; -sum_f x_f^2 w_f - log sqrt(det W_x)],
    w = 1 / (sigma^2 u_x), written into the output, after both sides are
    centred on the reference mean; q is clamped at 0. Entries agree with the
    formula to about 1e-14 relative on the fit's inputs, and a row may
    differ in its last bits with the number of rows in the batch. A sigma
    that is not finite and positive is a ValueError.
    """
    Zv = _as_rows(Z)
    Xr = as_values(x_ref)
    u = np.asarray(u, dtype=float)
    if u.shape != Xr.shape:
        raise ValueError(f"weights {u.shape} do not match reference {Xr.shape}")
    if Zv.shape[1] != Xr.shape[1]:
        raise ValueError(f"points have {Zv.shape[1]} features, the reference points "
                         f"{Xr.shape[1]}")
    if not (u > 0).all():  # NaN fails too
        raise ValueError("W_x diagonals must be positive")
    xt = Xr.T.copy()  # feature-major (m, n_ref)
    mean = xt.mean(axis=1)
    xt -= mean[:, None]
    coef, bound = _expansion(xt, u.T.copy(), sigma)  # a = u_x: the row side's W is 0
    zc = Zv - mean
    lead = np.hstack([zc * zc, zc, np.ones((zc.shape[0], 1))])
    out = _empty_mapped((Zv.shape[0], Xr.shape[0]))
    block = _rows_per_block(Xr.shape[0], PLANE_DEPTH)
    for i0 in range(0, Zv.shape[0], block):
        rows = out[i0:i0 + block]
        np.matmul(lead[i0:i0 + block], coef, out=rows)  # -q / sigma^2 - log sqrt(det W_x)
        _clamped_exp(rows, bound)
    return out


def build_reference(x_ref, u, sigma: float,
                    n_components: int | None = None) -> ReferenceEmbedding:
    """Decompose the normalized asymmetric kernel of the reference set, whose
    W diagonals are the (n_ref, m) array u.

    A = D1^{-1/2} K D2^{-1/2}, normalized in K's buffer; the top n_components
    (all when None) eigenpairs of A'A = Psi Sigma^2 Psi' give the right
    singular vectors, and the reference embedding is A Psi.
    ARPACK takes the pairs through the products v -> A'(A v), so A is the
    one n x n array; A'A is formed only on the dense paths (n_components of
    at least n - 1, or ARPACK not converging).
    Singular values below 1e-10 of the maximum are discarded. An
    n_components that is not an integer >= 1 (nor None) is a ValueError.
    """
    Xr = as_values(x_ref)
    n = Xr.shape[0]
    if n < 2:
        raise ValueError("need at least two reference points")
    if n_components is not None:
        _check_count("n_components", n_components)
    u = np.asarray(u, dtype=float)
    A = asymmetric_kernel(Xr, Xr, u, sigma)  # K, normalized in place below
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

    def gram():  # numpy forms A'A with syrk: exactly symmetric
        return np.matmul(A.T, A, out=_empty_mapped((n, n)))

    gram_op = LinearOperator((n, n), matvec=lambda v: A.T @ (A @ v), dtype=float)
    k = n if n_components is None else min(n_components, n)
    vals, vecs = _top_eigenpairs(gram_op, k, dense=gram)
    s = np.sqrt(np.clip(vals, 0.0, None))
    keep = s >= SINGULAR_CUTOFF * s[0]
    s, vecs = s[keep], vecs[:, keep]
    psi = _fix_signs(vecs)
    return ReferenceEmbedding(
        x_ref=Xr,
        inv_diag=u,
        sigma=float(sigma),
        psi=psi,
        singular_values=s,
        d2=d2,
        coords=A @ psi,
    )


def extend_batch(ref: ReferenceEmbedding, Z):
    """Embed rows of Z; returns (coords, in_support).

    Out-of-support rows carry NaN coordinates with in_support False.
    """
    Zv = _as_rows(Z)
    rows = asymmetric_kernel(Zv, ref.x_ref, ref.inv_diag, ref.sigma)
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

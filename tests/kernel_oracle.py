"""A frozen copy of `metric.weighted_kernel` as it was before it became one
matrix product per weight group: q = sum_f (x_if - x_jf)^2 / a_f and
det = prod_f a_f, a = W_i + W_j, summed and multiplied from per-feature
(rows, cols) planes in feature order over the upper row blocks, the log of
the determinant taken per block (per-element logs in a block where the
product overflows), and the blocks mirrored into the lower triangle.

Its entries equal the formula reduced over an (m, rows, cols) stack bit for
bit. The library's kernel must agree with it to rounding; do not edit this
copy to follow the library.
"""

import numpy as np

from cohortmetric.diffusion import PLANE_DEPTH, _rows_per_block


def form_and_det(xt, ut, i0, i1, j0):
    q = det = None
    with np.errstate(over="ignore"):
        for y in range(xt.shape[0]):
            a = np.add.outer(ut[y, i0:i1], ut[y, j0:])
            t = np.subtract.outer(xt[y, i0:i1], xt[y, j0:])
            np.square(t, out=t)
            t /= a
            q = t if q is None else np.add(q, t, out=q)
            det = a if det is None else np.multiply(det, a, out=det)
    return q, det


def weighted_kernel(X, u, sigma):
    """The (n, n) kernel entries for values X, W diagonals u and bandwidth
    sigma."""
    X, u = np.asarray(X, dtype=float), np.asarray(u, dtype=float)
    n, m = X.shape
    xt, ut = X.T.copy(), u.T.copy()

    def block(i0, i1, j0):
        q, det = form_and_det(xt, ut, i0, i1, j0)
        if np.all(np.isfinite(det)) and det.min() > 0:
            logdet = np.log(det, out=det)
        else:
            logdet = None
            with np.errstate(over="ignore"):
                for y in range(m):
                    la = np.log(np.add.outer(ut[y, i0:i1], ut[y, j0:]))
                    logdet = la if logdet is None else np.add(logdet, la, out=logdet)
        np.negative(q, out=q)
        q /= sigma**2
        logdet *= 0.5
        q -= logdet
        return np.exp(q, out=q)

    K = np.empty((n, n))
    rows = _rows_per_block(n, PLANE_DEPTH)
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        B = block(i0, i1, i0)
        K[i0:i1, i0:] = B
        K[i0:, i0:i1] = B.T
    return K

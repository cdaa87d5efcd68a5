"""A frozen copy of `metric.neighborhood_indices` as it was before it ranked
by one matrix product: each distance is the square root of a running sum of
feature-major (rows, n) planes of squared coordinate differences, in
coordinate order, then argpartition and a stable argsort.

On points without near-ties the served cohorts and estimates must equal
this rule's bit for bit; do not edit this copy to follow the library.
"""

import numpy as np

from cohortmetric.diffusion import PLANE_DEPTH, _rows_per_block


def neighborhood_indices(coords, centers, k):
    centers = np.asarray(centers, dtype=float)
    n, d = coords.shape
    xt, ct = coords.T.copy(), centers.T.copy()
    k = min(k, n)
    out = []
    block = _rows_per_block(n, PLANE_DEPTH)
    for i0 in range(0, centers.shape[0], block):
        i1 = min(centers.shape[0], i0 + block)
        dist = None
        for y in range(d):
            t = np.subtract(xt[y][None, :], ct[y, i0:i1][:, None])
            np.square(t, out=t)
            dist = t if dist is None else np.add(dist, t, out=dist)
        np.sqrt(dist, out=dist)
        part = np.argpartition(dist, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(dist, part, axis=1), axis=1, kind="stable")
        out.extend(np.take_along_axis(part, order, axis=1))
    return out

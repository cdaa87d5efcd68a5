"""A frozen copy of the folder weights as they were before F was skipped
where a weight is zero by construction: the quantile bins, the merging of
small bins, and F evaluated on every valid merged bin of every feature of
every folder of at least c points.

The library's `compute_weight_field`, through `folder_weight`, must
reproduce its weights bit for bit once `field_oracle.py` sums them into a
weight field; do not edit this copy to follow the library.
"""

import numpy as np

from cohortmetric.data import as_values
from cohortmetric.metric import Bin
from cohortmetric.survival import CohortError


def bin_probs(k_bins):
    return np.arange(1, k_bins) / k_bins


def bins_of(pts, values, quantiles):
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


def merge_small_bins(bins, c):
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


def folder_weight(bins, F):
    merged = merge_small_bins(bins, F.min_cohort)
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
        return 0.0
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float) - values[0]
    p = sizes / sizes.sum()
    fbar = float(p @ values)
    return float(p @ (values - fbar) ** 2)


def compute_folder_weights(tree, X, F, k_bins):
    values = as_values(X)
    probs = bin_probs(k_bins)
    out = {}
    for level in range(1, tree.n_levels + 1):
        for fid, pts in enumerate(tree.folders(level)):
            if len(pts) < F.min_cohort:
                continue
            vals = values[pts].T
            edges = np.quantile(vals, probs, axis=1).T
            out[(level, fid)] = np.array(
                [folder_weight(bins_of(pts, v, e), F) for v, e in zip(vals, edges)])
    return out

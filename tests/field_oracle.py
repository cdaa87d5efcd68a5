"""The weight field summed from the frozen folder weights of
`weights_oracle`: each folder's row, decayed by 2^{-l}, is added into its
points' weights in the order of the frozen dict, with lam by the library's
`resolve_lam`. The library's `compute_weight_field` must reproduce it bit
for bit."""

import numpy as np

import weights_oracle
from cohortmetric.data import as_values
from cohortmetric.metric import WeightField, resolve_lam


def summed_weights(tree, X, folder_weights):
    """The point weights of a frozen {(level, folder): row} dict."""
    w = np.zeros_like(as_values(X))
    for (level, fid), row in folder_weights.items():
        w[tree.folders(level)[fid]] += 2.0 ** -level * row[None, :]
    return w


def weight_field(X, F, tree, k_bins=3):
    """The frozen field of F over `tree`."""
    w = summed_weights(tree, X, weights_oracle.compute_folder_weights(tree, X, F, k_bins))
    return WeightField(w, resolve_lam(w))

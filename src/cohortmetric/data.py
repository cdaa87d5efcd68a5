"""Core data container shared by every stage of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def as_values(X) -> np.ndarray:
    """Accept a DataMatrix or a raw 2-d array and return validated float values."""
    if isinstance(X, DataMatrix):
        return X.values
    values = np.asarray(X, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d array of points, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        bad = np.where(~np.isfinite(values).all(axis=1))[0]
        raise ValueError(f"non-finite entries in rows {bad[:10].tolist()}")
    return values


@dataclass(frozen=True)
class DataMatrix:
    """n points by m features, with identifiers and feature labels.

    Rows are points, columns are features. Construction rejects non-finite
    entries and empty matrices.
    """

    values: np.ndarray
    point_ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    feature_names: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = as_values(self.values)
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"need an n x m matrix with n,m >= 1, got shape {values.shape}")
        object.__setattr__(self, "values", values)
        n, m = values.shape
        ids = self.point_ids
        if ids is None:
            ids = np.arange(n)
        ids = np.asarray(ids)
        if ids.shape != (n,):
            raise ValueError(f"point_ids must have length {n}, got {ids.shape}")
        object.__setattr__(self, "point_ids", ids)
        names = self.feature_names
        if names is None:
            names = tuple(f"x_{j + 1}" for j in range(m))
        names = tuple(str(s) for s in names)
        if len(names) != m:
            raise ValueError(f"feature_names must have length {m}, got {len(names)}")
        object.__setattr__(self, "feature_names", names)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def subset(self, indices) -> "DataMatrix":
        idx = np.asarray(indices, dtype=int)
        return DataMatrix(self.values[idx], self.point_ids[idx], self.feature_names)

"""Run configuration: one validated home for every pipeline knob."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .simulate import TrialSpec
from .survival import BALANCE_THRESHOLD


class ConfigError(ValueError):
    """Invalid or unknown configuration; CLI maps this to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the fit, predict, validate and recommend pipelines.

    The kernel bandwidths, the regularizer lam, the cohort size and the
    tree's stopping size are not knobs: each stage derives them from the
    data.
    """

    seed: int = 0
    estimator: str = "partial"  # local-effect estimator for the estimates
    weight_estimator: str = "moments"  # functional driving the feature weights
    min_cohort: int = 25
    dim: int = 5
    time: float = 1.0
    weight_alpha: float = 1.0
    k_bins: int = 3
    branching: int = 2
    balance_threshold: float = BALANCE_THRESHOLD
    c_threshold: float = 0.5
    max_iters: int = 10  # weight steps per fit
    repeats: int = 20
    train_fraction: float = 0.8

    def __post_init__(self):
        for name in ("seed", "min_cohort", "dim", "k_bins", "branching", "max_iters", "repeats"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.estimator not in ("moments", "partial"):
            raise ConfigError(f"estimator must be moments|partial, got {self.estimator!r}")
        if self.weight_estimator not in ("moments", "partial"):
            raise ConfigError(
                f"weight_estimator must be moments|partial, got {self.weight_estimator!r}"
            )
        if self.min_cohort < 2:
            raise ConfigError("min_cohort must be at least 2")
        # float comparisons are written so that NaN fails them
        if self.dim < 1 or not 0 < self.time < np.inf:
            raise ConfigError("dim must be >= 1 and time finite and positive")
        if not 0 <= self.weight_alpha < np.inf:
            raise ConfigError(f"weight_alpha must be finite and >= 0, got {self.weight_alpha}")
        if self.k_bins < 1 or self.branching < 2:
            raise ConfigError("k_bins must be >= 1 and branching >= 2")
        if not 0.5 <= self.balance_threshold < 1.0:
            raise ConfigError("balance_threshold must be in [0.5, 1)")
        if not self.c_threshold >= 0:
            raise ConfigError("c_threshold must be nonnegative")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    def replace(self, **kw) -> "RunConfig":
        return RunConfig.from_dict({**self.to_dict(), **kw})

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The one dict-to-config routine; unknown keys and values of the
        wrong type raise ConfigError."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path) -> tuple[RunConfig, TrialSpec | None]:
    """Parse a JSON config file into (RunConfig, optional TrialSpec).

    Unknown keys are rejected; the trial spec lives under the "trial" key.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    trial = None
    if "trial" in raw:
        try:
            trial = TrialSpec.from_dict(raw.pop("trial"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid trial spec: {exc}") from exc
    return RunConfig.from_dict(raw), trial

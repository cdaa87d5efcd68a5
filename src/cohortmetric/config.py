"""Run configuration: one validated home for every pipeline knob."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .simulate import TrialSpec


class ConfigError(ValueError):
    """Invalid or unknown configuration; CLI maps this to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the fit, predict, validate and recommend pipelines.

    The kernel bandwidths, the regularizer lam, the cohort size and the
    tree's stopping size are not knobs: each stage derives them from the
    data. The folder decay and the bins per feature (`metric`), the tree's
    branching (`tree`), the weights' estimator (`harness`) and the balance
    threshold (`survival`) are constants, and the diffusion time is 1.
    """

    seed: int = 0
    estimator: str = "partial"  # local-effect estimator for the estimates
    min_cohort: int = 25
    dim: int = 5
    c_threshold: float = 0.5
    max_iters: int = 10  # weight steps per fit
    repeats: int = 20
    train_fraction: float = 0.8

    def __post_init__(self):
        for name in ("seed", "min_cohort", "dim", "max_iters", "repeats"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.estimator not in ("moments", "partial"):
            raise ConfigError(f"estimator must be moments|partial, got {self.estimator!r}")
        if self.min_cohort < 2:
            raise ConfigError("min_cohort must be at least 2")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        # float comparisons are written so that NaN fails them
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
        """The one dict-to-config routine; anything but a dict, unknown keys
        and values of the wrong type raise ConfigError."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
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

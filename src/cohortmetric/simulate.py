"""Synthetic clinical-trial generators with per-patient ground truth.

Three feature models: unit-sphere triplets with a randomized arm and a
signed two-pocket time-scaling effect; a correlated Gaussian with probit
treatment propensity and a fixed interaction effect; and a random sparse
quadratic model with calibrated censoring.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr

from .data import DataMatrix
from .rng import substream
from .survival import SurvivalRecords, _censor, weibull_sample

# Signed effect pockets for the sphere trial. Cyclic-permutation-symmetric
# centers spread the loadings over all three coordinates; the harm pocket is
# slightly wider (ratio calibrated against the marginal Cox treatment
# coefficient, which would otherwise drift protective under administrative
# censoring).
_POCKET_RAW = np.array([1.0, 0.55, 0.1])
POCKET_PLUS = _POCKET_RAW / np.linalg.norm(_POCKET_RAW)
POCKET_MINUS = np.roll(_POCKET_RAW, 1) / np.linalg.norm(_POCKET_RAW)
DEFAULT_POCKET_WIDTH = 0.30
HARM_POCKET_RATIO = 1.1


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to regenerate a synthetic trial exactly."""

    kind: str  # sphere | propensity | random
    n: int
    seed: int = 0
    dim: int = 9
    weibull_lam: float = 2.0  # a rate: S(t) = exp(-weibull_lam * t^weibull_k)
    weibull_k: float = 1.2
    horizon: float | None = 2.0
    outcome_target: float | None = None  # calibrate the horizon when set
    p_treated: float = 0.5
    sup_effect: float = 3.0  # sphere: sup of e^{beta}
    pocket_width: float = DEFAULT_POCKET_WIDTH
    gamma0: float = 0.5
    gamma: tuple = ()  # empty means [1, 1, 0, ..., 0]
    condition_bound: float = 10.0

    def __post_init__(self):
        if self.kind not in ("sphere", "propensity", "random"):
            raise ValueError(f"unknown trial kind {self.kind!r}")
        for name in ("n", "seed", "dim"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # each test is written so that NaN fails it
        if not (0 < self.weibull_lam < np.inf and 0 < self.weibull_k < np.inf):
            raise ValueError("Weibull parameters must be positive and finite")
        if self.horizon is not None and not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.outcome_target is not None and not 0 < self.outcome_target <= 1:
            raise ValueError("outcome_target must be in (0, 1]")
        if not 0 < self.p_treated < 1:
            raise ValueError("p_treated must be in (0, 1)")
        if not self.condition_bound >= 1:
            raise ValueError("condition bound must be >= 1")
        if self.kind == "sphere" and (self.dim < 3 or self.dim % 3 != 0):
            raise ValueError(f"sphere trial dimension must be a positive multiple of 3, "
                             f"got {self.dim}")
        if self.kind != "sphere" and self.dim < 2:
            raise ValueError(f"{self.kind} trial needs dimension >= 2, got {self.dim}")
        if not 0 < self.sup_effect < np.inf:
            raise ValueError(f"sup_effect must be positive and finite, got {self.sup_effect}")
        if self.gamma and self.kind == "sphere":
            raise ValueError("a sphere trial has no treatment propensity: gamma must be empty")
        if self.gamma and len(self.gamma) != self.dim:
            raise ValueError(f"gamma must have length {self.dim}, got {len(self.gamma)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrialSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown trial spec keys: {sorted(unknown)}")
        d = dict(d)
        if "gamma" in d and d["gamma"] is not None:
            d["gamma"] = tuple(d["gamma"])
        return cls(**d)

    def resolve_gamma(self) -> np.ndarray:
        if self.gamma:
            return np.asarray(self.gamma, dtype=float)
        g = np.zeros(self.dim)
        g[:2] = 1.0
        return g


@dataclass(frozen=True)
class GroundTruth:
    """Per-patient true treatment effect and treatment propensity.

    effect_scale records which scale the effect lives on: 'time_scaling'
    (sphere trial: exponent of the outcome-time multiplier, positive =
    benefit) or 'log_hazard' (propensity models: additive log-hazard term for
    the treated, positive = harm).
    """

    true_effect: np.ndarray
    propensity: np.ndarray
    effect_scale: str

    def __post_init__(self):
        e = np.asarray(self.true_effect, dtype=float)
        p = np.asarray(self.propensity, dtype=float)
        if e.shape != p.shape or e.ndim != 1:
            raise ValueError("effect and propensity must be aligned 1-d arrays")
        if not np.all(np.isfinite(e)) or np.any((p <= 0) | (p >= 1)):
            raise ValueError("effect must be finite and propensity in (0, 1)")


@dataclass(frozen=True)
class TrialDataset:
    data: DataMatrix
    records: SurvivalRecords
    truth: GroundTruth
    spec: TrialSpec
    info: dict = field(default_factory=dict)


def sphere_effect(v: np.ndarray, sup_effect: float, width: float) -> np.ndarray:
    """Signed two-pocket effect on the first coordinate triple."""
    amp = np.log(sup_effect)
    d_plus = ((v - POCKET_PLUS[None, :]) ** 2).sum(axis=1)
    d_minus = ((v - POCKET_MINUS[None, :]) ** 2).sum(axis=1)
    return amp * (
        np.exp(-d_plus / (2.0 * width**2))
        - np.exp(-d_minus / (2.0 * (HARM_POCKET_RATIO * width) ** 2))
    )


def _octant_sphere(rng: np.random.Generator, n: int, triples: int) -> np.ndarray:
    g = np.abs(rng.normal(size=(n, triples, 3)))
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    return g.reshape(n, 3 * triples)


def calibrate_horizon(outcome_times: np.ndarray, target: float) -> float:
    """Administrative horizon making `target` of the outcomes observable.

    The target-quantile of the outcome times censors everyone above it;
    the realized fraction is monotone in the quantile.
    """
    if not 0 < target <= 1:
        raise ValueError("target fraction must be in (0, 1]")
    return float(np.quantile(outcome_times, target, method="higher"))


def _spec_horizon(times: np.ndarray, spec: TrialSpec) -> float:
    """The spec's horizon, or the one calibrated to its outcome target."""
    if spec.outcome_target is not None:
        return calibrate_horizon(times, spec.outcome_target)
    if spec.horizon is None:
        raise ValueError("spec needs a horizon or an outcome_target")
    return float(spec.horizon)


def gen_sphere_trial(spec: TrialSpec) -> TrialDataset:
    """Randomized trial on unit-sphere feature triples (positive octant).

    Treated outcome times scale by e^{beta(x)}; beta is the signed two-pocket
    function of the first triple with sup|e^beta| = sup_effect.
    """
    if spec.kind != "sphere":
        raise ValueError(f"spec kind is {spec.kind!r}")
    rng = substream(spec.seed, "simulate")
    X = _octant_sphere(rng, spec.n, spec.dim // 3)
    beta = sphere_effect(X[:, :3], spec.sup_effect, spec.pocket_width)
    treatments = (rng.random(spec.n) < spec.p_treated).astype(int)
    W = weibull_sample(spec.weibull_lam, spec.weibull_k, rng, spec.n)
    times = np.where(treatments == 1, W * np.exp(beta), W)
    horizon = _spec_horizon(times, spec)
    records = _censor(times, treatments, horizon)
    truth = GroundTruth(beta, np.full(spec.n, spec.p_treated), "time_scaling")
    data = DataMatrix(X)
    info = {"horizon": horizon, "outcome_fraction": float(records.events.mean())}
    return TrialDataset(data, records, truth, spec, info)


def _probit_treatment(X: np.ndarray, spec: TrialSpec, rng: np.random.Generator):
    gamma = spec.resolve_gamma()
    score = spec.gamma0 + X @ gamma
    w = rng.normal(size=X.shape[0])
    treatments = (w < score).astype(int)
    propensity = np.clip(ndtr(score), 1e-12, 1 - 1e-12)  # ndtr is norm.cdf's kernel
    return treatments, propensity


def gen_propensity_trial(spec: TrialSpec) -> TrialDataset:
    """Correlated Gaussian features, probit treatment propensity, and the
    fixed interaction hazard h = x1 + 0.5 x2 + 0.5 x1 x2 + T x2.

    h enters as a log-hazard multiplier (Weibull accelerated-time
    equivalence: times scale by e^{-h/k}). Ground-truth effect is x2.
    """
    if spec.kind != "propensity":
        raise ValueError(f"spec kind is {spec.kind!r}")
    rng = substream(spec.seed, "simulate")
    cov = np.eye(spec.dim)
    idx = np.arange(spec.dim - 1)
    cov[idx, idx + 1] = 0.5
    cov[idx + 1, idx] = 0.5
    L = np.linalg.cholesky(cov)
    X = rng.normal(size=(spec.n, spec.dim)) @ L.T
    treatments, propensity = _probit_treatment(X, spec, rng)
    h = X[:, 0] + 0.5 * X[:, 1] + 0.5 * X[:, 0] * X[:, 1] + treatments * X[:, 1]
    W = weibull_sample(spec.weibull_lam, spec.weibull_k, rng, spec.n)
    times = W * np.exp(-h / spec.weibull_k)
    horizon = _spec_horizon(times, spec)
    records = _censor(times, treatments, horizon)
    truth = GroundTruth(X[:, 1], propensity, "log_hazard")
    info = {"horizon": horizon, "outcome_fraction": float(records.events.mean())}
    return TrialDataset(DataMatrix(X), records, truth, spec, info)


def random_spd(dim: int, condition_bound: float, rng: np.random.Generator) -> np.ndarray:
    """Random SPD matrix with condition number below the bound: Haar-random
    basis, eigenvalues log-uniform on [1, 0.99 * bound]."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q *= np.sign(np.diagonal(r))[None, :]
    eigs = np.exp(rng.uniform(0.0, np.log(0.99 * condition_bound), size=dim))
    return (q * eigs[None, :]) @ q.T


def gen_random_model(spec: TrialSpec) -> TrialDataset:
    """Random sparse quadratic hazard model with calibrated censoring.

    First-order coefficients are sparse standard normals (nonzero w.p. 1/2);
    second-order coefficients are nonzero exactly where both first-order
    supports are. The outcome fraction is drawn uniform on [1/3, 1] unless the
    spec fixes one.
    """
    if spec.kind != "random":
        raise ValueError(f"spec kind is {spec.kind!r}")
    rng = substream(spec.seed, "simulate")
    cov = random_spd(spec.dim, spec.condition_bound, rng)
    X = rng.normal(size=(spec.n, spec.dim)) @ np.linalg.cholesky(cov).T

    xi = rng.normal(size=spec.dim) * (rng.random(spec.dim) < 0.5)
    nu = rng.normal(size=spec.dim) * (rng.random(spec.dim) < 0.5)
    eta = rng.normal(size=(spec.dim, spec.dim)) * np.outer(xi != 0, xi != 0)
    delta = rng.normal(size=(spec.dim, spec.dim)) * np.outer(nu != 0, nu != 0)

    treatments, propensity = _probit_treatment(X, spec, rng)
    base = X @ xi + np.einsum("ni,ij,nj->n", X, eta, X)
    interact = X @ nu + np.einsum("ni,ij,nj->n", X, delta, X)
    h = base + treatments * interact

    outcome_target = spec.outcome_target
    if outcome_target is None:
        outcome_target = float(rng.uniform(1.0 / 3.0, 1.0))
    W = weibull_sample(spec.weibull_lam, spec.weibull_k, rng, spec.n)
    times = W * np.exp(-h / spec.weibull_k)
    horizon = calibrate_horizon(times, outcome_target)
    records = _censor(times, treatments, horizon)
    truth = GroundTruth(interact, propensity, "log_hazard")
    info = {
        "horizon": horizon,
        "outcome_fraction": float(records.events.mean()),
        "outcome_target": outcome_target,
        "covariance": cov,
        "xi": xi,
        "nu": nu,
        "eta": eta,
        "delta": delta,
    }
    return TrialDataset(DataMatrix(X), records, truth, spec, info)


def generate(spec: TrialSpec) -> TrialDataset:
    if spec.kind == "sphere":
        return gen_sphere_trial(spec)
    if spec.kind == "propensity":
        return gen_propensity_trial(spec)
    return gen_random_model(spec)


@dataclass(frozen=True)
class ScoreResult:
    correlation: float
    n_kept: int
    kept_fraction: float
    defined: bool


def score_against_truth(estimates, truth_effects, keep=None) -> ScoreResult:
    """Pearson correlation between estimates and ground truth on the retained
    points (finite estimates passing the keep mask)."""
    f = np.asarray(estimates, dtype=float)
    g = np.asarray(truth_effects, dtype=float)
    if f.shape != g.shape:
        raise ValueError("estimates and truth must align")
    mask = np.isfinite(f)
    if keep is not None:
        mask &= np.asarray(keep, dtype=bool)
    kept_fraction = float(mask.mean()) if f.size else 0.0
    n_kept = int(mask.sum())
    if n_kept < 2 or np.std(f[mask]) == 0 or np.std(g[mask]) == 0:
        return ScoreResult(np.nan, n_kept, kept_fraction, defined=False)
    corr = float(np.corrcoef(f[mask], g[mask])[0, 1])
    return ScoreResult(corr, n_kept, kept_fraction, defined=True)

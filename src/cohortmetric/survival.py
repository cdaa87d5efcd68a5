"""Hazard models and estimators for censored A/B outcome data.

Covers Weibull outcome sampling, administrative censoring, the two local
treatment-effect estimators (outcome-proportion moments and one-parameter
partial likelihood), multivariate Cox regression, the misspecified-model bias
oracle, Kaplan-Meier curves, the log-rank test, and recommendation grouping.
The partial likelihood, Cox regression, Kaplan-Meier and the log-rank test
read one Breslow table, built by `_breslow_table` from columns in time order;
`LocalAlphaFunctional` sorts its records once, so a cohort's columns come
presorted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .diffusion import _check_count

logger = logging.getLogger(__name__)

BALANCE_THRESHOLD = 0.8  # largest arm share of a balanced cohort
ALPHA_CAP = 50.0
SMOOTHING = 0.5  # Haldane-Anscombe constant for the log relative risk
COX_MAX_ITER = 60  # Newton steps before `cox_fit` gives up


class CohortError(Exception):
    """Base for signals raised by cohort functionals."""


class CohortTooSmallError(CohortError):
    def __init__(self, size: int, required: int):
        super().__init__(f"cohort of size {size} below the minimum {required}")
        self.size = size
        self.required = required


class UndefinedCohortValue(CohortError):
    """The functional is not defined on this cohort (single-arm, no events...)."""


class CoxFitError(RuntimeError):
    """Cox regression failed; message carries diagnostics."""


@dataclass(frozen=True)
class SurvivalRecords:
    """Columnar records: observed time, event indicator, treatment arm."""

    times: np.ndarray
    events: np.ndarray
    treatments: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        d = np.asarray(self.events)
        a = np.asarray(self.treatments)
        if not (t.shape == d.shape == a.shape) or t.ndim != 1:
            raise ValueError("times, events, treatments must be 1-d arrays of equal length")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ValueError("times must be finite and nonnegative")
        if not (((d == 0) | (d == 1)).all() and ((a == 0) | (a == 1)).all()):
            raise ValueError("events and treatments must be 0/1")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "events", d.astype(int, copy=False))
        object.__setattr__(self, "treatments", a.astype(int, copy=False))

    def __len__(self) -> int:
        return self.times.shape[0]

    def subset(self, indices) -> "SurvivalRecords":
        idx = np.asarray(indices, dtype=int)
        return SurvivalRecords(self.times[idx], self.events[idx], self.treatments[idx])


@dataclass(frozen=True)
class LocalEffectEstimate:
    """Local treatment effect for one cohort.

    `alpha` is the headline log-hazard-ratio-scale estimate; `delta` (moments
    only) is the raw difference of outcome proportions. `balanced` is False
    when one arm exceeds the balance threshold's share of the cohort.
    """

    alpha: float
    n0: int
    n1: int
    kind: str
    delta: float = np.nan
    se: float = np.nan
    balanced: bool = True
    defined: bool = True
    diverged: bool = False

    @property
    def size(self) -> int:
        return self.n0 + self.n1


@dataclass(frozen=True)
class SurvivalCurve:
    """Kaplan-Meier product-limit curve: one step per distinct event time."""

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.survival, dtype=float)
        if s.size and (np.any(np.diff(s) > 1e-12) or s[0] > 1.0 + 1e-12):
            raise ValueError("survival curve must be non-increasing and start at <= 1")

    def evaluate(self, t) -> np.ndarray:
        """Right-continuous step evaluation, S(t) = 1 before the first event."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        vals = np.concatenate([[1.0], self.survival])
        return vals[idx]


@dataclass(frozen=True)
class CoxFit:
    coef: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p_values: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    names: tuple[str, ...] = ()


def weibull_sample(lam: float, k: float, rng: np.random.Generator, size=None):
    """Outcome times with survival function S(t) = exp(-lam * t^k)."""
    if not (lam > 0 and k > 0):
        raise ValueError(f"Weibull parameters must be positive, got lam={lam}, k={k}")
    u = rng.random(size)
    return (-np.log(u) / lam) ** (1.0 / k)


def _arm_stats(events: np.ndarray, treatments: np.ndarray):
    """Arm sizes and events per arm, (n0, n1, d0, d1), from 0/1 columns."""
    n1 = int(treatments.sum())
    d1 = int(events[treatments == 1].sum())
    return treatments.size - n1, n1, int(events.sum()) - d1, d1


def _balanced(n0: int, n1: int) -> bool:
    size = n0 + n1
    return size > 0 and max(n0, n1) <= BALANCE_THRESHOLD * size


def _moments_estimate(n0: int, n1: int, d0: int, d1: int) -> LocalEffectEstimate:
    """`moments_alpha` from the arm sizes and the events in each arm."""
    balanced = _balanced(n0, n1)
    if n0 == 0 or n1 == 0:
        return LocalEffectEstimate(np.nan, n0, n1, "moments", balanced=balanced, defined=False)
    delta = d1 / n1 - d0 / n0
    alpha = float(
        np.log((d1 + SMOOTHING) / (n1 + SMOOTHING)) - np.log((d0 + SMOOTHING) / (n0 + SMOOTHING))
    )
    var = (
        1.0 / (d1 + SMOOTHING)
        - 1.0 / (n1 + SMOOTHING)
        + 1.0 / (d0 + SMOOTHING)
        - 1.0 / (n0 + SMOOTHING)
    )
    se = math.sqrt(max(var, 0.0))
    return LocalEffectEstimate(alpha, n0, n1, "moments", delta=float(delta), se=se, balanced=balanced)


def moments_alpha(records: SurvivalRecords) -> LocalEffectEstimate:
    """Arm-contrast estimate from outcome proportions.

    delta is the plain difference of outcome rates; alpha is the smoothed log
    relative risk log((d1+1/2)/(n1+1/2)) - log((d0+1/2)/(n0+1/2)), which is
    the log-scale analogue matching the hazard-ratio interpretation.
    """
    return _moments_estimate(*_arm_stats(records.events, records.treatments))


def _breslow_table(t: np.ndarray, events: np.ndarray, treatments: np.ndarray):
    """Per distinct event time of columns already in time order: treated and
    untreated events and at-risk counts.

    Risk sets use t_Y >= t_Z (the failing subject included); ties share one
    risk set (Breslow). Every count depends on the sorted times only, not on
    the order of tied records. Returns None when there are no events.
    """
    ev = events == 1
    te = t[ev]
    if not te.size:
        return None
    first = np.empty(te.size + 1, dtype=bool)  # first event of each distinct time, then the end
    first[0] = first[-1] = True
    np.not_equal(te[1:], te[:-1], out=first[1:-1])
    bounds = np.flatnonzero(first)
    group = bounds[:-1]
    uniq = te[group]
    start = np.searchsorted(t, uniq, side="left")
    treated_suffix = np.cumsum(treatments[::-1])[::-1]  # treated among positions >= i
    return {
        "times": uniq,
        "d": np.subtract(bounds[1:], group, dtype=float),
        "d1": np.add.reduceat(treatments[ev], group).astype(float, copy=False),
        "r": np.subtract(t.size, start, dtype=float),
        "r1": treated_suffix[start].astype(float, copy=False),
    }


def _risk_set_counts(records: SurvivalRecords):
    """`_breslow_table` of the records, sorted by time first."""
    order = np.argsort(records.times, kind="mergesort")
    return _breslow_table(records.times[order], records.events[order],
                          records.treatments[order])


def _partial_loglik_terms(alpha, d, d1, r, r1, r0=None):
    """l, l', l'' of the Breslow one-parameter partial likelihood.

    Written so the exponential is always of -|alpha|, keeping the terms
    finite far beyond the divergence cap. The denominator is positive for
    |alpha| <= ALPHA_CAP + 5, so a time with no treated at risk (r1 = 0)
    gets frac = 0 exactly. r0 = r - r1, the untreated at risk, may be
    passed in by a caller that evaluates many alphas.
    """
    if r0 is None:
        r0 = r - r1
    work = np.empty((5, d.size))
    l_terms, lp_terms, lpp_terms, den, frac = work  # summands of l, l', -l'', then work rows
    # ufunc outputs are passed by position: the `out=` keyword costs more
    # than the arithmetic on a cohort's hundred or so event times
    if alpha >= 0:
        np.multiply(r0, np.exp(-alpha), den)
        np.add(den, r1, den)
        np.divide(r1, den, frac)
        log_denom = np.log(den, den)
        np.add(log_denom, alpha, log_denom)
    else:
        np.multiply(r1, np.exp(alpha), frac)
        np.add(r0, frac, den)
        np.divide(frac, den, frac)
        log_denom = np.log(den, den)
    np.multiply(alpha, d1, l_terms)
    np.multiply(log_denom, d, log_denom)
    np.subtract(l_terms, log_denom, l_terms)
    d_frac = np.multiply(d, frac, den)  # reused by l' and l''
    np.subtract(d1, d_frac, lp_terms)
    np.subtract(1.0, frac, frac)
    np.multiply(d_frac, frac, lpp_terms)
    # one reduce over the three rows sums each as a 1-d add.reduce (what
    # ndarray.sum runs) would, bit for bit
    l, lp, minus_lpp = np.add.reduce(work[:3], 1).tolist()
    return l, lp, -minus_lpp


def _partial_estimate(n0: int, n1: int, counts) -> LocalEffectEstimate:
    """`partial_likelihood_alpha` from the arm sizes and the Breslow table."""
    balanced = _balanced(n0, n1)
    if counts is None or n0 == 0 or n1 == 0:
        return LocalEffectEstimate(np.nan, n0, n1, "partial", balanced=balanced, defined=False)
    d, d1, r, r1 = counts["d"], counts["d1"], counts["r"], counts["r1"]
    r0 = r - r1
    # score limits at alpha -> +/- inf; a finite maximizer needs
    # l'(-inf) > 0 > l'(+inf), otherwise the likelihood is monotone:
    # l'(+inf) = sum(d1) - sum(d where r1 > 0), l'(-inf) = sum(d1) - sum(d
    # where r0 = 0). r1 and r0 never increase along the table, so r1 > 0 on
    # a prefix and r0 = 0 on a suffix; the counts are whole numbers, so the
    # sums are exact in any order
    treated_events = np.add.reduce(d1)
    if treated_events >= np.add.reduce(d[:np.count_nonzero(r1)]):
        return LocalEffectEstimate(
            np.inf, n0, n1, "partial", balanced=balanced, defined=False, diverged=True
        )
    if treated_events <= np.add.reduce(d[np.count_nonzero(r0):]):
        return LocalEffectEstimate(
            -np.inf, n0, n1, "partial", balanced=balanced, defined=False, diverged=True
        )
    alpha = 0.0
    l, lp, lpp = _partial_loglik_terms(alpha, d, d1, r, r1, r0)
    lo, hi = -ALPHA_CAP - 5, ALPHA_CAP + 5
    for _ in range(100):
        if not math.isfinite(lp) or abs(lp) < 1e-12:
            break
        if not math.isfinite(lpp) or lpp >= 0:  # flat likelihood; no curvature left
            break
        step = -lp / lpp
        new_alpha = min(max(alpha + step, lo), hi)
        new_l, new_lp, new_lpp = _partial_loglik_terms(new_alpha, d, d1, r, r1, r0)
        halvings = 0
        # `not >=` so a non-finite candidate keeps halving toward the iterate
        while not (new_l >= l - 1e-12) and halvings < 50:
            new_alpha = alpha + 0.5 * (new_alpha - alpha)
            new_l, new_lp, new_lpp = _partial_loglik_terms(new_alpha, d, d1, r, r1, r0)
            halvings += 1
        if abs(new_alpha - alpha) < 1e-13:
            break
        alpha, l, lp, lpp = new_alpha, new_l, new_lp, new_lpp
        if abs(alpha) > ALPHA_CAP:
            sign = 1.0 if alpha > 0 else -1.0
            return LocalEffectEstimate(
                sign * np.inf, n0, n1, "partial", balanced=balanced, defined=False, diverged=True
            )
    se = math.sqrt(-1.0 / lpp) if lpp < 0 else np.nan
    return LocalEffectEstimate(float(alpha), n0, n1, "partial", se=se, balanced=balanced)


def partial_likelihood_alpha(records: SurvivalRecords) -> LocalEffectEstimate:
    """One-parameter Cox partial-likelihood estimate of the arm effect.

    Newton iteration with analytic derivatives and step halving; Breslow ties.
    Events confined to one arm give a monotone likelihood, reported as a
    flagged infinite estimate.
    """
    n0, n1, _, _ = _arm_stats(records.events, records.treatments)
    return _partial_estimate(n0, n1, _risk_set_counts(records))


def partial_loglik(records: SurvivalRecords, alphas) -> np.ndarray:
    """Breslow partial log-likelihood evaluated on a grid of alpha values."""
    counts = _risk_set_counts(records)
    if counts is None:
        raise UndefinedCohortValue("no events in the cohort")
    d, d1, r, r1 = counts["d"], counts["d1"], counts["r"], counts["r1"]
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    r0 = r - r1
    denom = r0[None, :] + r1[None, :] * np.exp(alphas)[:, None]
    return np.sum(alphas[:, None] * d1[None, :] - d[None, :] * np.log(denom), axis=1)


def cox_fit(X, records: SurvivalRecords, names=None) -> CoxFit:
    """Multivariate Cox regression (Newton-Raphson, Breslow ties): a
    CoxFitError when COX_MAX_ITER steps do not converge.

    Standard errors come from the inverse observed information; p-values are
    two-sided Wald.
    """
    from .data import as_values

    Xv = as_values(X)
    n, p = Xv.shape
    if n != len(records):
        raise ValueError(f"{n} covariate rows vs {len(records)} records")
    if names is None:
        names = tuple(f"x_{j + 1}" for j in range(p))
    if len(names) != p:
        raise ValueError(f"{len(names)} names for {p} covariates")
    center = Xv.mean(axis=0)
    Xc = Xv - center[None, :]

    order = np.argsort(records.times, kind="mergesort")
    events = records.events[order]
    counts = _breslow_table(records.times[order], events, records.treatments[order])
    if counts is None:
        raise CoxFitError("no events: partial likelihood is constant")
    Z = Xc[order]
    event_pos = np.flatnonzero(events == 1)
    # one group per distinct event time, from the Breslow table: its risk
    # set starts at the first sorted position with that time
    group_m = counts["d"]
    group_start = n - counts["r"].astype(int)
    z_events_sum = Z[event_pos].sum(axis=0)

    def loglik_at(eta):
        w = np.exp(eta - eta.max())
        s0 = np.cumsum(w[::-1])[::-1]
        shift = eta.max()
        return float(
            eta[event_pos].sum()
            - (group_m * (np.log(s0[group_start]) + shift)).sum()
        )

    beta = np.zeros(p)
    loglik = -np.inf
    converged = False
    it = 0
    for it in range(1, COX_MAX_ITER + 1):
        eta = Z @ beta
        shift = eta.max()
        w = np.exp(eta - shift)
        s0 = np.cumsum(w[::-1])[::-1]
        s1 = np.cumsum((w[:, None] * Z)[::-1], axis=0)[::-1]
        s2 = np.cumsum((w[:, None, None] * (Z[:, :, None] * Z[:, None, :]))[::-1], axis=0)[::-1]
        g0 = s0[group_start]
        xbar = s1[group_start] / g0[:, None]
        ll = float(eta[event_pos].sum() - (group_m * (np.log(g0) + shift)).sum())
        grad = z_events_sum - (group_m[:, None] * xbar).sum(axis=0)
        info = (
            group_m[:, None, None] * (s2[group_start] / g0[:, None, None]
                                      - xbar[:, :, None] * xbar[:, None, :])
        ).sum(axis=0)
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError as exc:
            raise CoxFitError(
                f"singular information matrix at iteration {it} "
                f"(rank-deficient design or separated arms)"
            ) from exc
        # step halving if the log-likelihood would decrease
        scale = 1.0
        for _ in range(40):
            ll_c = loglik_at(Z @ (beta + scale * step))
            if ll_c >= ll - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        improved = ll - loglik
        loglik = ll
        if np.linalg.norm(grad, ord=np.inf) < 1e-9 and np.linalg.norm(scale * step) < 1e-9:
            converged = True
            break
        if it > 1 and abs(improved) < 1e-13:
            converged = True
            break
    if not converged:
        raise CoxFitError(
            f"Newton did not converge in {COX_MAX_ITER} iterations "
            f"(last gradient norm {np.linalg.norm(grad, ord=np.inf):.3g})"
        )
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diagonal(cov))
    z = beta / se
    # chdtrc(1, x) is chi2.sf(x, df=1) bit for bit for x >= 0 (NaN below 0,
    # which a square cannot reach)
    pvals = chdtrc(1, z**2)
    return CoxFit(beta, se, z, pvals, float(loglik), it, converged, tuple(names))


def kaplan_meier(records: SurvivalRecords) -> SurvivalCurve:
    """Product-limit survival estimate; censored subjects leave the risk set
    after their observed time."""
    if len(records) == 0:
        raise ValueError("no records")
    c = _risk_set_counts(records)
    if c is None:
        return SurvivalCurve(np.array([]), np.array([]), np.array([], dtype=int))
    return SurvivalCurve(c["times"], np.cumprod(1.0 - c["d"] / c["r"]), c["r"].astype(int))


@dataclass(frozen=True)
class LogRankResult:
    statistic: float
    p_value: float
    n_a: int
    n_b: int
    events_a: int
    events_b: int
    defined: bool = True


def logrank_test(group_a: SurvivalRecords, group_b: SurvivalRecords) -> LogRankResult:
    """One-degree-of-freedom log-rank test between two groups."""
    if len(group_a) == 0 or len(group_b) == 0:
        raise ValueError("both groups must be nonempty")
    n_a, n_b = len(group_a), len(group_b)
    events_a, events_b = int(group_a.events.sum()), int(group_b.events.sum())
    # one pooled table with group b tagged as arm 1
    c = _risk_set_counts(SurvivalRecords(
        np.concatenate([group_a.times, group_b.times]),
        np.concatenate([group_a.events, group_b.events]),
        np.concatenate([np.zeros(n_a, dtype=int), np.ones(n_b, dtype=int)]),
    ))
    if c is None:
        return LogRankResult(np.nan, np.nan, n_a, n_b, 0, 0, defined=False)
    d, d1, r, r1 = c["d"], c["d1"], c["r"], c["r1"]
    r0 = r - r1
    # Running sums in event-time order give the textbook recursion's values
    # bit for bit. A lone subject at risk (r = 1) has r - d = 0 and adds no
    # variance.
    expected = np.cumsum(d * r0 / r)[-1]
    variance = np.cumsum(d * (r0 / r) * (r1 / r) * (r - d) / np.maximum(r - 1, 1))[-1]
    if variance <= 0:
        return LogRankResult(np.nan, np.nan, n_a, n_b, events_a, events_b, defined=False)
    # a square over a positive variance, so chdtrc's NaN for x < 0 cannot occur
    stat = (np.sum(d - d1) - expected) ** 2 / variance
    return LogRankResult(float(stat), float(chdtrc(1, stat)), n_a, n_b, events_a, events_b)


@dataclass(frozen=True)
class RecommendationGroups:
    recommended: np.ndarray
    neutral: np.ndarray
    anti_recommended: np.ndarray
    sigma: float
    threshold: float


def recommend_groups(estimates, treatments, c: float) -> RecommendationGroups:
    """Split patients by the sign-vs-arm rules at threshold c * std(estimates),
    for a multiplier c >= 0 (a negative c would put a patient in two groups).

    Estimates are on the harm scale (positive = treatment raises the hazard):
    a patient followed the recommendation when the estimate exceeds the
    threshold and they are untreated, or falls below -threshold and they are
    treated.
    """
    f = np.asarray(estimates, dtype=float)
    a = np.asarray(treatments, dtype=int)
    if f.shape != a.shape:
        raise ValueError("estimates and treatments must align")
    if f.size == 0:
        raise ValueError("no estimates to split")
    if not c >= 0:
        raise ValueError(f"threshold multiplier c must be nonnegative, got {c}")
    if not np.all(np.isfinite(f)):
        raise ValueError("estimates must be finite; filter undefined points first")
    sigma = float(np.std(f))
    if not sigma > 0:
        raise ValueError("estimates have zero variance; no recommendation threshold exists")
    thr = c * sigma
    strong = np.abs(f) > thr
    followed = ((f > thr) & (a == 0)) | ((f < -thr) & (a == 1))
    against = ((f > thr) & (a == 1)) | ((f < -thr) & (a == 0))
    idx = np.arange(len(f))
    return RecommendationGroups(
        idx[strong & followed], idx[~strong], idx[strong & against], sigma, float(thr)
    )


class LocalAlphaFunctional:
    """Cohort functional F(E) = local arm-effect estimate on records[E].

    Satisfies the cohort-functional contract (raises the typed signals) while
    indexing the record columns directly; `detail` exposes the full estimate
    for balance filtering. The moments path is a few array ops per call,
    cheap enough for the inner weight loops.
    """

    def __init__(self, records: SurvivalRecords, kind: str = "moments",
                 min_cohort: int = 25):
        if kind not in ("moments", "partial"):
            raise ValueError(f"unknown estimator kind {kind!r}")
        _check_count("min_cohort", min_cohort, least=2)
        self.records = records
        self.kind = kind
        self.min_cohort = int(min_cohort)
        if kind == "partial":
            # the records' stable time order, once: a cohort's records in
            # time order are those at its sorted ranks
            order = np.argsort(records.times, kind="mergesort")
            self._rank = np.empty(order.size, dtype=int)
            self._rank[order] = np.arange(order.size)
            self._by_time = (records.times[order], records.events[order],
                             records.treatments[order])

    def detail(self, indices) -> LocalEffectEstimate:
        idx = np.asarray(indices, dtype=int)
        if idx.size < self.min_cohort:
            raise CohortTooSmallError(idx.size, self.min_cohort)
        if self.kind == "partial":
            pos = np.sort(self._rank[idx])
            t, events, treatments = (col[pos] for col in self._by_time)
            n1 = np.count_nonzero(treatments)
            return _partial_estimate(idx.size - n1, n1, _breslow_table(t, events, treatments))
        counts = _arm_stats(self.records.events[idx], self.records.treatments[idx])
        return _moments_estimate(*counts)

    def __call__(self, indices) -> float:
        est = self.detail(indices)
        if not est.defined or not np.isfinite(est.alpha):
            raise UndefinedCohortValue(
                f"local effect undefined on cohort (arms {est.n0}/{est.n1})"
            )
        return est.alpha


# ---------------------------------------------------------------------------
# Hazard model simulation and the misspecified-moments bias oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearRisk:
    """Untreated log-risk mu + beta . X, exposing its coefficients for the
    Taylor bias bound."""

    mu: float
    beta: np.ndarray

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.mu + np.asarray(X) @ np.asarray(self.beta, dtype=float)


@dataclass(frozen=True)
class HazardModel:
    """lambda(t|X) = lam * k * t^(k-1) * exp(alpha * T + y0(X)).

    y0 may be a constant or a callable of the covariate rows.
    """

    lam: float
    k: float
    alpha: float
    y0: object = 0.0

    def __post_init__(self):
        if not (self.lam > 0 and self.k > 0):
            raise ValueError(f"baseline Weibull parameters must be positive, got lam={self.lam}, "
                             f"k={self.k}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    def y0_values(self, X) -> np.ndarray:
        if callable(self.y0):
            return np.asarray(self.y0(X), dtype=float)
        return np.full(X.shape[0] if X is not None and hasattr(X, "shape") else 1, float(self.y0))


@dataclass(frozen=True)
class AdministrativeCensoring:
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True)
class ExponentialCensoring:
    rate: float
    horizon: float = np.inf

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"censoring rate must be positive, got {self.rate}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


def _censor(times: np.ndarray, treatments: np.ndarray, censor_times) -> SurvivalRecords:
    """Right censoring: an outcome after its censoring time is not observed.
    `censor_times` is one time per record, or one horizon for all."""
    observed = np.minimum(times, censor_times)
    events = (times <= censor_times).astype(int)
    return SurvivalRecords(observed, events, treatments)


def simulate_cohort(model: HazardModel, n: int, p_treated: float, censoring,
                    rng: np.random.Generator, x_sampler=None):
    """Simulate records from the hazard model under the censoring mechanism.

    Returns (records, X) where X is None when no covariate sampler is given.
    """
    if not 0 < p_treated < 1:
        raise ValueError("treatment probability must be in (0, 1)")
    X = x_sampler(rng, n) if x_sampler is not None else None
    y0 = model.y0_values(X) if X is not None else np.full(n, float(model.y0))
    T = (rng.random(n) < p_treated).astype(int)
    risk = np.exp(model.alpha * T + y0)
    W = weibull_sample(model.lam, model.k, rng, n) * risk ** (-1.0 / model.k)
    if isinstance(censoring, AdministrativeCensoring):
        C = np.full(n, censoring.horizon)
    elif isinstance(censoring, ExponentialCensoring):
        C = rng.exponential(1.0 / censoring.rate, n)
        if np.isfinite(censoring.horizon):
            C = np.minimum(C, censoring.horizon)
    else:
        raise TypeError(f"unsupported censoring model {censoring!r}")
    return _censor(W, T, C), X


def _outcome_probability(log_risk: np.ndarray, model: HazardModel, censoring) -> np.ndarray:
    """P(D = 1 | log-risk) under the baseline Weibull and censoring model."""
    r = np.asarray(log_risk, dtype=float)
    if isinstance(censoring, AdministrativeCensoring):
        cum = model.lam * censoring.horizon**model.k
        return 1.0 - np.exp(-cum * np.exp(r))
    if isinstance(censoring, ExponentialCensoring):
        # P(W <= C) = E_W[exp(-rate * W)], W = W0 * exp(-r/k); 64-node
        # Gauss-Legendre on the unit-exponential substitution s = lam W0^k e^r
        nodes, weights = np.polynomial.legendre.leggauss(64)
        smax = 40.0
        s = 0.5 * smax * (nodes + 1.0)
        ws = 0.5 * smax * weights
        w0 = (s[None, :] * np.exp(-r)[:, None] / model.lam) ** (1.0 / model.k)
        inner = np.exp(-censoring.rate * w0 - s[None, :])
        if np.isfinite(censoring.horizon):
            inner = np.where(w0 <= censoring.horizon, inner, 0.0)
        return inner @ ws
    raise TypeError(f"unsupported censoring model {censoring!r}")


@dataclass(frozen=True)
class BiasOracleResult:
    alpha_star: float
    se: float
    pi_treated: float
    pi_untreated: float
    taylor_bound: float | None
    n_samples: int


def mom_bias_oracle(model: HazardModel, p_treated: float, censoring, mc_samples: int,
                    rng: np.random.Generator, x_sampler=None) -> BiasOracleResult:
    """Limit point of the misspecified moments estimator.

    alpha* = alpha + log( Pi(1) E_X[Pi(X,0) e^{-Y0}] / (Pi(0) E_X[Pi(X,1) e^{-Y0}]) ),
    with Pi(X,T) computed exactly per sample and the expectations by Monte
    Carlo over X. For a LinearRisk y0, also returns the first-order Taylor
    bias bound (1/2) beta' Sigma beta |R(alpha) - R(-alpha)| with
    R(x) = 2 phi'(x)/phi(x) and phi the mean outcome probability at arm
    log-risk x (finite-difference derivative).
    """
    if not 0 < p_treated < 1:
        raise ValueError("zero-probability arm: p must be in (0, 1)")
    if mc_samples < 1:
        raise ValueError("mc_samples must be positive")
    X = x_sampler(rng, mc_samples) if x_sampler is not None else None
    y0 = model.y0_values(X) if X is not None else np.full(mc_samples, float(model.y0))

    pi0 = _outcome_probability(y0, model, censoring)
    pi1 = _outcome_probability(y0 + model.alpha, model, censoring)
    e = np.exp(-y0)
    a, b = pi1, pi0  # arm-level outcome probabilities
    A, B = pi0 * e, pi1 * e  # weighted cross terms
    log_ratio = (
        np.log(a.mean()) + np.log(A.mean()) - np.log(b.mean()) - np.log(B.mean())
    )
    alpha_star = model.alpha + log_ratio
    infl = (
        (a - a.mean()) / a.mean()
        + (A - A.mean()) / A.mean()
        - (b - b.mean()) / b.mean()
        - (B - B.mean()) / B.mean()
    )
    se = float(np.std(infl) / np.sqrt(mc_samples))

    bound = None
    if isinstance(model.y0, LinearRisk) and X is not None:
        sigma_x = np.cov(np.asarray(X), rowvar=False)
        beta = np.asarray(model.y0.beta, dtype=float)
        quad = float(beta @ np.atleast_2d(sigma_x) @ beta)

        def phi(x):
            return float(_outcome_probability(y0 + x, model, censoring).mean())

        h = 1e-3

        def big_r(x):
            val = phi(x)
            deriv = (phi(x + h) - phi(x - h)) / (2 * h)
            return 2.0 * deriv / val

        bound = 0.5 * quad * abs(big_r(model.alpha) - big_r(-model.alpha))
    return BiasOracleResult(
        float(alpha_star), se, float(a.mean()), float(b.mean()), bound, mc_samples
    )

import dataclasses

import numpy as np
import pytest

import cohortmetric.survival as survival
from cohortmetric.survival import (
    AdministrativeCensoring,
    ExponentialCensoring,
    HazardModel,
    LinearRisk,
    LocalAlphaFunctional,
    SurvivalRecords,
    cox_fit,
    kaplan_meier,
    logrank_test,
    mom_bias_oracle,
    moments_alpha,
    partial_likelihood_alpha,
    partial_loglik,
    recommend_groups,
    simulate_cohort,
    weibull_sample,
)

import partial_oracle


def random_cohort(rng, n=60, alpha=0.7, horizon=1.0):
    T = (rng.random(n) < 0.5).astype(int)
    W = weibull_sample(2.0, 1.2, rng, n) * np.exp(-alpha * T / 1.2)
    return SurvivalRecords(np.minimum(W, horizon), (W <= horizon).astype(int), T)


def tied_cohorts(seed, count=300):
    """Cohorts of 1-120 records with times rounded to 0-2 decimals, so events
    tie with each other and with censorings; every fourth is all-censored and
    every fourth (offset by one) has a single arm."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 121))
        times = np.round(rng.exponential(1.0, n), int(rng.integers(0, 3)))
        events = (rng.random(n) < rng.random()).astype(int)
        arms = (rng.random(n) < 0.5).astype(int)
        if i % 4 == 1:
            events[:] = 0
        elif i % 4 == 2:
            arms[:] = rng.integers(0, 2)
        yield SurvivalRecords(times, events, arms)


# --- weibull_sample -----------------------------------------------------------


def test_weibull_median_matches_quantile_formula():
    rng = np.random.default_rng(0)
    W = weibull_sample(2.0, 1.2, rng, 1_000_000)
    expected = (np.log(2.0) / 2.0) ** (1.0 / 1.2)
    assert abs(expected - 0.4135) < 5e-4
    assert abs(np.median(W) - expected) < 0.005


def test_weibull_k1_is_exponential():
    rng = np.random.default_rng(1)
    W = weibull_sample(3.0, 1.0, rng, 500_000)
    assert abs(W.mean() - 1.0 / 3.0) < 0.003
    # S(0) = 1: no mass at or below zero
    assert W.min() > 0


# --- censoring ------------------------------------------------------------------


def test_treatment_scaling_and_censoring():
    from cohortmetric.survival import _censor

    rec = _censor(np.array([0.5, 3.0]), np.array([0, 0]), 2.0)
    assert rec.times.tolist() == [0.5, 2.0]
    assert rec.events.tolist() == [1, 0]
    assert rec.treatments.tolist() == [0, 0]
    rec2 = _censor(np.array([0.5, 2.0]), np.array([1, 1]), 2.0)
    assert rec2.times.tolist() == [0.5, 2.0]  # an outcome at the horizon is observed
    assert rec2.events.tolist() == [1, 1]
    # a treated time scaled by e^beta = 3 (as the generators scale it) is
    # censored at the horizon only when the scaled time passes it
    rec3 = _censor(np.array([0.5, 1.0]) * 3.0, np.array([1, 1]), 2.0)
    np.testing.assert_allclose(rec3.times, [1.5, 2.0])
    assert rec3.events.tolist() == [1, 0]


def test_records_reject_fractional_events_and_arms():
    with pytest.raises(ValueError, match="0/1"):
        SurvivalRecords([1.0, 2.0], [0.5, 1.0], [1.9, 0.2])
    with pytest.raises(ValueError, match="0/1"):
        SurvivalRecords([1.0, 2.0], [0, 1], [1.0, 0.5])
    rec = SurvivalRecords([1.0, 2.0], [0.0, 1.0], np.array([True, False]))
    assert rec.events.tolist() == [0, 1] and rec.treatments.tolist() == [1, 0]
    assert rec.events.dtype == rec.treatments.dtype == np.dtype(int)


# --- moments_alpha -------------------------------------------------------------


def test_moments_symmetric_rates_give_zero():
    rec = SurvivalRecords(
        np.ones(40), np.array([1, 0] * 20), np.array([0, 1] * 10 + [1, 0] * 10)
    )
    est = moments_alpha(rec)
    assert est.delta == 0.0
    assert abs(est.alpha) < 1e-12


def test_moments_known_rates():
    n = 200_000
    d1 = int(0.3 * n)
    d0 = int(0.1 * n)
    events = np.concatenate([np.ones(d1), np.zeros(n - d1), np.ones(d0), np.zeros(n - d0)])
    arms = np.concatenate([np.ones(n + n - d1), np.zeros(n + n - d0)])[: 2 * n]
    arms = np.concatenate([np.ones(n), np.zeros(n)])
    rec = SurvivalRecords(np.ones(2 * n), events, arms)
    est = moments_alpha(rec)
    np.testing.assert_allclose(est.delta, 0.2, atol=1e-12)
    np.testing.assert_allclose(est.alpha, np.log(3.0), atol=1e-4)


def test_moments_single_arm_flagged():
    rec = SurvivalRecords(np.ones(10), np.ones(10), np.ones(10))
    est = moments_alpha(rec)
    assert not est.defined and np.isnan(est.alpha)


def test_moments_balance_flag():
    rec = SurvivalRecords(np.ones(10), np.ones(10), np.array([1] * 9 + [0]))
    assert not moments_alpha(rec).balanced
    rec2 = SurvivalRecords(np.ones(10), np.ones(10), np.array([1] * 6 + [0] * 4))
    assert moments_alpha(rec2).balanced


def test_moments_sign_consistency_under_positive_effect():
    rng = np.random.default_rng(2)
    model = HazardModel(lam=2.0, k=1.2, alpha=0.5, y0=0.0)
    rec, _ = simulate_cohort(model, 50_000, 0.5, AdministrativeCensoring(0.3), rng)
    assert moments_alpha(rec).alpha > 0


# --- partial_likelihood_alpha ---------------------------------------------------


def test_partial_symmetric_data_gives_zero():
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    events = np.array([1, 1, 0, 0, 1, 1])
    # swapping arm labels maps the dataset to itself
    arms = np.array([0, 1, 0, 1, 0, 1])
    est = partial_likelihood_alpha(SurvivalRecords(times, events, arms))
    swapped = partial_likelihood_alpha(SurvivalRecords(times, events, 1 - arms))
    np.testing.assert_allclose(est.alpha, -swapped.alpha, atol=1e-10)


def test_partial_score_zero_and_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rec = random_cohort(rng)
        est = partial_likelihood_alpha(rec)
        if not est.defined:
            continue
        h = 1e-5
        grid = np.array([est.alpha - h, est.alpha, est.alpha + h])
        l = partial_loglik(rec, grid)
        fd = (l[2] - l[0]) / (2 * h)
        assert abs(fd) < 1e-6  # score at the maximizer
        # derivative matches centered finite differences away from the max too
        a0 = est.alpha + 0.3
        l2 = partial_loglik(rec, [a0 - h, a0 + h])
        from cohortmetric.survival import _partial_loglik_terms, _risk_set_counts

        c = _risk_set_counts(rec)
        _, lp, _ = _partial_loglik_terms(a0, c["d"], c["d1"], c["r"], c["r1"])
        assert abs((l2[1] - l2[0]) / (2 * h) - lp) < 1e-6


def test_partial_matches_grid_search():
    rng = np.random.default_rng(4)
    rec = random_cohort(rng, n=30)
    est = partial_likelihood_alpha(rec)
    grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
    vals = partial_loglik(rec, grid)
    best = grid[int(np.argmax(vals))]
    assert abs(best - est.alpha) < 1e-3


def test_partial_monotone_likelihood_flagged():
    # events only in the treated arm
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.array([1, 1, 0, 0])
    arms = np.array([1, 1, 0, 0])
    est = partial_likelihood_alpha(SurvivalRecords(times, events, arms))
    assert est.diverged and np.isinf(est.alpha) and est.alpha > 0


def test_partial_concavity_and_monotone_newton():
    rng = np.random.default_rng(5)
    rec = random_cohort(rng, n=80)
    from cohortmetric.survival import _partial_loglik_terms, _risk_set_counts

    c = _risk_set_counts(rec)
    for a in np.linspace(-4, 4, 33):
        _, _, lpp = _partial_loglik_terms(a, c["d"], c["d1"], c["r"], c["r1"])
        assert lpp <= 0


def test_risk_set_counts_match_definition():
    from cohortmetric.survival import _risk_set_counts

    kinds = {"none": 0, "single_arm": 0, "mixed": 0}
    for rec in tied_cohorts(seed=20):
        t, e, a = rec.times, rec.events, rec.treatments
        c = _risk_set_counts(rec)
        uniq = np.unique(t[e == 1])
        if uniq.size == 0:
            assert c is None
            kinds["none"] += 1
            continue
        kinds["single_arm" if np.unique(a).size == 1 else "mixed"] += 1
        expected = {"times": uniq, "d": [], "d1": [], "r": [], "r1": []}
        for u in uniq:
            expected["r"].append(float((t >= u).sum()))
            expected["r1"].append(float(((t >= u) & (a == 1)).sum()))
            expected["d"].append(float(((t == u) & (e == 1)).sum()))
            expected["d1"].append(float(((t == u) & (e == 1) & (a == 1)).sum()))
        assert sorted(c) == sorted(expected)
        for key, want in expected.items():
            want = np.asarray(want)
            assert c[key].dtype == want.dtype, key
            assert np.array_equal(c[key], want), key
    assert min(kinds.values()) >= 50


@pytest.mark.parametrize("threshold", [0.5, 1.0])
def test_the_ends_of_the_balance_threshold_range_are_kept(threshold, monkeypatch):
    monkeypatch.setattr(survival, "BALANCE_THRESHOLD", threshold)
    arms = np.array([0] * 10 + [1] * 10 + [1] * 5)
    rec = SurvivalRecords(np.linspace(0.1, 2.0, 25), np.arange(25) % 2, arms)
    functional = LocalAlphaFunctional(rec, "moments", min_cohort=2)
    assert functional.detail(np.arange(20)).balanced  # 10 against 10
    assert functional.detail(np.arange(25)).balanced == (threshold == 1.0)  # 10 against 15
    assert moments_alpha(rec).balanced == (threshold == 1.0)


@pytest.mark.parametrize("min_cohort", [2.7, 25.0, True, "25", np.float64(3.0)],
                         ids=["2.7", "25.0", "True", "str", "float64"])
def test_a_min_cohort_that_is_not_an_integer_is_refused(min_cohort):
    rec = SurvivalRecords(np.ones(4), np.ones(4, dtype=int), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="min_cohort must be an integer"):
        LocalAlphaFunctional(rec, "moments", min_cohort=min_cohort)
    assert LocalAlphaFunctional(rec, "moments", min_cohort=np.int64(3)).min_cohort == 3


def test_detail_balance_flag_matches_moments_alpha(monkeypatch):
    rng = np.random.default_rng(21)
    arms = np.concatenate([np.zeros(30, dtype=int), np.ones(30, dtype=int)])
    rec = SurvivalRecords(rng.exponential(1.0, 60), (rng.random(60) < 0.5).astype(int), arms)
    cohorts = {
        "untreated only": np.arange(0, 20),
        "treated only": np.arange(30, 60),
        "mixed balanced": np.arange(15, 45),
        "mixed unbalanced": np.arange(2, 32),
        "mixed 70/30": np.arange(9, 39),
    }
    for threshold in (0.8, 0.6):
        monkeypatch.setattr(survival, "BALANCE_THRESHOLD", threshold)
        functional = LocalAlphaFunctional(rec, "moments", min_cohort=10)
        for name, idx in cohorts.items():
            want = moments_alpha(rec.subset(idx))
            got = functional.detail(idx)
            assert got.balanced == want.balanced, (threshold, name)
            for field in ("alpha", "delta", "se"):
                assert np.float64(getattr(got, field)).tobytes() == \
                    np.float64(getattr(want, field)).tobytes(), (threshold, name, field)
        assert not functional.detail(cohorts["treated only"]).balanced
        assert functional.detail(cohorts["mixed balanced"]).balanced
        assert functional.detail(cohorts["mixed 70/30"]).balanced == (threshold == 0.8)


def _estimate_bits(est):
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in dataclasses.astuple(est))


def test_presorted_detail_matches_partial_likelihood_on_the_subset_bit_for_bit():
    rng = np.random.default_rng(35)
    n = 700
    times = np.round(rng.exponential(1.0, n), 1)  # ties among events and censorings
    events = (rng.random(n) < 0.35).astype(int)
    arms = (rng.random(n) < 0.5).astype(int)
    records = SurvivalRecords(times, events, arms)
    F = LocalAlphaFunctional(records, "partial", min_cohort=2)
    treated, event = arms == 1, events == 1
    cohorts = [rng.choice(n, size, replace=False) for size in rng.integers(2, 250, 300)]
    cohorts += [
        rng.choice(np.flatnonzero(treated), 40, replace=False),  # one arm only
        rng.choice(np.flatnonzero(~event), 60, replace=False),  # no events
        # events in one arm only: the likelihood is monotone, +inf and -inf
        np.concatenate([rng.choice(np.flatnonzero(treated & event), 15, replace=False),
                        rng.choice(np.flatnonzero(~treated & ~event), 25, replace=False)]),
        np.concatenate([rng.choice(np.flatnonzero(~treated & event), 15, replace=False),
                        rng.choice(np.flatnonzero(treated & ~event), 25, replace=False)]),
        np.arange(n)[::-1],
    ]
    seen = set()
    for idx in cohorts:
        got = F.detail(idx)
        want = partial_likelihood_alpha(records.subset(idx))
        assert _estimate_bits(got) == _estimate_bits(want)
        seen.add("finite" if np.isfinite(got.alpha) else
                 "undefined" if np.isnan(got.alpha) else f"{got.alpha:+}")
    assert seen == {"finite", "undefined", "+inf", "-inf"}


def _oracle_cohorts(rng, records):
    """Cohorts of every kind the estimator branches on, plus random draws."""
    n = len(records)
    treated, event = records.treatments == 1, records.events == 1
    cohorts = [rng.choice(n, size, replace=False) for size in rng.integers(2, 300, 400)]
    return cohorts + [
        rng.choice(np.flatnonzero(treated), 40, replace=False),  # one arm only
        rng.choice(np.flatnonzero(~treated), 40, replace=False),
        rng.choice(np.flatnonzero(~event), 60, replace=False),  # no events
        # events in one arm only: the likelihood is monotone, +inf and -inf
        np.concatenate([rng.choice(np.flatnonzero(treated & event), 15, replace=False),
                        rng.choice(np.flatnonzero(~treated & ~event), 25, replace=False)]),
        np.concatenate([rng.choice(np.flatnonzero(~treated & event), 15, replace=False),
                        rng.choice(np.flatnonzero(treated & ~event), 25, replace=False)]),
        np.arange(n)[::-1],
    ]


@pytest.mark.parametrize("decimals", [None, 1, 0])  # distinct times, ties, heavy ties
@pytest.mark.parametrize("threshold", [0.8, 0.6])
def test_detail_equals_the_frozen_partial_estimator_bit_for_bit(decimals, threshold,
                                                                  monkeypatch):
    monkeypatch.setattr(survival, "BALANCE_THRESHOLD", threshold)
    rng = np.random.default_rng(41 if decimals is None else 42 + decimals)
    n = 900
    times = rng.exponential(1.0, n)
    if decimals is not None:
        times = np.round(times, decimals)
    events = (rng.random(n) < 0.5).astype(int)
    arms = (rng.random(n) < 0.5).astype(int)
    records = SurvivalRecords(times, events, arms)
    F = LocalAlphaFunctional(records, "partial", min_cohort=2)
    seen = set()
    for idx in _oracle_cohorts(rng, records):
        got = F.detail(idx)
        want = partial_oracle.cohort_estimate(records, idx, threshold)
        assert _estimate_bits(got) == _estimate_bits(want)
        seen.add("finite" if np.isfinite(got.alpha) else
                 "undefined" if np.isnan(got.alpha) else f"{got.alpha:+}")
    assert seen == {"finite", "undefined", "+inf", "-inf"}


def test_loglik_terms_equal_the_frozen_evaluation_bit_for_bit():
    from cohortmetric.survival import _partial_loglik_terms, _risk_set_counts

    alphas = [0.0, -0.0, 1e-9, -1e-9, 0.37, -0.37, 3.0, -3.0, 49.9, -49.9, 55.0, -55.0]
    for rec in tied_cohorts(seed=43, count=120):
        c = _risk_set_counts(rec)
        if c is None:
            continue
        args = (c["d"], c["d1"], c["r"], c["r1"])
        for a in alphas:
            want = np.array(partial_oracle.loglik_terms(a, *args))
            for got in (_partial_loglik_terms(a, *args),
                        _partial_loglik_terms(a, *args, c["r"] - c["r1"])):
                assert np.array(got).tobytes() == want.tobytes(), a


def test_estimators_agree_in_sign_when_strong():
    rng = np.random.default_rng(6)
    model = HazardModel(lam=2.0, k=1.2, alpha=0.8, y0=0.0)
    rec, _ = simulate_cohort(model, 10_000, 0.5, AdministrativeCensoring(0.4), rng)
    m = moments_alpha(rec)
    p = partial_likelihood_alpha(rec)
    assert abs(m.alpha) > 2 * m.se and abs(p.alpha) > 2 * p.se
    assert np.sign(m.alpha) == np.sign(p.alpha)


# --- cox_fit -------------------------------------------------------------------


def test_cox_single_covariate_equals_scalar_newton():
    rng = np.random.default_rng(7)
    for trial in range(5):
        rec = random_cohort(rng, n=100)
        est = partial_likelihood_alpha(rec)
        fit = cox_fit(rec.treatments[:, None].astype(float), rec)
        np.testing.assert_allclose(fit.coef[0], est.alpha, atol=1e-8)


def test_cox_null_data_behaves():
    rng = np.random.default_rng(8)
    n = 4000
    X = rng.normal(size=(n, 3))
    W = weibull_sample(1.0, 1.0, rng, n)
    rec = SurvivalRecords(np.minimum(W, 1.0), (W <= 1.0).astype(int), (rng.random(n) < 0.5).astype(int))
    fit = cox_fit(X, rec)
    assert np.all(np.abs(fit.coef) < 0.1)
    assert fit.p_values.min() > 1e-4


def test_cox_recovers_planted_effects():
    rng = np.random.default_rng(9)
    n = 6000
    X = rng.normal(size=(n, 2))
    beta_true = np.array([0.8, -0.5])
    risk = np.exp(X @ beta_true)
    W = weibull_sample(1.0, 1.0, rng, n) / risk
    rec = SurvivalRecords(np.minimum(W, 2.0), (W <= 2.0).astype(int), np.zeros(n, dtype=int))
    fit = cox_fit(X, rec)
    np.testing.assert_allclose(fit.coef, beta_true, atol=0.08)


def test_cox_rank_deficiency_reported():
    from cohortmetric.survival import CoxFitError

    rng = np.random.default_rng(10)
    n = 50
    x = rng.normal(size=n)
    X = np.column_stack([x, 2 * x])
    W = weibull_sample(1.0, 1.0, rng, n)
    rec = SurvivalRecords(W, np.ones(n, dtype=int), np.zeros(n, dtype=int))
    with pytest.raises(CoxFitError):
        cox_fit(X, rec)


def test_cox_refuses_a_zero_iteration_budget_and_names_of_the_wrong_length():
    rng = np.random.default_rng(12)
    rec = random_cohort(rng, n=60)
    X = rng.normal(size=(60, 2))
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        cox_fit(X, rec, max_iter=0)
    with pytest.raises(ValueError, match="1 names for 2 covariates"):
        cox_fit(X, rec, names=("a",))
    assert cox_fit(X, rec, names=("a", "b")).names == ("a", "b")


def test_cox_p_values_equal_scipy_stats_chi2_bit_for_bit():
    from scipy.stats import chi2

    rng = np.random.default_rng(11)
    n = 3000
    X = rng.normal(size=(n, 2))
    W = weibull_sample(1.0, 1.0, rng, n) / np.exp(1.5 * X[:, 0] + 0.1 * X[:, 1])
    rec = SurvivalRecords(np.minimum(W, 2.0), (W <= 2.0).astype(int), np.zeros(n, dtype=int))
    # a strong and a weak effect, then 30 covariates unrelated to the outcome:
    # z^2 from tiny to far past the underflow of the p-value
    designs = [X] + [rng.normal(size=(n, 1)) for _ in range(30)]
    z2 = []
    for Z in designs:
        fit = cox_fit(Z, rec)
        assert fit.p_values.tobytes() == chi2.sf(fit.z**2, df=1).tobytes()
        z2.extend(fit.z**2)
    z2 = np.array(z2)
    assert z2.min() < 1e-2 and ((z2 > 1) & (z2 < 100)).any()
    assert z2.max() > 1e3 and chi2.sf(z2.max(), df=1) == 0


# --- mom_bias_oracle ------------------------------------------------------------


def test_oracle_constant_y0_is_exact():
    rng = np.random.default_rng(11)
    model = HazardModel(lam=2.0, k=1.2, alpha=0.7, y0=-0.4)
    res = mom_bias_oracle(model, 0.5, AdministrativeCensoring(0.5), 100_000, rng)
    assert res.se < 1e-12
    np.testing.assert_allclose(res.alpha_star, 0.7, atol=1e-12)


def test_oracle_alpha_zero_gives_zero():
    rng = np.random.default_rng(12)

    def sampler(r, size):
        return r.normal(size=(size, 3))

    model = HazardModel(lam=2.0, k=1.2, alpha=0.0, y0=LinearRisk(0.1, np.array([0.5, -0.3, 0.2])))
    res = mom_bias_oracle(model, 0.5, AdministrativeCensoring(0.5), 50_000, rng, x_sampler=sampler)
    np.testing.assert_allclose(res.alpha_star, 0.0, atol=1e-12)


def test_oracle_matches_large_n_simulation_linear_y0():
    # The characterization is exact in the rare-outcome regime, so the
    # agreement check runs with a short horizon (outcome rate ~3%).
    rng = np.random.default_rng(13)
    beta = np.array([0.25, -0.15])

    def sampler(r, size):
        return r.normal(size=(size, 2))

    model = HazardModel(lam=2.0, k=1.2, alpha=0.5, y0=LinearRisk(-0.2, beta))
    cens = AdministrativeCensoring(0.04)
    res = mom_bias_oracle(model, 0.5, cens, 400_000, rng, x_sampler=sampler)
    rec, _ = simulate_cohort(model, 200_000, 0.5, cens, rng, x_sampler=sampler)
    est = moments_alpha(rec)
    mc_se = 3 * np.sqrt(est.se**2 + res.se**2)
    assert abs(est.alpha - res.alpha_star) < mc_se
    assert res.taylor_bound is not None and res.taylor_bound >= 0


def test_oracle_exponential_censoring_probability():
    # quadrature path cross-checked by direct simulation
    rng = np.random.default_rng(14)
    model = HazardModel(lam=2.0, k=1.2, alpha=0.0, y0=0.3)
    cens = ExponentialCensoring(rate=1.5)
    res = mom_bias_oracle(model, 0.5, cens, 1000, rng)
    rec, _ = simulate_cohort(model, 400_000, 0.5, cens, rng)
    assert abs(res.pi_untreated - rec.events[rec.treatments == 0].mean()) < 0.01


def test_oracle_rejects_bad_p():
    model = HazardModel(lam=1.0, k=1.0, alpha=0.1, y0=0.0)
    with pytest.raises(ValueError, match="zero-probability"):
        mom_bias_oracle(model, 1.0, AdministrativeCensoring(1.0), 100, np.random.default_rng(0))


NAN = float("nan")


@pytest.mark.parametrize("make, message", [
    (lambda: HazardModel(lam=NAN, k=1.2, alpha=0.5), "Weibull"),
    (lambda: HazardModel(lam=2.0, k=NAN, alpha=0.5), "Weibull"),
    (lambda: HazardModel(lam=2.0, k=1.2, alpha=NAN), "alpha"),
    (lambda: AdministrativeCensoring(NAN), "horizon"),
    (lambda: ExponentialCensoring(NAN), "rate"),
    (lambda: ExponentialCensoring(1.0, horizon=-1.0), "horizon"),
    (lambda: ExponentialCensoring(1.0, horizon=NAN), "horizon"),
    (lambda: weibull_sample(NAN, 1.2, np.random.default_rng(0), 3), "Weibull"),
    (lambda: weibull_sample(2.0, NAN, np.random.default_rng(0), 3), "Weibull"),
], ids=["lam", "k", "alpha", "admin_horizon", "exp_rate", "exp_horizon_negative",
        "exp_horizon_nan", "sample_lam", "sample_k"])
def test_simulator_refuses_nan_and_nonpositive_parameters(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# --- kaplan_meier ----------------------------------------------------------------


def test_km_no_events_is_flat():
    rec = SurvivalRecords(np.ones(5), np.zeros(5), np.zeros(5))
    curve = kaplan_meier(rec)
    assert curve.times.size == 0
    np.testing.assert_allclose(curve.evaluate([0.5, 2.0]), 1.0)


def test_km_single_event():
    rec = SurvivalRecords(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 0, 0, 0]), np.zeros(4))
    curve = kaplan_meier(rec)
    np.testing.assert_allclose(curve.survival, [0.75])
    np.testing.assert_allclose(curve.evaluate([0.9, 1.0, 5.0]), [1.0, 0.75, 0.75])


def test_km_textbook_mixed_censoring():
    # times 1, 2+, 3, 4+, 5, 6+ -> S = 5/6, 5/8, 5/16 at the event times
    rec = SurvivalRecords(
        np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        np.array([1, 0, 1, 0, 1, 0]),
        np.zeros(6),
    )
    curve = kaplan_meier(rec)
    np.testing.assert_allclose(curve.times, [1.0, 3.0, 5.0])
    np.testing.assert_allclose(curve.survival, [5.0 / 6.0, 5.0 / 8.0, 5.0 / 16.0])
    np.testing.assert_allclose(curve.at_risk, [6, 4, 2])


def test_km_monotone_with_one_step_per_event_time():
    rng = np.random.default_rng(15)
    rec = random_cohort(rng, n=200)
    curve = kaplan_meier(rec)
    assert np.all(np.diff(curve.survival) < 1e-15)
    assert curve.times.size == np.unique(rec.times[rec.events == 1]).size
    assert curve.survival.min() > 0 and curve.survival.max() <= 1


def _km_loop(records):
    """Per-event-time product-limit loop, the reference for kaplan_meier."""
    order = np.argsort(records.times, kind="mergesort")
    t = records.times[order]
    d = records.events[order]
    n = len(t)
    event_times = np.unique(t[d == 1])
    surv, at_risk = [], []
    s = 1.0
    for ut in event_times:
        r = n - np.searchsorted(t, ut, side="left")
        deaths = int(d[t == ut].sum())
        s *= 1.0 - deaths / r
        surv.append(s)
        at_risk.append(r)
    return event_times, np.array(surv), np.array(at_risk, dtype=int)


def test_km_matches_loop_bitwise():
    for rec in tied_cohorts(seed=22):
        curve = kaplan_meier(rec)
        for got, want in zip((curve.times, curve.survival, curve.at_risk), _km_loop(rec)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


# --- logrank_test ----------------------------------------------------------------


def test_logrank_identical_groups():
    rng = np.random.default_rng(16)
    rec = random_cohort(rng, n=50)
    res = logrank_test(rec, rec)
    np.testing.assert_allclose(res.statistic, 0.0, atol=1e-12)
    np.testing.assert_allclose(res.p_value, 1.0)


def test_logrank_power_on_separated_groups():
    rng = np.random.default_rng(17)
    a = SurvivalRecords(*_exp_group(rng, 500, rate=1.0))
    b = SurvivalRecords(*_exp_group(rng, 500, rate=np.e))
    res = logrank_test(a, b)
    assert res.p_value < 0.01


def _exp_group(rng, n, rate):
    W = rng.exponential(1.0 / rate, n)
    horizon = 2.0
    return np.minimum(W, horizon), (W <= horizon).astype(int), np.zeros(n, dtype=int)


def test_logrank_null_calibration():
    rng = np.random.default_rng(18)
    n = 240
    W = rng.exponential(1.0, n)
    times = np.minimum(W, 2.0)
    events = (W <= 2.0).astype(int)
    rejections = 0
    for trial in range(100):
        labels = rng.permutation(n) < n // 2
        a = SurvivalRecords(times[labels], events[labels], np.zeros(labels.sum(), dtype=int))
        b = SurvivalRecords(times[~labels], events[~labels], np.zeros((~labels).sum(), dtype=int))
        if logrank_test(a, b).p_value <= 0.05:
            rejections += 1
    assert rejections <= 10


def test_logrank_no_events_flagged():
    a = SurvivalRecords(np.ones(3), np.zeros(3), np.zeros(3))
    res = logrank_test(a, a)
    assert not res.defined


def _logrank_loop(group_a, group_b):
    """Per-event-time log-rank loop, the reference for logrank_test:
    (statistic, defined)."""
    ta, da = group_a.times, group_a.events
    tb, db = group_b.times, group_b.events
    all_event_times = np.unique(np.concatenate([ta[da == 1], tb[db == 1]]))
    if all_event_times.size == 0:
        return np.nan, False
    observed = expected = variance = 0.0
    for ut in all_event_times:
        ra = int((ta >= ut).sum())
        rb = int((tb >= ut).sum())
        r = ra + rb
        d = int(da[ta == ut].sum() + db[tb == ut].sum())
        d_a = int(da[ta == ut].sum())
        if r == 0:
            continue
        observed += d_a
        expected += d * ra / r
        if r > 1:
            variance += d * (ra / r) * (rb / r) * (r - d) / (r - 1)
    if variance <= 0:
        return np.nan, False
    return (observed - expected) ** 2 / variance, True


def test_logrank_matches_loop():
    cohorts = list(tied_cohorts(seed=23))
    for rec_a, rec_b in zip(cohorts[::2], cohorts[1::2]):
        res = logrank_test(rec_a, rec_b)
        stat, defined = _logrank_loop(rec_a, rec_b)
        assert res.defined == defined
        assert (res.n_a, res.n_b) == (len(rec_a), len(rec_b))
        if defined:
            assert res.statistic == stat


def test_logrank_p_value_equals_scipy_stats_chi2_bit_for_bit():
    from scipy.stats import chi2

    rng = np.random.default_rng(19)
    same = random_cohort(rng, n=50)
    pairs = [(same, same)]  # a statistic of exactly 0
    pairs.append((SurvivalRecords(*_exp_group(rng, 2000, rate=1.0)),
                  SurvivalRecords(*_exp_group(rng, 2000, rate=30.0))))  # p underflows to 0
    # random halves of one sample: null statistics, some of them tiny
    times, events, arms = _exp_group(rng, 240, rate=1.0)
    for _ in range(100):
        half = rng.permutation(240) < 120
        pairs.append((SurvivalRecords(times[half], events[half], arms[half]),
                      SurvivalRecords(times[~half], events[~half], arms[~half])))
    cohorts = list(tied_cohorts(seed=29))
    pairs.extend(zip(cohorts[::2], cohorts[1::2]))
    stats = []
    for a, b in pairs:
        res = logrank_test(a, b)
        if res.defined:
            assert np.float64(res.p_value).tobytes() == chi2.sf(res.statistic, df=1).tobytes()
            stats.append(res.statistic)
    stats = np.array(stats)
    assert (stats == 0).any() and ((stats > 0) & (stats < 1e-3)).any()
    assert ((stats > 1) & (stats < 100)).any() and stats.max() > 1e3


# --- recommend_groups -------------------------------------------------------------


def test_recommend_rules_and_partition():
    f = np.array([2.0, 2.0, -2.0, -2.0, 0.1, -0.1])
    arms = np.array([0, 1, 0, 1, 0, 1])
    groups = recommend_groups(f, arms, c=0.5)
    assert groups.recommended.tolist() == [0, 3]
    assert groups.anti_recommended.tolist() == [1, 2]
    assert groups.neutral.tolist() == [4, 5]
    all_idx = np.sort(np.concatenate([groups.recommended, groups.neutral, groups.anti_recommended]))
    assert all_idx.tolist() == list(range(6))
    # at c=-1 patients 1 and 2 would be both recommended and anti-recommended,
    # and at c=nan every patient would be neutral
    for c in (-1.0, NAN):
        with pytest.raises(ValueError, match="threshold multiplier"):
            recommend_groups(np.array([-1.0, -0.2, 0.1, 0.9]), np.array([0, 1, 0, 1]), c=c)


def test_recommend_huge_c_all_neutral():
    f = np.array([1.0, -1.0, 0.5])
    groups = recommend_groups(f, np.array([0, 1, 0]), c=1e9)
    assert groups.neutral.size == 3
    assert groups.recommended.size == 0 and groups.anti_recommended.size == 0


def test_recommend_refuses_an_empty_estimate_array():
    with pytest.raises(ValueError, match="no estimates"):
        recommend_groups(np.array([]), np.array([], dtype=int), c=0.5)


def test_recommend_random_partition_exhaustive():
    rng = np.random.default_rng(19)
    f = rng.normal(size=500)
    arms = (rng.random(500) < 0.5).astype(int)
    groups = recommend_groups(f, arms, c=0.8)
    parts = [set(groups.recommended), set(groups.neutral), set(groups.anti_recommended)]
    assert sum(len(p) for p in parts) == 500
    assert set().union(*parts) == set(range(500))

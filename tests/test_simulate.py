import numpy as np
import pytest
from scipy.stats import norm

from cohortmetric.simulate import (
    TrialSpec,
    calibrate_horizon,
    gen_propensity_trial,
    gen_random_model,
    gen_sphere_trial,
    random_spd,
    score_against_truth,
    sphere_effect,
)

from weibull_oracle import conditional_outcome_fraction


# --- sphere trial -----------------------------------------------------------------


def test_sphere_triples_on_unit_sphere():
    ds = gen_sphere_trial(TrialSpec("sphere", n=2000, seed=0))
    X = ds.data.values
    assert X.min() >= 0.0 and X.max() <= 1.0
    for t in range(3):
        norms = (X[:, 3 * t : 3 * t + 3] ** 2).sum(axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_sphere_effect_sup_is_log3():
    ds = gen_sphere_trial(TrialSpec("sphere", n=10_000, seed=1))
    beta = ds.truth.true_effect
    assert abs(np.abs(beta).max() - np.log(3.0)) < 0.02
    # signed pockets: both signs present, small mean
    assert beta.max() > 0.5 and beta.min() < -0.5
    assert abs(beta.mean()) < 0.06


def test_sphere_population_effect_mean_is_small():
    # pockets nearly balance; the residual mean is the price of calibrating
    # the marginal Cox treatment coefficient to zero under censoring
    rng = np.random.default_rng(2)
    g = np.abs(rng.normal(size=(200_000, 3)))
    v = g / np.linalg.norm(g, axis=1, keepdims=True)
    beta = sphere_effect(v, 3.0, 0.30)
    assert abs(beta.mean()) < 0.05
    # sup of the positive pocket stays at log(3)
    assert abs(beta.max() - np.log(3.0)) < 0.02


def test_sphere_reproducible():
    a = gen_sphere_trial(TrialSpec("sphere", n=500, seed=3))
    b = gen_sphere_trial(TrialSpec("sphere", n=500, seed=3))
    assert np.array_equal(a.data.values, b.data.values)
    assert np.array_equal(a.records.times, b.records.times)
    assert np.array_equal(a.records.treatments, b.records.treatments)


def test_sphere_outcome_fraction_at_default_parameters():
    # the default parameters censor almost no one (~97.6% have an outcome);
    # the realized fraction must match the closed form worked from
    # S(t) = exp(-lam t^k) within 4 binomial sd
    ds = gen_sphere_trial(TrialSpec("sphere", n=10_000, seed=4))
    expected, sd = conditional_outcome_fraction(ds)
    assert abs(ds.info["outcome_fraction"] - expected) <= 4 * sd


def test_sphere_calibrated_censoring():
    ds = gen_sphere_trial(TrialSpec("sphere", n=4000, seed=5, outcome_target=0.105, horizon=None))
    assert abs(ds.info["outcome_fraction"] - 0.105) < 0.01


# --- propensity trial ----------------------------------------------------------------


def test_propensity_covariance_matches_tridiagonal():
    ds = gen_propensity_trial(TrialSpec("propensity", n=100_000, seed=6))
    X = ds.data.values
    emp = np.cov(X, rowvar=False)
    expected = np.eye(9)
    idx = np.arange(8)
    expected[idx, idx + 1] = expected[idx + 1, idx] = 0.5
    assert np.abs(emp - expected).max() < 0.02


def test_propensity_matches_probit_curve():
    ds = gen_propensity_trial(TrialSpec("propensity", n=100_000, seed=7))
    X = ds.data.values
    score = 0.5 + X[:, 0] + X[:, 1]
    bins = np.quantile(score, np.linspace(0, 1, 11))
    for lo, hi in zip(bins, bins[1:]):
        sel = (score >= lo) & (score < hi)
        if sel.sum() < 1000:
            continue
        observed = ds.records.treatments[sel].mean()
        expected = norm.cdf(score[sel]).mean()
        assert abs(observed - expected) < 0.03


def test_propensity_balanced_when_gamma_zero():
    spec = TrialSpec("propensity", n=50_000, seed=8, gamma0=0.0, gamma=(0.0,) * 9)
    ds = gen_propensity_trial(spec)
    assert abs(ds.records.treatments.mean() - 0.5) < 0.01


def test_propensity_truth_is_interaction_term():
    ds = gen_propensity_trial(TrialSpec("propensity", n=100, seed=9))
    np.testing.assert_allclose(ds.truth.true_effect, ds.data.values[:, 1])
    assert ds.truth.effect_scale == "log_hazard"


# --- random model -----------------------------------------------------------------------


def test_random_spd_condition_bound():
    rng = np.random.default_rng(10)
    for _ in range(100):
        cov = random_spd(6, 10.0, rng)
        assert np.linalg.cond(cov) < 10.0


def test_random_model_support_rule():
    for seed in range(10):
        ds = gen_random_model(TrialSpec("random", n=50, seed=seed, dim=6))
        xi, nu = ds.info["xi"], ds.info["nu"]
        eta, delta = ds.info["eta"], ds.info["delta"]
        for i in range(6):
            for j in range(6):
                if eta[i, j] != 0:
                    assert xi[i] != 0 and xi[j] != 0
                if delta[i, j] != 0:
                    assert nu[i] != 0 and nu[j] != 0
        # zero first-order support forces the whole row/column to zero
        for i in range(6):
            if xi[i] == 0:
                assert np.all(eta[i, :] == 0) and np.all(eta[:, i] == 0)


def test_random_model_outcome_fraction_matches_drawn_target():
    for seed in (11, 12, 13):
        ds = gen_random_model(TrialSpec("random", n=2000, seed=seed, dim=6, horizon=None))
        target = ds.info["outcome_target"]
        assert 1.0 / 3.0 <= target <= 1.0
        assert abs(ds.info["outcome_fraction"] - target) < 0.03


def test_random_model_reproducible():
    a = gen_random_model(TrialSpec("random", n=300, seed=14, dim=5))
    b = gen_random_model(TrialSpec("random", n=300, seed=14, dim=5))
    assert np.array_equal(a.records.times, b.records.times)
    assert np.array_equal(a.truth.true_effect, b.truth.true_effect)


@pytest.mark.parametrize("gamma", [(), (8.0, -8.0, 3.0, 0.0, 0.0, 0.0)])
def test_random_model_propensity_equals_scipy_stats_norm_bit_for_bit(gamma):
    # the large gamma pushes scores into both tails and into the clip
    spec = TrialSpec("random", n=2000, seed=16, dim=6, gamma=gamma)
    ds = gen_random_model(spec)
    score = spec.gamma0 + ds.data.values @ spec.resolve_gamma()
    expected = np.clip(norm.cdf(score), 1e-12, 1 - 1e-12)
    assert ds.truth.propensity.tobytes() == expected.tobytes()


def test_generated_trial_files_are_pinned(tmp_path):
    import hashlib

    from cohortmetric import io
    from cohortmetric.simulate import generate

    ds = generate(TrialSpec("random", n=200, seed=5))
    io.write_dataset_csv(tmp_path / "dataset.csv", ds.data, ds.records)
    io.write_truth_csv(tmp_path / "truth.csv", ds.data.point_ids, ds.truth)
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("dataset.csv", "truth.csv")}
    # taken with numpy 2.4, scipy 1.17 and OpenBLAS 0.3 on x86-64, while the
    # propensities came from scipy.stats.norm.cdf
    assert digest == {
        "dataset.csv": "3c977b5b5bd573cfc36c85b375ccacb0d5cfc2b5b753c1d7c7fafd16d5c9aa96",
        "truth.csv": "d360561723d9e745ef4d27c10e891f9b509a43a78968bec8383512be455cac3e",
    }


def test_calibration_monotone_in_quantile():
    rng = np.random.default_rng(15)
    times = rng.exponential(1.0, 5000)
    fractions = []
    for q in (0.2, 0.4, 0.6, 0.8):
        horizon = calibrate_horizon(times, q)
        fractions.append((times <= horizon).mean())
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    np.testing.assert_allclose(fractions, (0.2, 0.4, 0.6, 0.8), atol=2e-3)


# --- scoring -----------------------------------------------------------------------------


def test_score_perfect_estimates():
    truth = np.random.default_rng(16).normal(size=100)
    res = score_against_truth(truth.copy(), truth)
    np.testing.assert_allclose(res.correlation, 1.0)
    assert res.n_kept == 100


def test_score_independent_noise_near_zero():
    rng = np.random.default_rng(17)
    res = score_against_truth(rng.normal(size=2000), rng.normal(size=2000))
    assert abs(res.correlation) < 0.1


def test_score_all_filtered_flagged():
    res = score_against_truth(np.full(5, np.nan), np.arange(5.0))
    assert not res.defined
    res2 = score_against_truth(np.arange(5.0), np.arange(5.0), keep=np.zeros(5, dtype=bool))
    assert not res2.defined


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        TrialSpec("bogus", n=10)
    with pytest.raises(ValueError, match="outcome_target"):
        TrialSpec("sphere", n=10, outcome_target=1.5)
    for dim in (7, 0, -3):
        with pytest.raises(ValueError, match="positive multiple of 3"):
            TrialSpec("sphere", n=10, dim=dim)
    for kind in ("propensity", "random"):
        with pytest.raises(ValueError, match="dimension >= 2"):
            TrialSpec(kind, n=50, dim=1)
    with pytest.raises(ValueError, match="unknown trial spec keys"):
        TrialSpec.from_dict({"kind": "sphere", "n": 10, "bogus_key": 1})


@pytest.mark.parametrize("field, value", [("n", 50.5), ("n", True), ("dim", 9.0),
                                          ("seed", 1.5), ("seed", False)])
def test_spec_refuses_a_count_or_seed_that_is_not_an_integer(field, value):
    spec = {"kind": "sphere", "n": 50, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        TrialSpec(**spec)
    with pytest.raises(ValueError, match="must be an integer"):
        TrialSpec.from_dict(spec)


# Values that construction let through and generation then failed on
# (a NaN passes `<= 0`), or that the trial ignored.
BAD_SPECS = [
    (dict(kind="sphere", weibull_lam=float("nan")), "Weibull"),
    (dict(kind="random", weibull_k=float("inf")), "Weibull"),
    (dict(kind="sphere", sup_effect=0.0), "sup_effect"),
    (dict(kind="sphere", sup_effect=-2.0), "sup_effect"),
    (dict(kind="sphere", sup_effect=float("nan")), "sup_effect"),
    (dict(kind="propensity", gamma=(1.0, 1.0)), "gamma must have length 9"),
    (dict(kind="random", dim=6, gamma=(1.0,) * 7), "gamma must have length 6"),
    (dict(kind="sphere", gamma=(1.0,) * 9), "sphere trial has no treatment propensity"),
    (dict(kind="sphere", horizon=float("nan")), "horizon"),
    (dict(kind="random", condition_bound=float("nan")), "condition bound"),
]


@pytest.mark.parametrize("fields, message", BAD_SPECS)
def test_spec_refuses_what_generation_would_trip_on(fields, message):
    with pytest.raises(ValueError, match=message):
        TrialSpec(n=50, **fields)

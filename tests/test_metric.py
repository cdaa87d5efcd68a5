import numpy as np
import pytest

from cohortmetric.config import RunConfig
from cohortmetric.diffusion import markov_normalize, spectral_embed
from cohortmetric.metric import (
    Bin,
    CohortFunctional,
    NeighborhoodRule,
    aggregate_point_weights,
    bin_feature,
    compute_weight_field,
    folder_weight,
    fit_weighted_metric,
    multiscale_estimate,
    pointwise_estimate,
    weighted_kernel,
)
from cohortmetric.survival import CohortTooSmallError, UndefinedCohortValue
from cohortmetric.tree import PartitionTree


def make_tree(levels_points):
    """Build a PartitionTree from nested lists of point-index lists."""
    return PartitionTree([[np.array(sorted(pts)) for pts in level] for level in levels_points])


# --- CohortFunctional ---------------------------------------------------------


def test_functional_enforces_min_cohort():
    F = CohortFunctional.from_labels(np.arange(10.0), min_cohort=3)
    assert F([0, 1, 2]) == 1.0
    with pytest.raises(CohortTooSmallError):
        F([0, 1])


# --- bin_feature -----------------------------------------------------------------


def test_bins_constant_feature_single_bin():
    X = np.ones((8, 2))
    bins = bin_feature(np.arange(8), X, feature=0, k_bins=3)
    assert len(bins) == 1
    assert bins[0].indices.tolist() == list(range(8))


def test_bins_hand_quantiles():
    X = np.arange(1.0, 10.0)[:, None]  # values 1..9
    bins = bin_feature(np.arange(9), X, feature=0, k_bins=3)
    assert [b.indices.tolist() for b in bins] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_bins_partition_with_duplicate_boundaries():
    X = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])[:, None]
    bins = bin_feature(np.arange(8), X, feature=0, k_bins=3)
    got = np.sort(np.concatenate([b.indices for b in bins]))
    assert got.tolist() == list(range(8))
    sizes = sum(b.indices.size for b in bins)
    assert sizes == 8


# --- folder_weight ----------------------------------------------------------------


def constant_functional(value, c=1):
    return CohortFunctional(lambda idx: value, c)


def test_weight_zero_for_constant_functional():
    bins = [Bin(np.arange(5), 0.0, 1.0), Bin(np.arange(5, 10), 1.0, 2.0)]
    assert folder_weight(bins, constant_functional(3.3)) == 0.0


def test_weight_two_equal_bins():
    labels = np.array([0.0] * 5 + [1.0] * 5)
    F = CohortFunctional.from_labels(labels, min_cohort=2)
    bins = [Bin(np.arange(5), 0.0, 0.4), Bin(np.arange(5, 10), 0.6, 1.0)]
    # F values 0 and 1 on equal bins: mean 0.5, weight 0.25
    np.testing.assert_allclose(folder_weight(bins, F), 0.25)


def test_weight_three_bins_hand_value():
    # sizes (2,1,1) with F values (0,1,1): Fbar = 0.5, weight = 0.25
    vals = {(0, 1): 0.0, (2,): 1.0, (3,): 1.0}
    F = CohortFunctional(lambda idx: vals[tuple(idx)], 1)
    bins = [
        Bin(np.array([0, 1]), 0.0, 0.1),
        Bin(np.array([2]), 0.2, 0.3),
        Bin(np.array([3]), 0.4, 0.5),
    ]
    np.testing.assert_allclose(folder_weight(bins, F), 0.25)


def test_weight_matches_two_pass_variance():
    rng = np.random.default_rng(0)
    labels = rng.normal(size=40)
    F = CohortFunctional.from_labels(labels, min_cohort=3)
    edges = [0, 7, 15, 26, 40]
    bins = [Bin(np.arange(a, b), float(a), float(b)) for a, b in zip(edges, edges[1:])]
    w = folder_weight(bins, F)
    sizes = np.diff(edges)
    fv = np.array([labels[a:b].mean() for a, b in zip(edges, edges[1:])])
    p = sizes / sizes.sum()
    mean = p @ fv
    direct = float(np.sum(p * (fv - mean) ** 2))
    np.testing.assert_allclose(w, direct, atol=1e-12)


def test_weight_translation_and_scaling_of_functional():
    rng = np.random.default_rng(1)
    labels = rng.normal(size=30)
    bins = [Bin(np.arange(0, 10), 0, 1), Bin(np.arange(10, 20), 1, 2), Bin(np.arange(20, 30), 2, 3)]
    w0 = folder_weight(bins, CohortFunctional.from_labels(labels, 3))
    w_shift = folder_weight(bins, CohortFunctional.from_labels(labels + 7.5, 3))
    w_scale = folder_weight(bins, CohortFunctional.from_labels(labels * 3.0, 3))
    np.testing.assert_allclose(w_shift, w0, atol=1e-12)
    np.testing.assert_allclose(w_scale, 9.0 * w0, rtol=1e-12)


def test_weight_merges_small_bins_first():
    labels = np.array([0.0] * 6 + [1.0] * 2)
    F = CohortFunctional.from_labels(labels, min_cohort=3)
    bins = [
        Bin(np.arange(0, 6), 0.0, 0.5),
        Bin(np.array([6, 7]), 0.9, 1.0),  # below c=3: merged into the left bin
    ]
    # single merged bin -> one F value -> zero variance
    assert folder_weight(bins, F) == 0.0


def test_weight_zero_when_nothing_valid():
    F = constant_functional(1.0, c=100)
    bins = [Bin(np.arange(5), 0, 1)]
    assert folder_weight(bins, F) == 0.0


def test_weight_drops_undefined_bins():
    def fn(idx):
        if idx[0] == 0:
            raise UndefinedCohortValue("single-arm")
        return float(idx.mean())

    F = CohortFunctional(fn, 2)
    bins = [Bin(np.array([0, 1]), 0, 1), Bin(np.array([2, 3]), 1, 2), Bin(np.array([4, 5]), 2, 3)]
    w = folder_weight(bins, F)
    # only the last two bins count: values 2.5, 4.5 equal sizes -> var 1.0
    np.testing.assert_allclose(w, 1.0)


# --- aggregate_point_weights --------------------------------------------------------


def test_aggregate_single_level():
    tree = make_tree([[range(4)], [[0], [1], [2], [3]]])
    fw = {(1, 0): np.array([2.0, 4.0])}
    field = aggregate_point_weights(tree, fw, alpha=1.7, lam=0.1)
    np.testing.assert_allclose(field.point_weights, 2.0 ** (-1.7) * np.array([[2.0, 4.0]] * 4))


def test_aggregate_two_levels_hand_sum():
    tree = make_tree([[range(4)], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])
    fw = {
        (1, 0): np.array([1.0, 0.0]),
        (2, 0): np.array([4.0, 2.0]),
        (2, 1): np.array([0.0, 8.0]),
    }
    field = aggregate_point_weights(tree, fw, alpha=1.0, lam=0.5)
    # w = w1/2 + w2/4 per point
    np.testing.assert_allclose(field.point_weights[0], [1 / 2 + 1.0, 0.5])
    np.testing.assert_allclose(field.point_weights[3], [1 / 2, 2.0])


def test_aggregate_zero_weights_give_isotropic_field():
    tree = make_tree([[range(3)], [[0], [1], [2]]])
    fw = {(1, 0): np.zeros(2)}
    field = aggregate_point_weights(tree, fw, alpha=1.0, lam=None)
    np.testing.assert_allclose(field.inv_diag(), 1e6)  # lam falls back to 1e-6


# --- weighted_kernel ------------------------------------------------------------------


def test_weighted_kernel_half_identity_reduces_to_gaussian():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 3))
    u = np.full((12, 3), 0.5)
    K = weighted_kernel(X, u, sigma=1.3).entries
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(K, np.exp(-d2 / 1.3**2), rtol=1e-12)


def test_weighted_kernel_diagonal_value():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4))
    u = rng.uniform(0.2, 2.0, size=(6, 4))
    K = weighted_kernel(X, u, sigma=0.9).entries
    expected = np.exp(-0.5 * np.log(2 * u).sum(axis=1))  # 1/sqrt(det(2 W_x))
    np.testing.assert_allclose(np.diagonal(K), expected, rtol=1e-12)


def test_weighted_kernel_psd_with_extreme_spreads():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 9))
    u = 10.0 ** rng.uniform(-6, 0, size=(50, 9))  # six orders of magnitude
    K = weighted_kernel(X, u, sigma=1.0).entries
    vals = np.linalg.eigvalsh(K)
    assert vals[0] >= -1e-8 * vals[-1]


def test_median_quadratic_scale_matches_the_plain_formula_bit_for_bit():
    from cohortmetric.metric import _median_quadratic_scale

    rng = np.random.default_rng(16)
    for n, m in [(40, 2), (600, 9), (300, 12)]:
        X = rng.normal(size=(n, m))
        u = rng.uniform(0.1, 3.0, size=(n, m))
        idx = np.unique(np.linspace(0, n - 1, min(n, 512)).astype(int))
        V, U = X[idx], u[idx]
        q = ((V[:, None, :] - V[None, :, :]) ** 2 / (U[:, None, :] + U[None, :, :])).sum(axis=2)
        assert _median_quadratic_scale(X, u) == float(np.median(q[q > 0]))


def _weighted_kernel_oracle(X, u, sigma):
    """The (rows, cols, m) formula over all pairs in one block."""
    diff2 = (X[:, None, :] - X[None, :, :]) ** 2
    with np.errstate(over="ignore"):  # huge W: the log fallback below
        a = u[:, None, :] + u[None, :, :]
        det = np.prod(a, axis=2)
    np.divide(diff2, a, out=diff2)
    q = diff2.sum(axis=2)
    if np.all(np.isfinite(det)) and det.min() > 0:
        logdet = np.log(det)
    else:
        logdet = np.log(a).sum(axis=2)
    return np.exp(-q / sigma**2 - 0.5 * logdet)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 17, 130])
@pytest.mark.parametrize("rows", [None, 16])
def test_feature_major_weighted_kernel_matches_the_3d_formula_bit_for_bit(m, rows, monkeypatch):
    from cohortmetric import diffusion

    if rows is not None:  # many row blocks instead of one
        monkeypatch.setattr(diffusion, "_rows_per_block", lambda n_cols, m: rows)
    rng = np.random.default_rng(m)
    X = rng.normal(size=(70, m))
    u = rng.uniform(0.05, 4.0, size=(70, m))
    assert weighted_kernel(X, u, sigma=1.1).entries.tobytes() == \
        _weighted_kernel_oracle(X, u, 1.1).tobytes()
    if m == 1:  # the determinant is W_i + W_j itself: no fallback to take
        return
    # W_i + W_j so large that every determinant overflows: the per-element
    # log fallback runs
    huge = u * 10.0 ** (400 / m)
    with np.errstate(over="ignore"):
        assert not np.any(np.isfinite(np.prod(huge[:, None] + huge[None, :], axis=2)))
    got = weighted_kernel(X, huge, sigma=1.1).entries
    assert np.all(got > 0)
    assert got.tobytes() == _weighted_kernel_oracle(X, huge, 1.1).tobytes()


def test_weighted_kernel_log_fallback_is_taken_per_block(monkeypatch):
    from cohortmetric import diffusion

    # one huge row puts its whole block, and only that block, on the logs
    rng = np.random.default_rng(40)
    X = rng.normal(size=(60, 9))
    u = rng.uniform(0.05, 4.0, size=(60, 9))
    u[5] = 1e40
    monkeypatch.setattr(diffusion, "_rows_per_block", lambda n_cols, m: 10**6)
    assert weighted_kernel(X, u, sigma=0.8).entries.tobytes() == \
        _weighted_kernel_oracle(X, u, 0.8).tobytes()


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 17, 130])
def test_feature_major_median_quadratic_scale_matches_the_3d_formula(m):
    from cohortmetric.metric import _median_quadratic_scale

    rng = np.random.default_rng(100 + m)
    X = rng.normal(size=(700, m))
    X[100:140] = X[:40]  # repeated points: zero forms the median skips
    u = rng.uniform(0.1, 3.0, size=(700, m))
    idx = np.unique(np.linspace(0, 699, 512).astype(int))
    V, U = X[idx], u[idx]
    q = ((V[:, None, :] - V[None, :, :]) ** 2 / (U[:, None, :] + U[None, :, :])).sum(axis=2)
    want = float(np.median(q[q > 0]))
    assert np.float64(_median_quadratic_scale(X, u)).tobytes() == np.float64(want).tobytes()


def test_weighted_kernel_exact_symmetry():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 5))
    u = rng.uniform(0.01, 10.0, size=(30, 5))
    K = weighted_kernel(X, u, sigma=0.7).entries
    assert np.array_equal(K, K.T)


# --- fit_weighted_metric -----------------------------------------------------------------


def test_algorithm_constant_functional_one_iteration():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(80, 4))
    F = constant_functional(2.0, c=5)
    cfg = RunConfig(dim=3, min_folder=10, seed=0)
    metric = fit_weighted_metric(X, F, cfg)
    assert metric.iterations == cfg.max_iters
    np.testing.assert_allclose(metric.weights.point_weights, 0.0)
    np.testing.assert_allclose(metric.weights.inv_diag(), 1e6)


@pytest.fixture(scope="module")
def loop_fit():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(150, 4))
    F = CohortFunctional.from_labels(np.sin(4 * X[:, 0]) + X[:, 1], 8)
    cfg = RunConfig(dim=3, min_folder=12, seed=2, max_iters=3)
    return X, F, cfg, fit_weighted_metric(X, F, cfg)


def test_fit_embedding_is_built_from_the_returned_weights(loop_fit):
    X, _, cfg, metric = loop_fit
    K = weighted_kernel(X, metric.weights, sigma=metric.sigma, tau=metric.tau)
    emb = spectral_embed(markov_normalize(K), t=cfg.time, d=cfg.dim)
    assert np.array_equal(emb.eigenvalues, metric.embedding.eigenvalues)
    assert np.array_equal(emb.eigenvectors, metric.embedding.eigenvectors)


def test_fit_weights_are_computed_on_the_returned_tree(loop_fit):
    X, F, cfg, metric = loop_fit
    W = compute_weight_field(X, F, metric.tree, cfg)
    assert np.array_equal(W.point_weights, metric.weights.point_weights)
    assert W.lam == metric.weights.lam


def test_fit_builds_one_tree_and_one_weight_field_per_step(loop_fit, monkeypatch):
    import cohortmetric.metric as metric_mod

    X, F, cfg, _ = loop_fit
    calls = {"tree": [], "weights": 0}
    build, weigh = metric_mod.build_topdown, metric_mod.compute_weight_field

    def tree_spy(emb, branching, min_folder, seed):
        calls["tree"].append(seed)
        return build(emb, branching, min_folder, seed)

    def weight_spy(*args):
        calls["weights"] += 1
        return weigh(*args)

    monkeypatch.setattr(metric_mod, "build_topdown", tree_spy)
    monkeypatch.setattr(metric_mod, "compute_weight_field", weight_spy)
    metric = fit_weighted_metric(X, F, cfg)
    assert calls["tree"] == [cfg.seed + it for it in range(cfg.max_iters)]
    assert calls["weights"] == cfg.max_iters
    assert len(metric.history) == metric.iterations == cfg.max_iters
    # no field precedes the first step's
    assert np.isnan(metric.history[0].weight_change)
    assert all(np.isfinite(h.weight_change) for h in metric.history[1:])


def test_algorithm_upweights_driving_feature():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(500, 5))
    F = CohortFunctional(lambda idx: float(X[idx, 0].mean()), 10)
    metric = fit_weighted_metric(X, F, RunConfig(dim=3, min_folder=25, seed=1))
    mean_w = metric.weights.point_weights.mean(axis=0)
    assert int(np.argmax(mean_w)) == 0
    assert mean_w[0] > 2 * mean_w[1:].max()


def test_algorithm_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 4))
    labels = X[:, 1] ** 2
    F = CohortFunctional.from_labels(labels, 8)
    cfg = RunConfig(dim=3, min_folder=12, seed=3, max_iters=3)
    m1 = fit_weighted_metric(X, F, cfg)
    m2 = fit_weighted_metric(X, F, cfg)
    # the default neighborhood follows F's c = 8, not cfg.min_cohort = 25
    assert m1.neighborhood == NeighborhoodRule("knn", k=8)
    assert np.array_equal(m1.weights.point_weights, m2.weights.point_weights)
    assert np.array_equal(m1.embedding.coords, m2.embedding.coords)


def test_algorithm_requires_two_cohorts():
    X = np.random.default_rng(9).normal(size=(10, 2))
    with pytest.raises(ValueError, match="two valid cohorts"):
        fit_weighted_metric(X, constant_functional(0.0, c=8))


def test_metric_distance_axioms_on_samples():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(100, 4))
    F = CohortFunctional.from_labels(X[:, 0], 8)
    metric = fit_weighted_metric(X, F, RunConfig(dim=4, min_folder=12, seed=4, max_iters=2))
    coords = metric.embedding.coords
    d = lambda i, j: np.linalg.norm(coords[i] - coords[j])
    for i in range(0, 100, 17):
        assert d(i, i) == 0.0
    for _ in range(50):
        i, j, k = rng.integers(0, 100, 3)
        assert d(i, j) == d(j, i)
        assert d(i, k) <= d(i, j) + d(j, k) + 1e-10


# --- pointwise and multiscale estimates ------------------------------------------------


@pytest.fixture(scope="module")
def fitted_metric():
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(200, 3))
    labels = np.sin(3 * X[:, 0])
    F = CohortFunctional.from_labels(labels, 6)
    metric = fit_weighted_metric(X, F, RunConfig(dim=3, min_folder=15, seed=5, max_iters=2))
    return metric, F, labels, X


def test_estimate_with_huge_radius_is_global_value(fitted_metric):
    metric, F, labels, _ = fitted_metric
    diameter = np.linalg.norm(
        metric.embedding.coords.max(axis=0) - metric.embedding.coords.min(axis=0)
    )
    for i in (0, 57, 123):
        np.testing.assert_allclose(
            pointwise_estimate(metric, F, i, eps=10 * diameter + 1.0), labels.mean(), rtol=1e-12
        )


def test_estimate_knn_matches_bruteforce(fitted_metric):
    metric, F, labels, _ = fitted_metric
    coords = metric.embedding.coords
    k = F.min_cohort
    rule_metric = metric.neighborhood
    assert rule_metric.kind == "knn"
    from cohortmetric.metric import NeighborhoodRule, neighborhood_indices

    for i in (3, 77, 150):
        nbhd = neighborhood_indices(coords, coords[i:i + 1], NeighborhoodRule("knn", k=k))[0]
        d = np.linalg.norm(coords - coords[i], axis=1)
        brute = np.argsort(d, kind="stable")[:k]
        assert set(nbhd.tolist()) == set(brute.tolist())
        got = F(nbhd)
        np.testing.assert_allclose(got, labels[brute].mean(), rtol=1e-12)


def _neighborhood_oracle(coords, center, rule):
    """The per-point rule: one norm, then argpartition and a stable argsort."""
    d = np.linalg.norm(coords - center[None, :], axis=1)
    if rule.kind == "radius":
        return np.where(d < rule.eps)[0]
    k = min(rule.k, coords.shape[0])
    idx = np.argpartition(d, k - 1)[:k]
    return idx[np.argsort(d[idx], kind="stable")]


@pytest.mark.parametrize("d", [1, 5, 8, 9, 17])
@pytest.mark.parametrize("rows", [None, 4])
def test_batched_neighborhoods_match_the_per_point_formula(d, rows, monkeypatch):
    import cohortmetric.metric as metric_mod
    from cohortmetric.metric import neighborhood_indices

    if rows is not None:  # several row blocks of centers
        monkeypatch.setattr(metric_mod, "_rows_per_block", lambda n_cols, m: rows)
    rng = np.random.default_rng(d)
    coords = rng.integers(-2, 3, size=(150, d)).astype(float)  # a grid: many tied distances
    coords[100:130] = coords[:30]  # duplicate coordinates
    centers = np.vstack([coords[::9], coords[100:103], rng.normal(size=(7, d))])
    span = np.linalg.norm(coords - coords[0], axis=1)
    rules = [NeighborhoodRule("knn", k=1), NeighborhoodRule("knn", k=17),
             NeighborhoodRule("knn", k=150), NeighborhoodRule("knn", k=400),
             NeighborhoodRule("radius", eps=float(np.median(span))),
             NeighborhoodRule("radius", eps=1e-9)]
    for rule in rules:
        got = neighborhood_indices(coords, centers, rule)
        assert len(got) == len(centers)
        for g, c in zip(got, centers):
            want = _neighborhood_oracle(coords, c, rule)
            assert g.dtype == want.dtype and np.array_equal(g, want)
    assert neighborhood_indices(coords, centers[:0], rules[0]) == []


def test_neighborhoods_take_rows_of_centers():
    from cohortmetric.metric import neighborhood_indices

    coords = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match="centers must be"):
        neighborhood_indices(coords, coords[0], NeighborhoodRule("knn", k=2))
    with pytest.raises(ValueError, match="centers must be"):
        neighborhood_indices(coords, coords[:2, :1], NeighborhoodRule("knn", k=2))


@pytest.mark.parametrize("kind,kw", [
    ("knn", {"k": 7.5}), ("knn", {"k": True}), ("knn", {"k": 0}), ("knn", {}),
    ("radius", {"eps": np.nan}), ("radius", {"eps": 0.0}), ("radius", {}),
])
def test_neighborhood_rule_rejects_invalid_size(kind, kw):
    with pytest.raises(ValueError, match="k >= 1" if kind == "knn" else "eps > 0"):
        NeighborhoodRule(kind, **kw)


def test_estimate_propagates_too_small(fitted_metric):
    metric, F, _, _ = fitted_metric
    with pytest.raises(CohortTooSmallError):
        pointwise_estimate(metric, F, 0, eps=1e-12)


def test_duplicate_points_share_estimates():
    rng = np.random.default_rng(12)
    base = rng.uniform(size=(60, 3))
    X = np.vstack([base, base[:2]])  # rows 60,61 duplicate rows 0,1
    labels = X[:, 0]
    F = CohortFunctional.from_labels(labels, 5)
    metric = fit_weighted_metric(X, F, RunConfig(dim=3, min_folder=10, seed=6, max_iters=1))
    e0 = pointwise_estimate(metric, F, 0)
    e60 = pointwise_estimate(metric, F, 60)
    np.testing.assert_allclose(e0, e60, rtol=1e-9)


def test_multiscale_constant_functional_zero(fitted_metric):
    metric, _, _, _ = fitted_metric
    F = constant_functional(5.0, c=3)
    dec = multiscale_estimate(metric, F, 10, scales=[1.0, 0.5, 0.25])
    assert all(c == 0.0 for c in dec.coefficients)


def test_multiscale_single_scale_definition(fitted_metric):
    metric, F, _, _ = fitted_metric
    coords = metric.embedding.coords
    span = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    eps = 0.8 * span
    dec = multiscale_estimate(metric, F, 5, scales=[eps])
    from cohortmetric.metric import NeighborhoodRule, neighborhood_indices

    half = neighborhood_indices(coords, coords[5:6], NeighborhoodRule("radius", eps=eps / 2))[0]
    full = neighborhood_indices(coords, coords[5:6], NeighborhoodRule("radius", eps=eps))[0]
    np.testing.assert_allclose(dec.coefficients[0], F(half) - F(full), rtol=1e-12)


def test_multiscale_telescoping(fitted_metric):
    metric, F, _, _ = fitted_metric
    coords = metric.embedding.coords
    span = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    scales = [span, span / 2, span / 4]
    for i in (1, 42, 99):
        dec = multiscale_estimate(metric, F, i, scales=scales)
        if dec.truncated_at is not None:
            continue
        from cohortmetric.metric import NeighborhoodRule, neighborhood_indices

        finest = neighborhood_indices(
            coords, coords[i:i + 1], NeighborhoodRule("radius", eps=scales[-1] / 2)
        )[0]
        coarsest = neighborhood_indices(
            coords, coords[i:i + 1], NeighborhoodRule("radius", eps=scales[0])
        )[0]
        np.testing.assert_allclose(
            sum(dec.coefficients), F(finest) - F(coarsest), rtol=1e-9, atol=1e-12
        )

import numpy as np
import pytest

from cohortmetric.config import RunConfig
from cohortmetric.diffusion import markov_normalize, spectral_embed
from cohortmetric.metric import (
    DIFFUSION_TIME,
    Bin,
    CohortFunctional,
    aggregate_point_weights,
    bin_feature,
    compute_folder_weights,
    compute_weight_field,
    folder_weight,
    fit_weighted_metric,
    multiscale_estimate,
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


# --- compute_folder_weights -------------------------------------------------------


def _oracle_folder_weights(tree, X, F, k_bins):
    """bin_feature and folder_weight, one feature at a time."""
    return {(level, fid): np.array([folder_weight(bin_feature(pts, X, y, k_bins), F)
                                    for y in range(X.shape[1])])
            for level in range(1, tree.n_levels + 1)
            for fid, pts in enumerate(tree.folders(level)) if len(pts) >= F.min_cohort}


@pytest.mark.parametrize("k_bins", [1, 2, 3, 5])
def test_folder_weights_match_the_per_feature_oracle_bit_for_bit(k_bins):
    rng = np.random.default_rng(k_bins)
    n, c = 48, 6
    X = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, 3, size=n).astype(float),  # ties at the edges
        np.full(n, 1.5),  # constant
        np.where(rng.random(n) < 0.7, 0.0, rng.normal(size=n)),  # mostly one value
        np.arange(n) % 7 * 0.25,
    ])
    perm = rng.permutation(n)
    tree = make_tree([[range(n)], [perm[:c], perm[c:30], perm[30:]],
                      [perm[:c], perm[c:18], perm[18:30], perm[30:]], [[p] for p in range(n)]])
    labels = rng.normal(size=n)

    def functional():
        calls = []

        def fn(idx):
            calls.append(idx.tolist())
            if idx.sum() % 4 == 0:
                raise UndefinedCohortValue("undefined on this bin")
            return float(labels[idx].mean())

        return CohortFunctional(fn, c), calls

    F, calls = functional()
    got = compute_folder_weights(tree, X, F, k_bins)
    F_oracle, oracle_calls = functional()
    want = _oracle_folder_weights(tree, X, F_oracle, k_bins)
    assert list(got) == list(want)
    assert (1, 0) in got and (2, 0) in got  # the folder of exactly c points is weighted
    assert all(got[key].tobytes() == want[key].tobytes() for key in want)
    assert calls == oracle_calls  # the same bins, in the same order
    assert any(sum(idx) % 4 == 0 for idx in calls)  # F was undefined on some bins
    assert any(w.any() for w in got.values()) == (k_bins > 1)  # one bin has no variance


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
    cfg = RunConfig(dim=3, seed=0)
    metric = fit_weighted_metric(X, F, cfg)
    assert metric.iterations == cfg.max_iters
    np.testing.assert_allclose(metric.weights.point_weights, 0.0)
    np.testing.assert_allclose(metric.weights.inv_diag(), 1e6)


@pytest.fixture(scope="module")
def loop_fit():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(150, 4))
    F = CohortFunctional.from_labels(np.sin(4 * X[:, 0]) + X[:, 1], 8)
    cfg = RunConfig(dim=3, seed=2, max_iters=3)
    return X, F, cfg, fit_weighted_metric(X, F, cfg)


def test_fit_embedding_is_built_from_the_returned_weights(loop_fit):
    X, _, cfg, metric = loop_fit
    K = weighted_kernel(X, metric.weights, sigma=metric.sigma)
    emb = spectral_embed(markov_normalize(K), t=DIFFUSION_TIME, d=cfg.dim)
    assert np.array_equal(emb.eigenvalues, metric.embedding.eigenvalues)
    assert np.array_equal(emb.eigenvectors, metric.embedding.eigenvectors)


def test_fit_weights_are_computed_on_the_returned_tree(loop_fit):
    X, F, cfg, metric = loop_fit
    W = compute_weight_field(X, F, metric.tree)
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
    metric = fit_weighted_metric(X, F, RunConfig(dim=3, seed=1))
    mean_w = metric.weights.point_weights.mean(axis=0)
    assert int(np.argmax(mean_w)) == 0
    assert mean_w[0] > 2 * mean_w[1:].max()


def test_algorithm_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 4))
    labels = X[:, 1] ** 2
    F = CohortFunctional.from_labels(labels, 8)
    cfg = RunConfig(dim=3, seed=3, max_iters=3)
    m1 = fit_weighted_metric(X, F, cfg)
    m2 = fit_weighted_metric(X, F, cfg)
    # the cohort size follows F's c = 8, not cfg.min_cohort = 25
    assert m1.cohort_size == 8
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
    metric = fit_weighted_metric(X, F, RunConfig(dim=4, seed=4, max_iters=2))
    coords = metric.embedding.coords
    d = lambda i, j: np.linalg.norm(coords[i] - coords[j])
    for i in range(0, 100, 17):
        assert d(i, i) == 0.0
    for _ in range(50):
        i, j, k = rng.integers(0, 100, 3)
        assert d(i, j) == d(j, i)
        assert d(i, k) <= d(i, j) + d(j, k) + 1e-10


# --- cohorts and their filtration ----------------------------------------------------


@pytest.fixture(scope="module")
def fitted_metric():
    rng = np.random.default_rng(11)
    X = rng.uniform(size=(200, 3))
    labels = np.sin(3 * X[:, 0])
    F = CohortFunctional.from_labels(labels, 6)
    metric = fit_weighted_metric(X, F, RunConfig(dim=3, seed=5, max_iters=2))
    return metric, F, labels, X


def test_estimate_knn_matches_bruteforce(fitted_metric):
    metric, F, labels, _ = fitted_metric
    coords = metric.embedding.coords
    k = F.min_cohort
    # max(c, ceil(5% of 200))
    assert metric.cohort_size == 10
    from cohortmetric.metric import neighborhood_indices

    for i in (3, 77, 150):
        nbhd = neighborhood_indices(coords, coords[i:i + 1], k)[0]
        d = np.linalg.norm(coords - coords[i], axis=1)
        brute = np.argsort(d, kind="stable")[:k]
        assert set(nbhd.tolist()) == set(brute.tolist())
        got = F(nbhd)
        np.testing.assert_allclose(got, labels[brute].mean(), rtol=1e-12)


def _neighborhood_oracle(coords, center, k):
    """The per-point rule: one norm, then argpartition and a stable argsort."""
    d = np.linalg.norm(coords - center[None, :], axis=1)
    k = min(k, coords.shape[0])
    idx = np.argpartition(d, k - 1)[:k]
    return idx[np.argsort(d[idx], kind="stable")]


def _tied_grid(d, rng):
    coords = rng.integers(-2, 3, size=(150, d)).astype(float)  # a grid: many tied distances
    coords[100:130] = coords[:30]  # duplicate coordinates
    return coords


@pytest.mark.parametrize("d", [1, 5, 8, 9, 17])
@pytest.mark.parametrize("rows", [None, 4])
def test_batched_neighborhoods_match_the_per_point_formula(d, rows, monkeypatch):
    import cohortmetric.metric as metric_mod
    from cohortmetric.metric import neighborhood_indices

    if rows is not None:  # several row blocks of centers
        monkeypatch.setattr(metric_mod, "_rows_per_block", lambda n_cols, m: rows)
    rng = np.random.default_rng(d)
    coords = _tied_grid(d, rng)
    centers = np.vstack([coords[::9], coords[100:103], rng.normal(size=(7, d))])
    for k in (1, 17, 150, 400):
        got = neighborhood_indices(coords, centers, k)
        assert len(got) == len(centers)
        for g, c in zip(got, centers):
            want = _neighborhood_oracle(coords, c, k)
            assert g.dtype == want.dtype and np.array_equal(g, want)
    assert neighborhood_indices(coords, centers[:0], 1) == []


def test_neighborhoods_take_rows_of_centers():
    from cohortmetric.metric import neighborhood_indices

    coords = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match="centers must be"):
        neighborhood_indices(coords, coords[0], 2)
    with pytest.raises(ValueError, match="centers must be"):
        neighborhood_indices(coords, coords[:2, :1], 2)


@pytest.mark.parametrize("kind,kw", [("knn", {"k": 7.5}), ("knn", {"k": True}), ("knn", {"k": 0})])
def test_neighborhood_rule_rejects_invalid_size(kind, kw):
    from cohortmetric.metric import neighborhood_indices

    coords = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match="k >= 1"):
        neighborhood_indices(coords, coords[:1], **kw)


def test_estimate_propagates_too_small(fitted_metric):
    metric, _, labels, _ = fitted_metric
    F = CohortFunctional.from_labels(labels, metric.cohort_size + 1)
    with pytest.raises(CohortTooSmallError):
        multiscale_estimate(metric.embedding.coords, metric.cohort_size, F, 0)


def test_duplicate_points_share_estimates():
    rng = np.random.default_rng(12)
    base = rng.uniform(size=(60, 3))
    X = np.vstack([base, base[:2]])  # rows 60,61 duplicate rows 0,1
    labels = X[:, 0]
    F = CohortFunctional.from_labels(labels, 5)
    metric = fit_weighted_metric(X, F, RunConfig(dim=3, seed=6, max_iters=1))
    coords, k = metric.embedding.coords, metric.cohort_size
    e0 = multiscale_estimate(coords, k, F, 0).coarse_value
    e60 = multiscale_estimate(coords, k, F, 60).coarse_value
    np.testing.assert_allclose(e0, e60, rtol=1e-9)


def test_multiscale_constant_functional_zero(fitted_metric):
    metric, _, _, _ = fitted_metric
    F = constant_functional(5.0, c=3)
    dec = multiscale_estimate(metric.embedding.coords, metric.cohort_size, F, 10)
    assert dec.sizes == (10, 5, 3)
    assert dec.coarse_value == 5.0
    assert all(c == 0.0 for c in dec.coefficients)


def test_multiscale_single_scale_definition(fitted_metric):
    metric, _, labels, _ = fitted_metric
    from cohortmetric.metric import neighborhood_indices

    coords = metric.embedding.coords
    F = CohortFunctional.from_labels(labels, 5)
    dec = multiscale_estimate(coords, metric.cohort_size, F, 5)
    cohort = neighborhood_indices(coords, coords[5:6], metric.cohort_size)[0]
    assert dec.sizes == (10, 5) and len(dec.coefficients) == 1
    assert dec.coarse_value == F(cohort)
    assert dec.coefficients[0] == F(cohort[:5]) - F(cohort)


def test_multiscale_telescoping(fitted_metric):
    from cohortmetric.metric import neighborhood_indices

    metric, F, _, _ = fitted_metric
    coords = metric.embedding.coords
    for i in (1, 42, 99):
        dec = multiscale_estimate(coords, 100, F, i)
        assert dec.sizes == (100, 50, 25, 13, 7)
        cohort = neighborhood_indices(coords, coords[i:i + 1], 100)[0]
        np.testing.assert_allclose(
            sum(dec.coefficients), F(cohort[:7]) - dec.coarse_value, rtol=1e-9, atol=1e-12
        )


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("k,c", [(150, 2), (64, 5), (17, 17), (400, 9)])
def test_multiscale_filtration_matches_the_nested_knn_oracle(d, k, c):
    rng = np.random.default_rng(d)
    coords = _tied_grid(d, rng)
    labels = rng.normal(size=len(coords))
    F = CohortFunctional.from_labels(labels, c)
    for i in (0, 7, 100, 149):
        order = _neighborhood_oracle(coords, coords[i], k)
        sizes = [order.size]
        while -(-sizes[-1] // 2) >= c:
            sizes.append(-(-sizes[-1] // 2))
        dec = multiscale_estimate(coords, k, F, i)
        assert dec.sizes == tuple(sizes)
        assert dec.coarse_value == F(order)
        want = [F(order[:fine]) - F(order[:coarse]) for coarse, fine in zip(sizes, sizes[1:])]
        assert list(dec.coefficients) == want
        np.testing.assert_allclose(sum(dec.coefficients), F(order[:sizes[-1]]) - F(order),
                                   rtol=1e-9, atol=1e-12)
        const = multiscale_estimate(coords, k, constant_functional(0.3, c), i)
        assert all(x == 0.0 for x in const.coefficients)

import numpy as np
import pytest

from cohortmetric.config import RunConfig
from cohortmetric.extension import build_reference
import cohortmetric.metric as metric_mod
from cohortmetric.metric import (
    Bin,
    CohortFunctional,
    _bin_probs,
    _bins,
    compute_weight_field,
    folder_weight,
    fit_weighted_metric,
    multiscale_estimate,
    weighted_kernel,
)
from cohortmetric.survival import CohortTooSmallError, UndefinedCohortValue
from cohortmetric.tree import PartitionTree

import field_oracle
import kernel_oracle
import weights_oracle
from weights_oracle import folder_weight as frozen_folder_weight


def make_tree(levels_points):
    """Build a PartitionTree from nested lists of point-index lists."""
    return PartitionTree([[np.array(sorted(pts)) for pts in level] for level in levels_points])


# --- CohortFunctional ---------------------------------------------------------


def test_functional_enforces_min_cohort():
    F = CohortFunctional.from_labels(np.arange(10.0), min_cohort=3)
    assert F([0, 1, 2]) == 1.0
    with pytest.raises(CohortTooSmallError):
        F([0, 1])


@pytest.mark.parametrize("min_cohort", [0, 2.7, True, np.nan, np.inf])
def test_functional_refuses_a_min_cohort_that_is_not_a_count(min_cohort):
    with pytest.raises(ValueError, match="min_cohort must be an integer >= 1"):
        CohortFunctional(lambda idx: 0.0, min_cohort)


# --- _bins ------------------------------------------------------------------------


def bins_of(values, k_bins=3):
    """The quantile bins of one feature's values over the folder 0..len-1."""
    values = np.asarray(values, dtype=float)
    return _bins(np.arange(values.size), values, np.quantile(values, _bin_probs(k_bins)))


def test_bins_constant_feature_single_bin():
    bins = bins_of(np.ones(8))
    assert len(bins) == 1
    assert bins[0].indices.tolist() == list(range(8))


def test_bins_hand_quantiles():
    bins = bins_of(np.arange(1.0, 10.0))  # values 1..9
    assert [b.indices.tolist() for b in bins] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_bins_partition_with_duplicate_boundaries():
    bins = bins_of([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
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


# --- compute_weight_field ---------------------------------------------------------


def _frozen_folder_weights(monkeypatch, tree, X, F, k_bins, calls):
    """The frozen folder weights, and the part of F's `calls` made on features
    left with at least two valid merged bins, in call order."""
    kept = []

    def per_feature(bins, F):
        start = len(calls)
        w = frozen_folder_weight(bins, F)
        if len(weights_oracle.merge_small_bins(bins, F.min_cohort)) >= 2:
            kept.extend(calls[start:])
        return w

    monkeypatch.setattr(weights_oracle, "folder_weight", per_feature)
    return weights_oracle.compute_folder_weights(tree, X, F, k_bins), kept


def _spy(fn, c):
    """A CohortFunctional over `fn` and the list of index lists it is called on."""
    calls = []

    def spy(idx):
        calls.append(idx.tolist())
        return fn(idx)

    return CohortFunctional(spy, c), calls


@pytest.mark.parametrize("k_bins", [1, 2, 3, 5])
def test_folder_weights_match_the_per_feature_oracle_bit_for_bit(k_bins, monkeypatch):
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

    def fn(idx):
        if idx.sum() % 4 == 0:
            raise UndefinedCohortValue("undefined on this bin")
        return float(labels[idx].mean())

    monkeypatch.setattr(metric_mod, "K_BINS", k_bins)
    F, calls = _spy(fn, c)
    got = compute_weight_field(X, F, tree)
    F_frozen, frozen_calls = _spy(fn, c)
    want, kept_calls = _frozen_folder_weights(monkeypatch, tree, X, F_frozen, k_bins,
                                              frozen_calls)
    assert (2, 0) in want  # the frozen rows weigh the folder of exactly c points
    w = field_oracle.summed_weights(tree, X, want)
    assert got.point_weights.tobytes() == w.tobytes()
    assert got.lam == metric_mod.resolve_lam(w)
    # the same bins, in the same order, on every feature with two valid bins
    assert calls == kept_calls
    assert len(calls) < len(frozen_calls)  # and none on the others
    assert (calls == []) == (k_bins == 1)
    if k_bins > 1:
        assert any(sum(idx) % 4 == 0 for idx in calls)  # F was undefined on some bins
    assert got.point_weights.any() == (k_bins > 1)  # one bin has no variance


@pytest.mark.parametrize("n", [6, 11])
def test_a_folder_under_2c_points_weighs_zero_with_no_F_call(n):
    c = 6
    X = np.random.default_rng(n).normal(size=(n, 3))
    labels = np.arange(n, dtype=float)
    tree = make_tree([[range(n)], [range(3), range(3, n)], [[p] for p in range(n)]])
    F, calls = _spy(lambda idx: float(labels[idx].mean()), c)
    got = compute_weight_field(X, F, tree)
    F_frozen, frozen_calls = _spy(lambda idx: float(labels[idx].mean()), c)
    want = weights_oracle.compute_folder_weights(tree, X, F_frozen, 3)
    assert list(want) == [(1, 0)] + [(2, 1)] * (n - 3 >= c)
    assert all(row.tobytes() == np.zeros(3).tobytes() for row in want.values())
    assert got.point_weights.tobytes() == np.zeros((n, 3)).tobytes()
    assert calls == [] and frozen_calls


def test_weight_of_one_valid_bin_is_zero_with_no_F_call():
    F, calls = _spy(lambda idx: float(idx.mean()), 3)
    bins = [Bin(np.arange(0, 6), 0.0, 0.5), Bin(np.array([6, 7]), 0.9, 1.0)]
    w = folder_weight(bins, F)
    assert (w, np.signbit(w), calls) == (0.0, False, [])


def test_a_folder_of_exactly_2c_points_in_two_valid_bins_calls_F_twice(monkeypatch):
    c = 5
    X = np.arange(2.0 * c)[:, None]
    labels = np.array([0.0] * c + [1.0] * c)
    F, calls = _spy(lambda idx: float(labels[idx].mean()), c)
    tree = make_tree([[range(2 * c)], [[p] for p in range(2 * c)]])
    monkeypatch.setattr(metric_mod, "K_BINS", 2)
    got = compute_weight_field(X, F, tree)
    assert calls == [list(range(c)), list(range(c, 2 * c))]
    assert got.point_weights.tolist() == [[0.25 / 2]] * (2 * c)  # the root's 2^-1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_weight_refuses_a_non_finite_F_value_naming_the_bin(value):
    F = CohortFunctional(lambda idx: value if idx[0] == 4 else 1.0, 3)
    bins = [Bin(np.arange(4), 0.0, 0.3), Bin(np.arange(4, 11), 0.5, 1.0)]
    with pytest.raises(ValueError, match="on a bin of 7 points"):
        folder_weight(bins, F)


@pytest.mark.parametrize("n_tree", [60, 120])
def test_folder_weights_refuse_a_tree_over_other_points(n_tree):
    X = np.random.default_rng(8).normal(size=(100, 3))
    tree = make_tree([[range(n_tree)], [[p] for p in range(n_tree)]])
    F = CohortFunctional(lambda idx: 1.0, 5)
    with pytest.raises(ValueError, match=f"{n_tree} points but X has 100 rows"):
        compute_weight_field(X, F, tree)


# --- the point weights: folder rows summed by 2^{-l} -------------------------------------


def test_aggregate_single_level(monkeypatch):
    # the root's two bins of each feature: F 0 and 1 along feature 0, one
    # value along the constant feature 1
    X = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
    F = CohortFunctional.from_labels([0.0] * 5 + [1.0] * 5, 5)
    monkeypatch.setattr(metric_mod, "K_BINS", 2)
    field = compute_weight_field(X, F, make_tree([[range(10)], [[p] for p in range(10)]]))
    assert field.point_weights.tolist() == [[0.25 / 2, 0.0]] * 10
    assert field.lam == 1e-3 * (0.25 / 2)  # 1e-3 times the median nonzero weight


def test_aggregate_two_levels_hand_sum(monkeypatch):
    # root bins [0..9], [10..19] with F 1 and 6: weight 6.25; level 2 folders
    # of 2c points, bins of five points: F 0, 2 (weight 1) and 4, 8 (weight 4)
    X = np.arange(20.0)[:, None]
    F = CohortFunctional.from_labels(np.repeat([0.0, 2.0, 4.0, 8.0], 5), 5)
    tree = make_tree([[range(20)], [range(10), range(10, 20)], [[p] for p in range(20)]])
    monkeypatch.setattr(metric_mod, "K_BINS", 2)
    field = compute_weight_field(X, F, tree)
    # w = w1/2 + w2/4 per point
    assert field.point_weights[:, 0].tolist() == [6.25 / 2 + 1 / 4] * 10 + [6.25 / 2 + 4 / 4] * 10
    assert field.lam == 1e-3 * ((6.25 / 2 + 1 / 4) + (6.25 / 2 + 4 / 4)) / 2


def test_aggregate_zero_weights_give_isotropic_field():
    X = np.random.default_rng(3).normal(size=(30, 2))
    tree = make_tree([[range(30)], [range(15), range(15, 30)], [[p] for p in range(30)]])
    field = compute_weight_field(X, constant_functional(2.0, c=5), tree)
    assert field.point_weights.tobytes() == np.zeros((30, 2)).tobytes()
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


@pytest.mark.parametrize("sigma", [None, 0.9])
def test_weighted_kernel_refuses_a_nan_weight_diagonal(sigma):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    u = rng.uniform(0.2, 2.0, size=(30, 4))
    u[7, 2] = np.nan
    with pytest.raises(ValueError, match="W_x diagonals must be positive"):
        weighted_kernel(X, u, sigma=sigma)


@pytest.mark.parametrize("sigma", [np.inf, np.nan, 0.0, -1.0])
def test_weighted_kernel_refuses_a_bandwidth_that_is_not_finite_and_positive(sigma):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    u = rng.uniform(0.2, 2.0, size=(30, 4))
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        weighted_kernel(X, u, sigma=sigma)


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
        V, U = X[idx].T.copy(), u[idx].T.copy()  # C-contiguous, feature-first
        q = ((V[:, :, None] - V[:, None, :]) ** 2 / (U[:, :, None] + U[:, None, :])).sum(axis=0)
        assert _median_quadratic_scale(X, u) == float(np.median(q[q > 0]))


def _weighted_kernel_oracle(X, u, sigma):
    """The formula over all pairs in one C-contiguous (m, rows, cols)
    stack, reduced over its first axis."""
    xt, ut = X.T.copy(), u.T.copy()
    diff2 = (xt[:, :, None] - xt[:, None, :]) ** 2
    with np.errstate(over="ignore"):  # huge W: the log fallback below
        a = ut[:, :, None] + ut[:, None, :]
        det = np.prod(a, axis=0)
    np.divide(diff2, a, out=diff2)
    q = diff2.sum(axis=0)
    if np.all(np.isfinite(det)) and det.min() > 0:
        logdet = np.log(det)
    else:
        logdet = np.log(a).sum(axis=0)
    return np.exp(-q / sigma**2 - 0.5 * logdet)


def _patch_row_blocks(monkeypatch, rows):
    """Blocks of `rows` rows in the library's kernel and the frozen one."""
    from cohortmetric import diffusion

    monkeypatch.setattr(diffusion, "_rows_per_block", lambda n_cols, m: rows)
    monkeypatch.setattr(kernel_oracle, "_rows_per_block", lambda n_cols, m: rows)


def _assert_matches_the_frozen_kernel(X, u, sigma, rtol=None):
    """The library's kernel within 1e-12 of the largest entry of the frozen
    plane kernel's, and each entry within rtol of its own when given."""
    want = kernel_oracle.weighted_kernel(X, u, sigma)
    got = weighted_kernel(X, u, sigma=sigma).entries
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    if rtol is not None:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
    return got


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 17, 130])
@pytest.mark.parametrize("rows", [None, 16])
def test_feature_major_weighted_kernel_matches_the_3d_formula_bit_for_bit(m, rows, monkeypatch):
    # the frozen plane kernel is the 3-d formula bit for bit; the library's
    # grouped expansion agrees with it to rounding
    if rows is not None:  # many row blocks instead of one
        _patch_row_blocks(monkeypatch, rows)
    rng = np.random.default_rng(m)
    X = rng.normal(size=(70, m))
    u = rng.uniform(0.05, 4.0, size=(70, m))
    assert kernel_oracle.weighted_kernel(X, u, 1.1).tobytes() == \
        _weighted_kernel_oracle(X, u, 1.1).tobytes()
    _assert_matches_the_frozen_kernel(X, u, 1.1)
    if m == 1:  # the determinant is W_i + W_j itself: it cannot overflow
        return
    # W_i + W_j so large that every determinant overflows: the frozen kernel
    # takes its per-element log fallback, the library always sums logs
    huge = u * 10.0 ** (400 / m)
    with np.errstate(over="ignore"):
        assert not np.any(np.isfinite(np.prod(huge[:, None] + huge[None, :], axis=2)))
    assert kernel_oracle.weighted_kernel(X, huge, 1.1).tobytes() == \
        _weighted_kernel_oracle(X, huge, 1.1).tobytes()
    got = _assert_matches_the_frozen_kernel(X, huge, 1.1, rtol=1e-12)
    assert np.all(got > 0) and np.all(np.isfinite(got))


def test_weighted_kernel_log_fallback_is_taken_per_block(monkeypatch):
    # one huge row puts the frozen kernel's whole block, and only that
    # block, on the logs; the library's sum of logs matches it on every row
    rng = np.random.default_rng(40)
    X = rng.normal(size=(60, 9))
    u = rng.uniform(0.05, 4.0, size=(60, 9))
    u[5] = 1e40
    _patch_row_blocks(monkeypatch, 10**6)
    assert kernel_oracle.weighted_kernel(X, u, 0.8).tobytes() == \
        _weighted_kernel_oracle(X, u, 0.8).tobytes()
    _assert_matches_the_frozen_kernel(X, u, 0.8, rtol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 17, 130])
def test_feature_major_median_quadratic_scale_matches_the_3d_formula(m):
    from cohortmetric.metric import _median_quadratic_scale

    rng = np.random.default_rng(100 + m)
    X = rng.normal(size=(700, m))
    X[100:140] = X[:40]  # repeated points: zero forms the median skips
    u = rng.uniform(0.1, 3.0, size=(700, m))
    idx = np.unique(np.linspace(0, 699, 512).astype(int))
    V, U = X[idx].T.copy(), u[idx].T.copy()  # C-contiguous, feature-first
    q = ((V[:, :, None] - V[:, None, :]) ** 2 / (U[:, :, None] + U[:, None, :])).sum(axis=0)
    want = float(np.median(q[q > 0]))
    assert np.float64(_median_quadratic_scale(X, u)).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("n, repeats, nonzero", [
    (5, 0, 10), (5, 1, 9), (6, 2, 13), (8, 3, 25), (300, 1, 44849)])
def test_median_quadratic_scale_takes_odd_and_even_counts_of_nonzero_forms(n, repeats, nonzero):
    from cohortmetric.metric import _median_quadratic_scale

    rng = np.random.default_rng(n + repeats)
    X = rng.normal(size=(n, 3))
    X[n - repeats:] = X[:repeats]  # each repeat is one zero form
    u = rng.uniform(0.1, 3.0, size=(n, 3))
    V, U = X.T.copy(), u.T.copy()
    q = ((V[:, :, None] - V[:, None, :]) ** 2 / (U[:, :, None] + U[:, None, :])).sum(axis=0)
    assert np.count_nonzero(q[np.triu_indices(n, 1)]) == nonzero
    want = float(np.median(q[q > 0]))
    assert np.float64(_median_quadratic_scale(X, u)).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("n", [1, 2, 40])
def test_median_quadratic_scale_of_identical_points_is_one(n):
    from cohortmetric.metric import _median_quadratic_scale

    X = np.tile([0.3, -1.2, 4.0], (n, 1))
    u = np.random.default_rng(n).uniform(0.1, 3.0, size=(n, 3))
    assert _median_quadratic_scale(X, u) == 1.0


def test_weighted_kernel_exact_symmetry():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 5))
    u = rng.uniform(0.01, 10.0, size=(30, 5))
    K = weighted_kernel(X, u, sigma=0.7).entries
    assert np.array_equal(K, K.T)


def test_weighted_kernel_groups_the_rows_bit_for_bit():
    from cohortmetric.diffusion import _weight_groups

    u = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)],
                  [3.0, 4.0], [1.0, 2.0]])
    assert sorted(g.tolist() for g in _weight_groups(u)) == [[0, 2, 5], [1, 4], [3]]


@pytest.mark.parametrize("n_groups", [1, 3, 11, 90])  # 90: every row distinct
@pytest.mark.parametrize("rows", [None, 4])
def test_weighted_kernel_with_interleaved_weight_groups(n_groups, rows, monkeypatch):
    if rows is not None:  # each group over several row blocks
        _patch_row_blocks(monkeypatch, rows)
    rng = np.random.default_rng(n_groups)
    X = rng.normal(size=(90, 9)) + 100.0  # far off the origin: centring matters
    distinct = rng.uniform(0.05, 4.0, size=(n_groups, 9))
    u = distinct[rng.permutation(np.arange(90) % n_groups)]  # groups interleaved
    K = _assert_matches_the_frozen_kernel(X, u, 1.3)
    _assert_exponents_within_the_stated_bound(X, u, 1.3, K)
    assert np.array_equal(K, K.T)


def test_weighted_kernel_near_duplicates_stay_at_or_below_the_diagonal():
    # a point and its near-duplicates in one weight group: q is a tiny
    # difference of large terms, clamped at 0, so no entry exceeds the
    # diagonal that shares its determinant
    rng = np.random.default_rng(21)
    base = rng.normal(size=(10, 9)) * 50.0
    X = np.repeat(base, 6, axis=0)
    X[1::6] += 1e-9
    X[2::6] *= 1.0 + 1e-13
    X[3::6] = np.nextafter(X[3::6], np.inf)
    u = np.repeat(rng.uniform(0.05, 4.0, size=(10, 9)), 6, axis=0)
    K = _assert_matches_the_frozen_kernel(X, u, 0.9)
    _assert_exponents_within_the_stated_bound(X, u, 0.9, K)
    for g in range(10):
        block = K[6 * g:6 * g + 6, 6 * g:6 * g + 6]
        assert np.all(block <= block[0, 0])


def test_weighted_kernel_diagonal_is_its_closed_form_bit_for_bit():
    rng = np.random.default_rng(22)
    X = rng.normal(size=(40, 9)) * 10.0
    u = 10.0 ** rng.uniform(-6, 0, size=(40, 9))
    u[::4] = u[0]
    K = weighted_kernel(X, u, sigma=0.4).entries
    logdet = np.log(2.0 * u[:, 0])
    for f in range(1, 9):  # in feature order
        logdet = logdet + np.log(2.0 * u[:, f])
    assert np.diagonal(K).tobytes() == np.exp(-0.5 * logdet).tobytes()


def _assert_exponents_within_the_stated_bound(X, u, sigma, K):
    """Every entry's exponent within (3m + 10) u S of the formula's, with
    u = 2^-53 and S as the `weighted_kernel` docstring defines it. The
    formula is evaluated in extended precision where the platform has it."""
    ld = np.longdouble
    tiny = np.finfo(float).tiny
    a = u[:, None, :] + u[None, :, :]
    al = u.astype(ld)[:, None, :] + u.astype(ld)[None, :, :]
    Xl = X.astype(ld)
    exact = -(((Xl[:, None, :] - Xl[None, :, :]) ** 2 / al).sum(axis=2) / ld(sigma) ** 2
              + 0.5 * np.log(al).sum(axis=2))
    xc = np.abs(X - X.mean(axis=0))
    S = (((xc[:, None, :] + xc[None, :, :]) ** 2 / (sigma**2 * a)
          + 0.5 * np.abs(np.log(a)) + 1.0).sum(axis=2))
    m = X.shape[1]
    bound = (3 * m + 10) * 2.0**-53 * S
    bound += (m + 4) * float(np.finfo(ld).eps) * S  # the reference's own rounding
    normal = K >= tiny
    assert np.all(np.abs(np.log(K[normal]).astype(ld) - exact[normal]) <= bound[normal])
    # an entry under the normal range has an exponent that is, within the bound
    assert np.all(exact[~normal] - bound[~normal] < np.log(tiny))


def test_weighted_kernel_exponent_within_the_stated_bound_at_six_decades():
    rng = np.random.default_rng(1)
    for _ in range(5):  # c01's spreads
        X = rng.normal(size=(60, 9))
        u = 10.0 ** rng.uniform(-6, 0, size=(60, 9))
        u[::3] = u[1]  # one group of 20 rows, the rest distinct
        sigma = float(rng.uniform(0.3, 3.0))
        K = weighted_kernel(X, u, sigma=sigma).entries
        _assert_exponents_within_the_stated_bound(X, u, sigma, K)


def test_fitted_weight_field_matches_the_frozen_kernel(loop_fit):
    from cohortmetric.diffusion import _weight_groups

    X, _, _, metric = loop_fit
    u = metric.weights.inv_diag()
    assert len(_weight_groups(u)) < len(X) // 4
    _assert_matches_the_frozen_kernel(X, u, metric.sigma)
    # the field's own bandwidth: the median form, as the fit took it
    assert weighted_kernel(X, u).sigma == metric.sigma


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


def test_fit_reference_is_built_from_the_returned_weights():
    from cohortmetric.harness import fit_pipeline
    from cohortmetric.simulate import TrialSpec, gen_sphere_trial

    ds = gen_sphere_trial(TrialSpec("sphere", n=300, seed=21))
    cfg = RunConfig(dim=3, max_iters=2, min_cohort=15)
    model = fit_pipeline(ds.data, ds.records, cfg)
    metric = model.metric
    want = build_reference(ds.data.values, metric.weights.inv_diag(), metric.sigma, cfg.dim + 1)
    for name in ("x_ref", "inv_diag", "psi", "singular_values", "d2", "coords"):
        assert getattr(model.ref, name).tobytes() == getattr(want, name).tobytes(), name
    assert model.ref.sigma == want.sigma == metric.sigma


def test_fit_weights_are_computed_on_the_returned_tree(loop_fit):
    X, F, cfg, metric = loop_fit
    W = compute_weight_field(X, F, metric.tree)
    assert np.array_equal(W.point_weights, metric.weights.point_weights)
    assert W.lam == metric.weights.lam


def test_fit_builds_one_tree_and_one_weight_field_per_step(loop_fit, monkeypatch):
    import cohortmetric.metric as metric_mod

    X, F, cfg, _ = loop_fit
    calls = {}

    def spy(name):
        wrapped = getattr(metric_mod, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(metric_mod, name, counted)

    for name in ("build_topdown", "compute_weight_field", "weighted_kernel", "spectral_embed"):
        spy(name)
    metric = fit_weighted_metric(X, F, cfg)
    assert calls["build_topdown"] == calls["compute_weight_field"] == cfg.max_iters
    # no kernel follows the last weights: the Gaussian embedding, then one per later step
    assert calls["weighted_kernel"] == cfg.max_iters - 1
    assert calls["spectral_embed"] == cfg.max_iters
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
    assert m1.sigma == m2.sigma
    r1, r2 = (build_reference(X, m.weights.inv_diag(), m.sigma, cfg.dim + 1) for m in (m1, m2))
    assert np.array_equal(r1.coords, r2.coords)


def test_algorithm_requires_two_cohorts():
    X = np.random.default_rng(9).normal(size=(10, 2))
    with pytest.raises(ValueError, match="two valid cohorts"):
        fit_weighted_metric(X, constant_functional(0.0, c=8))


def test_metric_distance_axioms_on_samples():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(100, 4))
    F = CohortFunctional.from_labels(X[:, 0], 8)
    metric = fit_weighted_metric(X, F, RunConfig(dim=4, seed=4, max_iters=2))
    coords = build_reference(X, metric.weights.inv_diag(), metric.sigma, 5).coords
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
    # the served geometry: the reference coordinates of the fit's weights and bandwidth
    coords = build_reference(X, metric.weights.inv_diag(), metric.sigma, 4).coords
    return metric, F, labels, coords


def test_estimate_knn_matches_bruteforce(fitted_metric):
    metric, F, labels, coords = fitted_metric
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


def _assert_nearest_first(coords, center, k, got):
    """The brute-force kNN oracle: `got` holds min(k, n) distinct indices,
    their exact squared distances do not decrease along the order, and no
    excluded point is nearer than the farthest kept one, each up to 1e-12
    of the squared distances' scale (near-ties may swap)."""
    d2 = ((coords - center) ** 2).sum(axis=1)
    tol = 1e-12 * d2.max()
    assert got.dtype == np.intp and got.size == min(k, len(coords))
    assert np.unique(got).size == got.size and 0 <= got.min() and got.max() < len(coords)
    assert (np.diff(d2[got]) >= -tol).all()
    excluded = np.setdiff1d(np.arange(len(coords)), got)
    if excluded.size:
        assert d2[excluded].min() >= d2[got].max() - tol


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
            _assert_nearest_first(coords, c, k, g)
    assert neighborhood_indices(coords, centers[:0], 1) == []


def test_neighborhoods_take_rows_of_centers():
    from cohortmetric.metric import neighborhood_indices

    coords = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match="centers must be"):
        neighborhood_indices(coords, coords[0], 2)
    with pytest.raises(ValueError, match="centers must be"):
        neighborhood_indices(coords, coords[:2, :1], 2)


@pytest.mark.parametrize("where", ["coords", "centers"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_neighborhoods_refuse_nonfinite_points(where, bad):
    from cohortmetric.metric import neighborhood_indices

    coords = np.arange(120.0).reshape(40, 3)
    centers = coords[33:34].copy()
    (coords if where == "coords" else centers)[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        neighborhood_indices(coords, centers, 3)


@pytest.mark.parametrize("kw", [{"k": 7.5}, {"k": True}, {"k": 0}])
def test_neighborhood_rule_rejects_invalid_size(kw):
    from cohortmetric.metric import neighborhood_indices

    coords = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        neighborhood_indices(coords, coords[:1], **kw)


def test_estimate_propagates_too_small(fitted_metric):
    metric, _, labels, coords = fitted_metric
    F = CohortFunctional.from_labels(labels, metric.cohort_size + 1)
    with pytest.raises(CohortTooSmallError):
        multiscale_estimate(coords, metric.cohort_size, F, 0)


@pytest.mark.parametrize("i", [-1, 200, 2.0, np.float64(3), True, None])
def test_multiscale_refuses_a_point_that_is_not_a_row(fitted_metric, i):
    metric, F, _, coords = fitted_metric
    with pytest.raises(ValueError, match="integer row of the 200 coords"):
        multiscale_estimate(coords, metric.cohort_size, F, i)


def test_duplicate_points_share_estimates():
    rng = np.random.default_rng(12)
    base = rng.uniform(size=(60, 3))
    X = np.vstack([base, base[:2]])  # rows 60,61 duplicate rows 0,1
    labels = X[:, 0]
    F = CohortFunctional.from_labels(labels, 5)
    metric = fit_weighted_metric(X, F, RunConfig(dim=3, seed=6, max_iters=1))
    coords = build_reference(X, metric.weights.inv_diag(), metric.sigma, 4).coords
    k = metric.cohort_size
    e0 = multiscale_estimate(coords, k, F, 0).coarse_value
    e60 = multiscale_estimate(coords, k, F, 60).coarse_value
    np.testing.assert_allclose(e0, e60, rtol=1e-9)


def test_multiscale_constant_functional_zero(fitted_metric):
    metric, _, _, coords = fitted_metric
    F = constant_functional(5.0, c=3)
    dec = multiscale_estimate(coords, metric.cohort_size, F, 10)
    assert dec.sizes == (10, 5, 3)
    assert dec.coarse_value == 5.0
    assert all(c == 0.0 for c in dec.coefficients)


def test_multiscale_single_scale_definition(fitted_metric):
    metric, _, labels, coords = fitted_metric
    from cohortmetric.metric import neighborhood_indices

    F = CohortFunctional.from_labels(labels, 5)
    dec = multiscale_estimate(coords, metric.cohort_size, F, 5)
    cohort = neighborhood_indices(coords, coords[5:6], metric.cohort_size)[0]
    assert dec.sizes == (10, 5) and len(dec.coefficients) == 1
    assert dec.coarse_value == F(cohort)
    assert dec.coefficients[0] == F(cohort[:5]) - F(cohort)


def test_multiscale_telescoping(fitted_metric):
    from cohortmetric.metric import neighborhood_indices

    metric, F, _, coords = fitted_metric
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
    from cohortmetric.metric import neighborhood_indices

    rng = np.random.default_rng(d)
    coords = _tied_grid(d, rng)
    labels = rng.normal(size=len(coords))
    F = CohortFunctional.from_labels(labels, c)
    for i in (0, 7, 100, 149):
        order = neighborhood_indices(coords, coords[i:i + 1], k)[0]
        _assert_nearest_first(coords, coords[i], k, order)
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

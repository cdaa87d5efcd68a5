import numpy as np
import pytest

from cohortmetric.extension import asymmetric_kernel, build_reference, extend_batch
from cohortmetric.metric import weighted_kernel


def uniform_weights(n, m, value=1.0):
    return np.full((n, m), value)


# --- asymmetric_kernel ----------------------------------------------------------


def test_kernel_identity_weights_self_entry():
    X = np.array([[0.2, -0.4, 1.0]])
    K = asymmetric_kernel(X, X, uniform_weights(1, 3, 1.0), sigma=0.9)
    np.testing.assert_allclose(K[0, 0], 1.0)


def test_kernel_half_identity_substitution():
    m = 4
    x = np.zeros((1, m))
    z = np.full((1, m), 0.3)
    sigma = 1.1
    K = asymmetric_kernel(z, x, uniform_weights(1, m, 0.5), sigma=sigma)
    d2 = float(((z - x) ** 2).sum())
    expected = np.exp(-2.0 * d2 / sigma**2) / np.sqrt(2.0**-m)
    np.testing.assert_allclose(K[0, 0], expected, rtol=1e-12)


def test_one_sided_rows_differ_from_symmetric_kernel():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 3))
    u = rng.uniform(0.3, 2.0, size=(6, 3))
    sigma = 1.0
    K_sym = weighted_kernel(X, u, sigma=sigma).entries
    K_asym = asymmetric_kernel(X, X, u, sigma=sigma)
    # evaluate both formulas on a pair with distinct weights
    i, j = 0, 3
    d2 = (X[i] - X[j]) ** 2
    two_sided = np.exp(-(d2 / (u[i] + u[j])).sum() / sigma**2 - 0.5 * np.log(u[i] + u[j]).sum())
    one_sided = np.exp(-(d2 / u[j]).sum() / sigma**2 - 0.5 * np.log(u[j]).sum())
    np.testing.assert_allclose(K_sym[i, j], two_sided, rtol=1e-12)
    np.testing.assert_allclose(K_asym[i, j], one_sided, rtol=1e-12)
    assert abs(K_sym[i, j] - K_asym[i, j]) > 1e-12


def _asymmetric_oracle(Z, X, u, sigma):
    """The formula in one (m, rows, n_ref) stack of squared differences."""
    diff2 = (Z.T[:, :, None] - X.T[:, None, :]) ** 2
    q = (diff2 * (1.0 / u).T[:, None, :]).sum(axis=0)
    return np.exp(-q / sigma**2 - (0.5 * np.log(u).sum(axis=1))[None, :])


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 17, 130])
@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_asymmetric_kernel_matches_the_3d_formula(m, rows, offset, monkeypatch):
    from cohortmetric import extension

    if rows is not None:  # many row blocks instead of one
        monkeypatch.setattr(extension, "_rows_per_block", lambda n_cols, m: rows)
    rng = np.random.default_rng(m)
    X = rng.normal(size=(80, m)) + offset
    u = rng.uniform(0.05, 4.0, size=(80, m))
    Z = np.vstack([rng.normal(size=(20, m)) + offset, X[:5]])
    got = asymmetric_kernel(Z, X, u, sigma=1.3)
    want = _asymmetric_oracle(Z, X, u, 1.3)
    assert want.min() > 0  # no entry underflows: the relative test sees all
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_asymmetric_kernel_of_near_duplicates_is_at_most_its_peak():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 9)) + 5.0
    u = rng.uniform(0.05, 4.0, size=(60, 9))
    Z = np.vstack([X, X + 1e-9 * rng.normal(size=X.shape)])
    K = asymmetric_kernel(Z, X, u, sigma=0.7)
    logdet = np.log(u[:, 0])
    for f in range(1, 9):  # in feature order, as the kernel adds the logs
        logdet = logdet + np.log(u[:, f])
    peak = np.exp(-0.5 * logdet)  # the entry at q = 0
    assert (K <= peak[None, :]).all()  # q >= 0 after the clamp
    for rows in (K[:60], K[60:]):
        np.testing.assert_allclose(np.diagonal(rows), peak, rtol=1e-12)


def test_extend_batch_matches_the_copying_normalization_bit_for_bit():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    u = rng.uniform(0.3, 2.0, size=(60, 4))
    ref = build_reference(X, u, sigma=0.8, n_components=5)
    inside = rng.normal(size=(9, 4))
    for Z in (inside, np.vstack([inside[:4], np.full((2, 4), 60.0), inside[4:]])):
        rows = asymmetric_kernel(Z, X, u, 0.8)
        sums = rows.sum(axis=1)
        keep = sums > 0
        want = np.full((Z.shape[0], ref.rank), np.nan)
        A = rows[keep] / np.sqrt(sums[keep])[:, None] / np.sqrt(ref.d2)[None, :]
        want[keep] = A @ ref.psi
        coords, in_support = extend_batch(ref, Z)
        assert np.array_equal(in_support, keep)
        assert coords.tobytes() == want.tobytes()
    assert not in_support.all()


# --- build_reference ---------------------------------------------------------------


def test_reference_self_extension_is_exact():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 5))
    u = rng.uniform(0.5, 1.5, size=(40, 5))
    ref = build_reference(X, u, sigma=1.4)
    coords, ok = extend_batch(ref, X)
    assert ok.all()
    scale = np.linalg.norm(ref.coords, axis=0)
    err = np.abs(coords - ref.coords).max(axis=0) / scale
    assert err.max() < 1e-6


def test_reference_rank_bounded():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(15, 3))
    ref = build_reference(X, uniform_weights(15, 3), sigma=1.0)
    assert ref.rank <= 15
    assert np.all(np.diff(ref.singular_values) <= 1e-12)


def test_reference_columns_match_full_svd_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 4))
    u = rng.uniform(0.4, 2.0, size=(20, 4))
    sigma = 1.2
    K = asymmetric_kernel(X, X, u, sigma=sigma)
    A = K / np.sqrt(K.sum(axis=1))[:, None] / np.sqrt(K.sum(axis=0))[None, :]
    U, S, Vt = np.linalg.svd(A)
    # None: all 20 pairs on the dense path; 6: the top 6 through ARPACK
    for n_components in (None, 6):
        ref = build_reference(X, u, sigma=sigma, n_components=n_components)
        np.testing.assert_allclose(ref.singular_values, S[: ref.rank], atol=1e-8)
        # reference coords A psi should equal U S up to column signs
        for j in range(ref.rank):
            a = ref.coords[:, j]
            b = U[:, j] * S[j]
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8


def test_dense_reference_matches_a_symmetrized_gram_bit_for_bit():
    # numpy forms A'A with syrk, so symmetrizing it changes no bit
    from cohortmetric.diffusion import _fix_signs, _top_eigenpairs

    rng = np.random.default_rng(23)
    X = rng.normal(size=(300, 5))
    u = rng.uniform(0.2, 2.0, size=X.shape)
    ref = build_reference(X, u, sigma=1.5, n_components=None)
    A = asymmetric_kernel(X, X, u, sigma=1.5)
    A /= np.sqrt(A.sum(axis=1))[:, None]
    A /= np.sqrt(ref.d2)[None, :]
    G = A.T @ A
    vals, vecs = _top_eigenpairs(0.5 * (G + G.T), len(X))
    s = np.sqrt(np.clip(vals, 0.0, None))
    keep = s >= 1e-10 * s[0]
    psi = _fix_signs(vecs[:, keep])
    assert ref.singular_values.tobytes() == s[keep].tobytes()
    assert ref.psi.tobytes() == psi.tobytes()
    assert ref.coords.tobytes() == (A @ psi).tobytes()


def test_singular_values_invariant_to_reference_order():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(25, 3))
    u = rng.uniform(0.5, 1.5, size=(25, 3))
    ref1 = build_reference(X, u, sigma=1.0)
    perm = rng.permutation(25)
    ref2 = build_reference(X[perm], u[perm], sigma=1.0)
    k = min(ref1.rank, ref2.rank)
    np.testing.assert_allclose(ref1.singular_values[:k], ref2.singular_values[:k], atol=1e-10)


def test_reference_needs_two_points():
    with pytest.raises(ValueError, match="two reference"):
        build_reference(np.zeros((1, 2)), uniform_weights(1, 2), sigma=1.0)


@pytest.mark.parametrize("width", [3, 5])
def test_points_of_another_width_are_refused(width):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4))
    ref = build_reference(X, uniform_weights(30, 4), sigma=1.1)
    Z = rng.normal(size=(5, width))
    with pytest.raises(ValueError, match=f"points have {width} features, the reference points 4"):
        asymmetric_kernel(Z, X, uniform_weights(30, 4), sigma=1.1)
    with pytest.raises(ValueError, match=f"points have {width} features"):
        extend_batch(ref, Z)


def test_a_nan_weight_diagonal_is_refused():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 4))
    u = rng.uniform(0.5, 2.0, size=(30, 4))
    u[11, 1] = np.nan
    with pytest.raises(ValueError, match="W_x diagonals must be positive"):
        asymmetric_kernel(X[:5], X, u, sigma=1.1)
    with pytest.raises(ValueError, match="W_x diagonals must be positive"):
        build_reference(X, u, sigma=1.1, n_components=3)  # before the eigensolver


@pytest.mark.parametrize("sigma", [np.inf, np.nan, 0.0, -1.0])
def test_asymmetric_kernel_refuses_a_bandwidth_that_is_not_finite_and_positive(sigma):
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 4))
    u = rng.uniform(0.5, 2.0, size=(30, 4))
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        asymmetric_kernel(X[:5], X, u, sigma)


@pytest.mark.parametrize("n_components", [2.5, np.float64(3.0), True, 0, -1])
def test_reference_refuses_a_count_that_is_not_an_integer_of_at_least_one(n_components):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 4))
    with pytest.raises(ValueError, match="n_components must be an integer >= 1"):
        build_reference(X, uniform_weights(30, 4), sigma=1.1, n_components=n_components)


# --- extend ---------------------------------------------------------------------------


def test_extend_duplicate_of_training_point():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    u = rng.uniform(0.5, 2.0, size=(30, 4))
    ref = build_reference(X, u, sigma=1.1)
    z = X[7].copy()
    coords, in_support = extend_batch(ref, z)
    assert in_support.tolist() == [True]
    coords = coords[0]
    rel = np.abs(coords - ref.coords[7]) / np.maximum(np.abs(ref.coords[7]), 1e-12)
    assert rel.max() < 1e-6


def test_extend_is_linear_in_normalized_rows():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 2))
    u = uniform_weights(12, 2)
    ref = build_reference(X, u, sigma=1.5)
    za, zb = rng.normal(size=2), rng.normal(size=2)
    ka = asymmetric_kernel(za, X, u, ref.sigma)[0]
    kb = asymmetric_kernel(zb, X, u, ref.sigma)[0]
    mix = 0.3 * ka + 0.7 * kb
    # a constructed row extends to the same convex combination after matched
    # normalization
    a_mix = mix / np.sqrt(mix.sum()) / np.sqrt(ref.d2)
    expected = a_mix @ ref.psi
    a_a = ka / np.sqrt(ka.sum()) / np.sqrt(ref.d2)
    a_b = kb / np.sqrt(kb.sum()) / np.sqrt(ref.d2)
    w_a = 0.3 * np.sqrt(ka.sum()) / np.sqrt(mix.sum())
    w_b = 0.7 * np.sqrt(kb.sum()) / np.sqrt(mix.sum())
    combo = w_a * (a_a @ ref.psi) + w_b * (a_b @ ref.psi)
    np.testing.assert_allclose(combo, expected, atol=1e-12)


def test_far_outlier_flagged_out_of_support():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    ref = build_reference(X, uniform_weights(20, 3), sigma=0.5)
    z = np.full(3, 1e4)  # its kernel row underflows to zero
    coords, ok = extend_batch(ref, np.vstack([X[0], z]))
    assert ok.tolist() == [True, False]
    assert np.isnan(coords[1]).all()

import numpy as np
import pytest

from cohortmetric.extension import (
    OutOfSupportError,
    asymmetric_kernel,
    build_reference,
    extend,
    extend_batch,
)
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
    """The (rows, n_ref, m) formula in one block."""
    diff2 = (Z[:, None, :] - X[None, :, :]) ** 2
    q = (diff2 * (1.0 / u)[None, :, :]).sum(axis=2)
    return np.exp(-q / sigma**2 - (0.5 * np.log(u).sum(axis=1))[None, :])


@pytest.mark.parametrize("m", [1, 2, 7, 8, 9, 17, 130])
@pytest.mark.parametrize("rows", [None, 3])
def test_feature_major_asymmetric_kernel_matches_the_3d_formula_bit_for_bit(m, rows, monkeypatch):
    from cohortmetric import extension

    if rows is not None:  # many row blocks instead of one
        monkeypatch.setattr(extension, "_rows_per_block", lambda n_cols, m: rows)
    rng = np.random.default_rng(m)
    X = rng.normal(size=(80, m))
    u = rng.uniform(0.05, 4.0, size=(80, m))
    Z = np.vstack([rng.normal(size=(20, m)), X[:5]])
    got = asymmetric_kernel(Z, X, u, sigma=1.3)
    assert got.tobytes() == _asymmetric_oracle(Z, X, u, 1.3).tobytes()


def test_extend_batch_matches_the_copying_normalization_bit_for_bit():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    u = rng.uniform(0.3, 2.0, size=(60, 4))
    ref = build_reference(X, u, sigma=0.8, tau=1e-3, n_components=5)
    inside = rng.normal(size=(9, 4))
    for Z in (inside, np.vstack([inside[:4], np.full((2, 4), 60.0), inside[4:]])):
        rows = asymmetric_kernel(Z, X, u, 0.8, 1e-3)
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


# --- extend ---------------------------------------------------------------------------


def test_extend_duplicate_of_training_point():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    u = rng.uniform(0.5, 2.0, size=(30, 4))
    ref = build_reference(X, u, sigma=1.1)
    z = X[7].copy()
    coords = extend(ref, z)
    rel = np.abs(coords - ref.coords[7]) / np.maximum(np.abs(ref.coords[7]), 1e-12)
    assert rel.max() < 1e-6


def test_extend_takes_exactly_one_point():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 4))
    ref = build_reference(X, uniform_weights(30, 4), sigma=1.1)
    np.testing.assert_array_equal(extend(ref, X[4]), extend(ref, X[4:5]))
    np.testing.assert_array_equal(extend(ref, X[4]), extend_batch(ref, X[4:5])[0][0])
    with pytest.raises(ValueError, match="one point, got 3 rows"):
        extend(ref, X[:3])


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
    ref = build_reference(X, uniform_weights(20, 3), sigma=0.5, tau=1e-8)
    z = np.full(3, 1e4)
    with pytest.raises(OutOfSupportError):
        extend(ref, z)
    coords, ok = extend_batch(ref, np.vstack([X[0], z]))
    assert ok.tolist() == [True, False]
    assert np.isnan(coords[1]).all()

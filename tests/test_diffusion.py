import mmap

import numpy as np
import pytest
from scipy.linalg import eig, eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial.distance import cdist

from cohortmetric import diffusion
from cohortmetric.data import DataMatrix
from cohortmetric.diffusion import (
    _fix_signs,
    gaussian_kernel,
    markov_normalize,
    median_bandwidth,
    spectral_embed,
)
from cohortmetric.extension import build_reference


def test_data_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_data_matrix_defaults():
    dm = DataMatrix(np.ones((3, 2)))
    assert dm.feature_names == ("x_1", "x_2")
    assert list(dm.point_ids) == [0, 1, 2]


def test_gaussian_self_affinity_is_one():
    X = np.random.default_rng(0).normal(size=(20, 4))
    K = gaussian_kernel(X, sigma=1.3)
    np.testing.assert_allclose(np.diagonal(K.entries), 1.0)


def test_gaussian_known_distance_value():
    # distance sigma*sqrt(2) gives exactly exp(-1)
    sigma = 0.7
    X = np.array([[0.0, 0.0], [sigma * np.sqrt(2.0), 0.0]])
    K = gaussian_kernel(X, sigma=sigma)
    np.testing.assert_allclose(K.entries[0, 1], np.exp(-1.0), rtol=1e-12)


def test_gaussian_matches_bruteforce_and_is_exactly_symmetric():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 9))
    sigma = 0.9
    K = gaussian_kernel(X, sigma=sigma).entries
    # brute-force pairwise oracle
    expected = np.empty((50, 50))
    for i in range(50):
        for j in range(50):
            expected[i, j] = np.exp(-np.sum((X[i] - X[j]) ** 2) / (2 * sigma**2))
    np.testing.assert_allclose(K, expected, rtol=1e-12)
    assert np.array_equal(K, K.T)
    assert K.min() >= 0.0 and K.max() <= 1.0


def test_gaussian_kernel_is_dense_and_exact_above_4000_points():
    # every size assembles the full n x n kernel: no neighbour truncation
    n, sigma = 4001, 0.8
    X = np.random.default_rng(3).normal(size=(n, 3))
    K = gaussian_kernel(X, sigma=sigma).entries
    assert type(K) is np.ndarray and K.shape == (n, n)
    rows = np.array([0, 1, 1999, 3999, 4000])
    expected = np.exp(-cdist(X[rows], X, "sqeuclidean") / (2 * sigma**2))
    np.testing.assert_allclose(K[rows], expected, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(K[:, rows], K[rows].T)


def test_row_blocks_cap_temporaries_without_changing_entries(monkeypatch):
    from cohortmetric import extension
    from cohortmetric.metric import weighted_kernel

    assert diffusion._rows_per_block(2000, 9) * 2000 * 9 <= 2**21
    assert diffusion._rows_per_block(2000, 1) == 2**21 // 2000
    assert diffusion._rows_per_block(10**7, 9) == 1
    rng = np.random.default_rng(4)
    X = rng.normal(size=(800, 9))
    u = rng.uniform(0.1, 3.0, size=(800, 9))
    Z = rng.normal(size=(400, 9))
    # 800 columns take 81 rows per block: ten blocks, against one below
    G = gaussian_kernel(X, sigma=1.2).entries
    K = weighted_kernel(X, u, sigma=1.2).entries
    A = extension.asymmetric_kernel(Z, X, u, sigma=1.2)
    monkeypatch.setattr(diffusion, "_rows_per_block", lambda n_cols, m: 10**6)
    monkeypatch.setattr(extension, "_rows_per_block", lambda n_cols, m: 10**6)
    # the Gaussian's one group spans many rows, and each block's product
    # starts at the block's first column, so BLAS may give a column to its
    # edge kernel in one partition and not the other: the same entries to
    # rounding. Each row of this u is a group of its own, one
    # matrix-vector product whatever the blocks.
    np.testing.assert_allclose(gaussian_kernel(X, sigma=1.2).entries, G, rtol=1e-13, atol=0)
    assert np.array_equal(weighted_kernel(X, u, sigma=1.2).entries, K)
    assert np.array_equal(extension.asymmetric_kernel(Z, X, u, sigma=1.2), A)


@pytest.mark.parametrize("rows", [None, 7])
def test_gaussian_diagonal_is_one_and_symmetry_exact_over_row_blocks(rows, monkeypatch):
    if rows is not None:  # 43 blocks of 7 rows
        monkeypatch.setattr(diffusion, "_rows_per_block", lambda n_cols, m: rows)
    X = np.random.default_rng(18).normal(size=(300, 9)) * 5.0 + 40.0
    K = gaussian_kernel(X, sigma=2.5).entries
    assert np.all(np.diagonal(K) == 1.0)
    assert np.array_equal(K, K.T)
    assert K.max() == 1.0


def test_gaussian_exponent_within_the_stated_bound_for_two_distant_clusters():
    # the clusters lie 50 sigma either side of the mean point, where the
    # expansion cancels terms of about 5000 against exponents of order 1:
    # each exponent is within (3m + 10) 2^-53 S of the cdist formula's,
    # with S as the `weighted_kernel` docstring defines it at a = 1 and
    # bandwidth sqrt(2) sigma
    rng = np.random.default_rng(19)
    m, sigma = 9, 0.4
    X = rng.normal(scale=sigma, size=(160, m))
    X[80:, 0] += 100.0 * sigma
    K = gaussian_kernel(X, sigma=sigma).entries
    exact = -cdist(X, X, "sqeuclidean") / (2.0 * sigma**2)
    xc = np.abs(X - X.mean(axis=0))
    S = ((xc[:, None, :] + xc[None, :, :]) ** 2 / (2.0 * sigma**2) + 1.0).sum(axis=2)
    bound = (3 * m + 10) * 2.0**-53 * S
    bound += (m + 4) * 2.0**-53 * np.abs(exact)  # the oracle's own rounding
    tiny = np.finfo(float).tiny
    normal = K >= tiny
    assert normal[:80, :80].all() and normal[80:, 80:].all()
    assert np.all(np.abs(np.log(K[normal]) - exact[normal]) <= bound[normal])
    # across the clusters every entry underflows, as the formula's does
    assert not normal[:80, 80:].any()
    assert np.all(exact[~normal] - bound[~normal] < np.log(tiny))


@pytest.mark.parametrize("sigma", [np.inf, np.nan, 0.0, -1.0])
def test_gaussian_kernel_refuses_a_bandwidth_that_is_not_finite_and_positive(sigma):
    X = np.random.default_rng(20).normal(size=(30, 4))
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        gaussian_kernel(X, sigma=sigma)


@pytest.mark.parametrize("d", [2.5, np.float64(3.0), True, 0, -1])
def test_spectral_embed_refuses_a_count_that_is_not_an_integer_of_at_least_one(d):
    op = markov_normalize(gaussian_kernel(np.random.default_rng(21).normal(size=(30, 3))))
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        spectral_embed(op, d=d)


@pytest.mark.parametrize("rows", [None, 37])
def test_markov_normalize_matches_the_unblocked_formula_bit_for_bit(rows, monkeypatch):
    from cohortmetric.metric import weighted_kernel

    rng = np.random.default_rng(12)
    X = rng.normal(size=(600, 9))
    u = rng.uniform(0.1, 3.0, size=(600, 9))
    K = weighted_kernel(X, u, sigma=2.0)
    if rows is not None:  # many row blocks instead of one
        monkeypatch.setattr(diffusion, "_rows_per_block", lambda n_cols, m: rows)
    K0 = K.entries.copy()  # markov_normalize consumes K
    op = markov_normalize(K)
    inv_sqrt = 1.0 / np.sqrt(K0.sum(axis=1))
    S = K0 * np.multiply.outer(inv_sqrt, inv_sqrt)
    assert op.S.tobytes() == S.tobytes()
    assert np.array_equal(op.S, op.S.T)  # s_i s_j is s_j s_i: symmetric by construction
    emb = spectral_embed(op, d=6)
    ref = spectral_embed(diffusion.MarkovOperator(S, op.row_sums), d=6)
    assert emb.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert emb.eigenvectors.tobytes() == ref.eigenvectors.tobytes()


@pytest.mark.parametrize("rows", [None, 37])
def test_asymmetry_check_reports_the_full_maximum(rows, monkeypatch):
    if rows is not None:
        monkeypatch.setattr(diffusion, "_rows_per_block", lambda n_cols, m: rows)
    rng = np.random.default_rng(13)
    G = rng.uniform(0.1, 1.0, size=(300, 300))
    K = 0.5 * (G + G.T)
    K[250, 3] += 3e-9
    K[40, 41] += 1e-13
    full = np.max(np.abs(K - K.T))
    assert diffusion._max_asymmetry(K) == full
    with pytest.raises(ValueError, match=f"max \\|K - K\\^T\\| = {full:.3g}$"):
        diffusion.AffinityMatrix(K, sigma=1.0)
    K[250, 3] -= 3e-9
    diffusion.AffinityMatrix(K, sigma=1.0)  # 1e-13 is within the tolerance


def test_a_kernel_asymmetric_within_the_tolerance_normalizes_and_embeds():
    rng = np.random.default_rng(13)
    G = rng.uniform(0.1, 1.0, size=(300, 300))
    K = 0.5 * (G + G.T)
    exact = spectral_embed(markov_normalize(diffusion.AffinityMatrix(K.copy(), sigma=1.0)), d=5)
    K[40, 41] += 1e-13
    op = markov_normalize(diffusion.AffinityMatrix(K, sigma=1.0))
    assert 0 < np.max(np.abs(op.S - op.S.T)) < 1e-12
    emb = spectral_embed(op, d=5)
    assert emb.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(emb.eigenvalues, exact.eigenvalues, rtol=0, atol=1e-12)
    np.testing.assert_allclose(emb.coords, exact.coords, rtol=0, atol=1e-9)


@pytest.mark.parametrize("at", [(0, 1), (2, 2)])
def test_affinity_matrix_refuses_nan_entries(at):
    K = np.ones((4, 4))
    K[at] = K[at[::-1]] = np.nan  # symmetric, so only the NaN is wrong
    with pytest.raises(ValueError, match="not finite"):
        diffusion.AffinityMatrix(K, sigma=1.0)


def _is_mapped(a) -> bool:
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


def test_large_kernels_and_operators_get_their_own_mapping():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(600, 4))  # 600^2 floats: 2.9 MB, above MAPPED_MIN_BYTES
    K = gaussian_kernel(X)
    op = markov_normalize(K)
    ref = build_reference(X, np.ones_like(X), sigma=2.0, n_components=5)
    assert _is_mapped(K.entries) and _is_mapped(op.S)
    assert K.entries.flags.writeable and op.S.flags.c_contiguous
    assert ref.psi.shape == (600, 5)
    small = diffusion._empty_mapped((10, 10))
    assert not _is_mapped(small) and small.shape == (10, 10)
    assert not _is_mapped(gaussian_kernel(X[:50]).entries)


def test_markov_normalize_builds_s_in_the_kernels_buffer():
    rng = np.random.default_rng(16)
    K = gaussian_kernel(rng.normal(size=(300, 4)))
    op = markov_normalize(K)
    assert np.shares_memory(op.S, K.entries)


def test_markov_identity_and_uniform():
    K = gaussian_kernel(np.array([[0.0], [100.0]]), sigma=0.1)
    K0 = K.entries.copy()
    op = markov_normalize(K)
    np.testing.assert_allclose(K0 / op.row_sums[:, None], np.eye(2), atol=1e-300)

    from cohortmetric.diffusion import AffinityMatrix

    K = AffinityMatrix(np.ones((2, 2)), sigma=1.0)
    K0 = K.entries.copy()
    op = markov_normalize(K)
    np.testing.assert_allclose(K0 / op.row_sums[:, None], 0.5 * np.ones((2, 2)))


def test_markov_rejects_isolated_point():
    from cohortmetric.diffusion import AffinityMatrix

    K = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    # zero row sums cannot happen with a positive diagonal; zero out manually
    with pytest.raises(ValueError, match="diagonal"):
        AffinityMatrix(K * np.array([0.0, 1.0, 1.0])[:, None], sigma=1.0)


def test_markov_rows_sum_to_one_and_spectra_match():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 4))
    K = gaussian_kernel(X, sigma=1.0)
    K0 = K.entries.copy()
    op = markov_normalize(K)
    P = K0 / op.row_sums[:, None]
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    # dense eigensolver oracle on both P and S
    vals_p = np.sort(eig(P)[0].real)
    vals_s = np.sort(eigh(op.S)[0])
    np.testing.assert_allclose(vals_p, vals_s, atol=1e-10)


@pytest.mark.parametrize("vals_size, vecs_shape", [(3, (10, 4)), (4, (10, 3)), (4, (40,)),
                                                   (5, (10, 5))])
def test_embedding_refuses_eigenpairs_that_do_not_match_d(vals_size, vecs_shape):
    vals = np.linspace(1.0, 0.1, vals_size)
    vecs = np.ones(vecs_shape)
    with pytest.raises(ValueError, match="d=3 needs 4 eigenpairs"):
        diffusion.DiffusionEmbedding(vals, vecs, d=3)
    diffusion.DiffusionEmbedding(np.linspace(1.0, 0.1, 4), np.ones((10, 4)), d=3)


def test_embedding_separates_two_blocks():
    # block-diagonal affinity with a weak bridge: sign of phi_1 splits blocks
    n = 20
    K = np.full((n, n), 1e-6)
    K[:10, :10] = 1.0
    K[10:, 10:] = 1.0
    from cohortmetric.diffusion import AffinityMatrix

    A = AffinityMatrix(K.copy(), sigma=1.0)  # markov_normalize consumes A
    op = markov_normalize(A)
    emb = spectral_embed(op, d=3)
    phi1 = emb.eigenvectors[:, 1]
    assert len(set(np.sign(phi1[:10]))) == 1
    assert len(set(np.sign(phi1[10:]))) == 1
    assert np.sign(phi1[0]) != np.sign(phi1[-1])
    # oracle: phi_1 matches the dense eigensolver's second eigenvector of P
    vals, vecs = eig(K / op.row_sums[:, None])
    order = np.argsort(-vals.real)
    v = vecs[:, order[1]].real
    v = v / np.linalg.norm(v) * np.linalg.norm(phi1)
    if np.dot(v, phi1) < 0:
        v = -v
    np.testing.assert_allclose(np.abs(v), np.abs(phi1), atol=1e-8)


def test_full_spectrum_distance_matches_transition_rows():
    # d = n-1: embedding distances equal the degree-weighted L2 distance
    # between rows of P (the direct diffusion distance at t = 1)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(15, 3))
    K = gaussian_kernel(X, sigma=1.2)
    K0 = K.entries.copy()
    op = markov_normalize(K)
    emb = spectral_embed(op, d=14)
    P = K0 / op.row_sums[:, None]
    for i, j in [(0, 5), (3, 9), (1, 14), (7, 7)]:
        direct = np.sqrt(np.sum((P[i] - P[j]) ** 2 / op.row_sums))
        embedded = np.linalg.norm(emb.coords[i] - emb.coords[j])
        np.testing.assert_allclose(embedded, direct, atol=1e-8)


def test_spectrum_bounds_and_constant_top_vector():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    emb = spectral_embed(markov_normalize(gaussian_kernel(X, sigma=2.0)), d=6)
    assert abs(emb.eigenvalues[0] - 1.0) <= 1e-8
    assert np.all(np.abs(emb.eigenvalues) <= 1 + 1e-8)
    phi0 = emb.eigenvectors[:, 0]
    np.testing.assert_allclose(phi0, phi0[0], rtol=1e-8)


def test_median_bandwidth_simple():
    X = np.array([[0.0], [1.0], [2.0]])
    # pairwise nonzero distances: 1,1,2 -> median 1
    assert median_bandwidth(X) == 1.0


def test_median_bandwidth_is_the_median_of_the_nonzero_distances_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 8, 41):
        # integer points repeat, so some distances are zero
        for X in (rng.normal(size=(n, 3)), rng.integers(0, 2, size=(n, 2)).astype(float)):
            d = cdist(X, X)
            nz = d[d > 0]
            assert median_bandwidth(X) == (float(np.median(nz)) if nz.size else 1.0)
    X = rng.normal(size=(2300, 4))  # subsampled to 2000 points: a mapped 16 MB buffer
    for dup in (False, True):
        if dup:  # rows that repeat inside the subsample
            X[100:1500:3] = X[0]
        sub = X[np.unique(np.linspace(0, 2299, 2000).astype(int))]
        d = cdist(sub, sub)
        assert median_bandwidth(X) == float(np.median(d[d > 0]))


def test_fix_signs_gives_a_c_ordered_copy_as_the_column_loop_does():
    # a fitted model's arrays must have a loaded model's layout, or served
    # products differ in their last bits
    vecs = np.asfortranarray(np.random.default_rng(3).normal(size=(40, 5)))
    vecs[7, 2], vecs[9, 2] = -10.0, 10.0  # tied magnitudes: the first decides
    want = vecs.copy(order="C")
    for j in range(want.shape[1]):
        i = int(np.argmax(np.abs(want[:, j])))
        if want[i, j] < 0:
            want[:, j] = -want[:, j]
    got = _fix_signs(vecs)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    assert got[7, 2] == 10.0


def test_embedding_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    op = markov_normalize(gaussian_kernel(X, sigma=1.0))
    a = spectral_embed(op, d=5)
    b = spectral_embed(op, d=5)
    assert np.array_equal(a.coords, b.coords)


# --- the one top-k eigensolver ------------------------------------------------


def _solver_inputs():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 4))
    u = rng.uniform(0.5, 2.0, size=(60, 4))
    return markov_normalize(gaussian_kernel(X, sigma=1.0)), X, u


def _assert_equal_up_to_column_sign(a, b, tol):
    assert a.shape == b.shape
    for j in range(a.shape[1]):
        assert min(np.abs(a[:, j] - b[:, j]).max(), np.abs(a[:, j] + b[:, j]).max()) < tol


def test_top_k_problems_run_arpack(monkeypatch):
    calls = []

    def spy(M, k, **kwargs):
        calls.append((M.shape[0], k))
        return eigsh(M, k, **kwargs)

    monkeypatch.setattr(diffusion, "eigsh", spy)
    op, X, u = _solver_inputs()
    spectral_embed(op, d=5)
    build_reference(X, u, sigma=1.0, n_components=6)
    assert calls == [(60, 6), (60, 6)]


def test_arpack_failure_falls_back_to_dense_eigh(monkeypatch, caplog):
    op, X, u = _solver_inputs()
    emb = spectral_embed(op, d=5)
    ref = build_reference(X, u, sigma=1.0, n_components=6)

    def no_convergence(M, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.ones(2), np.ones((M.shape[0], 2)))

    monkeypatch.setattr(diffusion, "eigsh", no_convergence)
    with caplog.at_level("WARNING", logger="cohortmetric.diffusion"):
        emb_dense = spectral_embed(op, d=5)
        ref_dense = build_reference(X, u, sigma=1.0, n_components=6)
    fallbacks = [r for r in caplog.records if "ARPACK converged 2/6" in r.getMessage()]
    assert len(fallbacks) == 2
    np.testing.assert_allclose(emb_dense.eigenvalues, emb.eigenvalues, atol=1e-10)
    _assert_equal_up_to_column_sign(emb_dense.eigenvectors, emb.eigenvectors, 1e-10)
    np.testing.assert_allclose(ref_dense.singular_values, ref.singular_values, atol=1e-10)
    _assert_equal_up_to_column_sign(ref_dense.psi, ref.psi, 1e-10)
    _assert_equal_up_to_column_sign(ref_dense.coords, ref.coords, 1e-10)


def _reference_inputs(n=600, m=4):
    rng = np.random.default_rng(17)
    return rng.normal(size=(n, m)), rng.uniform(0.5, 2.0, size=(n, m))


def test_reference_arpack_path_matches_an_explicit_gram_oracle():
    from cohortmetric.extension import asymmetric_kernel

    X, u = _reference_inputs(n=300)
    ref = build_reference(X, u, sigma=1.0, n_components=6)
    K = asymmetric_kernel(X, X, u, 1.0)
    A = K / np.sqrt(K.sum(axis=1))[:, None] / np.sqrt(K.sum(axis=0))[None, :]
    vals, vecs = np.linalg.eigh(A.T @ A)
    vals, vecs = vals[::-1][:6], vecs[:, ::-1][:, :6]
    np.testing.assert_allclose(ref.singular_values, np.sqrt(vals), rtol=0, atol=1e-10)
    _assert_equal_up_to_column_sign(ref.psi, vecs, 1e-10)
    _assert_equal_up_to_column_sign(ref.coords, A @ vecs, 1e-10)


def test_reference_arpack_path_holds_one_n_by_n_array(monkeypatch):
    import tracemalloc

    from cohortmetric import extension

    X, u = _reference_inputs()
    n = X.shape[0]
    shapes, operands = [], []

    def mapped_spy(shape):
        shapes.append(tuple(shape))
        return diffusion._empty_mapped(shape)

    def eigsh_spy(M, k, **kwargs):
        operands.append(type(M))
        return eigsh(M, k, **kwargs)

    monkeypatch.setattr(extension, "_empty_mapped", mapped_spy)
    monkeypatch.setattr(diffusion, "eigsh", eigsh_spy)
    tracemalloc.start()
    try:
        build_reference(X, u, sigma=1.0, n_components=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shapes.count((n, n)) == 1  # the kernel A, normalized in place
    assert operands and not any(issubclass(t, np.ndarray) for t in operands)
    # A is mapped, so numpy's traced allocations hold no second n x n array
    assert peak < 8 * n * n

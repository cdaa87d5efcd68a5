import numpy as np
import pytest

import cohortmetric.tree as tree_mod
from cohortmetric.config import RunConfig
from cohortmetric.diffusion import DiffusionEmbedding, gaussian_kernel, markov_normalize, spectral_embed
from cohortmetric.metric import CohortFunctional, fit_weighted_metric
from cohortmetric.tree import PartitionTree, build_topdown


def embed_coords(coords):
    """Wrap raw coordinates as a unit-eigenvalue embedding (coords pass through)."""
    coords = np.asarray(coords, dtype=float)
    n, d = coords.shape
    vecs = np.column_stack([np.ones(n), coords])
    return DiffusionEmbedding(np.ones(d + 1), vecs, t=1.0, d=d)


def test_topdown_single_point():
    tree = build_topdown(embed_coords([[0.0]]), k=2, min_folder=1)
    assert tree.n_levels == 2
    assert len(tree.folders(1)) == 1
    assert len(tree.folders(2)) == 1
    assert tree.folders(2)[0].tolist() == [0]


def test_topdown_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 2)) * 0.1
    b = rng.normal(size=(20, 2)) * 0.1 + np.array([50.0, 0.0])
    coords = np.vstack([a, b])
    tree = build_topdown(embed_coords(coords), k=2, min_folder=5)
    level2 = {frozenset(f.tolist()) for f in tree.folders(2)}
    assert level2 == {frozenset(range(20)), frozenset(range(20, 40))}


def test_topdown_partition_invariants_hold():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(67, 3))
    tree = build_topdown(embed_coords(coords), k=3, min_folder=4)
    tree.validate()
    assert all(len(f) == 1 for f in tree.folders(tree.n_levels))


def test_topdown_is_deterministic():
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(50, 2))
    t1 = build_topdown(embed_coords(coords), k=2, min_folder=3)
    t2 = build_topdown(embed_coords(coords.copy()), k=2, min_folder=3)
    assert t1.to_lines() == t2.to_lines()


@pytest.mark.parametrize("k", [2, 3])
def test_the_tree_does_not_follow_the_signs_eigh_returns(k, monkeypatch):
    coords = _diffusion_coords(11, 5).coords
    want = build_topdown(embed_coords(coords), k=k, min_folder=4).to_lines()
    eigh = np.linalg.eigh

    def flipped(a, UPLO="L"):  # every other matrix's eigenvectors negated
        vals, vecs = eigh(a, UPLO=UPLO)
        vecs[::2] *= -1
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    assert build_topdown(embed_coords(coords), k=k, min_folder=4).to_lines() == want


@pytest.mark.parametrize("max_iter, lines", [
    # the principal split alone: slabs by point id
    (0, ["1,0,-1,0,1,2,3", "2,0,0,0,1", "2,1,0,2,3",
         "3,0,0,0", "3,1,0,1", "3,2,1,2", "3,3,1,3"]),
    # then Lloyd's ties leave a cluster empty, and its repair takes the
    # first point
    (100, ["1,0,-1,0,1,2,3", "2,0,0,1,2,3", "2,1,0,0",
           "3,0,0,2,3", "3,1,0,1", "3,2,1,0",
           "4,0,0,3", "4,1,0,2", "4,2,1,1", "4,3,2,0"]),
])
def test_a_folder_of_tied_projections_splits_by_point_id(max_iter, lines, monkeypatch):
    monkeypatch.setattr(tree_mod, "KMEANS_MAX_ITER", max_iter)
    # coinciding points all project to 0
    tree = build_topdown(embed_coords(np.full((4, 2), 3.0)), k=2, min_folder=1)
    assert tree.to_lines() == lines


def test_fit_draws_nothing_from_its_seed():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(150, 4))
    F = CohortFunctional.from_labels(np.sin(4 * X[:, 0]) + X[:, 1], 8)
    a, b = (fit_weighted_metric(X, F, RunConfig(dim=3, seed=seed, max_iters=2)) for seed in (2, 9))
    assert a.tree.to_lines() == b.tree.to_lines()
    assert a.weights.point_weights.tobytes() == b.weights.point_weights.tobytes()
    assert a.embedding.eigenvalues.tobytes() == b.embedding.eigenvalues.tobytes()
    assert a.embedding.eigenvectors.tobytes() == b.embedding.eigenvectors.tobytes()


def test_topdown_small_folder_passes_through():
    # k larger than some folders: they must pass through unsplit
    coords = np.array([[0.0], [0.1], [5.0], [5.1], [5.2]])
    tree = build_topdown(embed_coords(coords), k=4, min_folder=1)
    tree.validate()


@pytest.mark.parametrize("field, value", [("eigenvalues", np.nan), ("eigenvectors", np.nan),
                                          ("t", np.nan), ("t", -1.0), ("t", np.inf)])
def test_topdown_refuses_a_nonfinite_embedding(field, value):
    # a NaN coordinate would otherwise become a folder of its own
    coords = np.random.default_rng(4).normal(size=(60, 3))
    vals, vecs, t = np.array([1.0, 0.5, 0.0, -0.2]), np.column_stack([np.ones(60), coords]), 1.0
    if field == "eigenvalues":
        vals[2] = value
    elif field == "eigenvectors":
        vecs[17, 1] = value
    else:
        t = value
    with pytest.raises(ValueError, match="finite"):
        build_topdown(DiffusionEmbedding(vals, vecs, t=t, d=3), k=2, min_folder=1)


def test_parent_child_links():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 2))
    tree = build_topdown(embed_coords(coords), k=2, min_folder=2)
    for level in range(2, tree.n_levels + 1):
        parents = tree.parents(level)
        assert len(parents) == len(tree.folders(level))
        for fid, f in enumerate(tree.folders(level)):
            assert np.isin(f, tree.folders(level - 1)[parents[fid]]).all()


def test_serialization_roundtrip():
    rng = np.random.default_rng(6)
    coords = rng.normal(size=(25, 2))
    tree = build_topdown(embed_coords(coords), k=2, min_folder=3)
    lines = tree.to_lines()
    back = PartitionTree.from_lines(lines)
    back.validate()
    assert back.to_lines() == lines


def _small_tree_lines():
    levels = [[range(6)], [[0, 1, 2], [3, 4, 5]], [[0, 1], [2], [3, 4], [5]], [[p] for p in range(6)]]
    return PartitionTree([[np.array(pts) for pts in level] for level in levels]).to_lines()


def _replace(edits):
    return lambda lines: [new for line in lines for new in edits.get(line, [line])]


@pytest.mark.parametrize("edit, message", [
    (_replace({"2,1,0,3,4,5": ["2,1,0,2,3,4,5"]}), "level 2: folders overlap or miss"),
    (_replace({"2,1,0,3,4,5": ["2,1,0,3,4"]}), "level 2: folders overlap or miss"),
    (_replace({"2,1,0,3,4,5": ["2,1,0,3,4,6"]}), "level 2: folders overlap or miss"),
    (_replace({"2,1,0,3,4,5": ["2,1,0,-3,4,5"]}), "negative"),
    (_replace({"3,1,0,2": ["3,1,0,2,3"], "3,2,1,3,4": ["3,2,1,4"]}),
     "level 3: a folder straddles two folders of level 2"),
    (_replace({"1,0,-1,0,1,2,3,4,5": ["1,0,-1,0,1,2", "1,1,-1,3,4,5"]}), "single root"),
    (lambda lines: [line for line in lines if not line.startswith("4,")], "singletons"),
    (_replace({"2,1,0,3,4,5": ["2,1,0,3,4,5", "2,2,0"]}), "level 2: a folder is empty"),
    (_replace({"2,1,0,3,4,5": ["2,1,0,3,x,5"]}), "line 3: not level,folder_id,parent_id,points"),
    (_replace({"2,1,0,3,4,5": ["2,1"]}), "line 3: not level,folder_id,parent_id,points"),
])
def test_malformed_tree_lines_raise_value_error(edit, message):
    lines = _small_tree_lines()
    assert PartitionTree.from_lines(lines).to_lines() == lines
    with pytest.raises(ValueError, match=message):
        PartitionTree.from_lines(edit(lines))


def test_tree_on_real_embedding():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 5))
    emb = spectral_embed(markov_normalize(gaussian_kernel(X, sigma=1.5)), t=1.0, d=4)
    tree = build_topdown(emb, k=2, min_folder=8)
    tree.validate()


def test_invalid_parameters():
    with pytest.raises(ValueError, match="branching"):
        build_topdown(embed_coords([[0.0], [1.0]]), k=1, min_folder=1)
    with pytest.raises(ValueError, match="min_folder"):
        build_topdown(embed_coords([[0.0], [1.0]]), k=2, min_folder=0)


@pytest.mark.parametrize("d", [1, 7, 8, 9, 17, 130, 300])
def test_batched_distances_sum_over_d_as_numpy_does(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(d, 50))
    centers = rng.normal(size=(d, 3, 4))
    runs = np.array([20, 0, 13, 17])  # points per segment; one segment out of play
    s = np.repeat(np.arange(4), runs)
    got = tree_mod._own_center_d2(x, centers, runs)
    diff = x[:, None, :] - centers[:, :, s]  # (d, k, points)
    want = np.ascontiguousarray(diff**2).sum(axis=0)  # in d's order
    assert got.tobytes() == want.tobytes()


# --- per-folder oracle: principal split, then Lloyd, one folder at a time --


def _oracle_split(x, k):
    """Labels of one folder's points x (m, d), in point-id order."""
    m, d = x.shape
    xc = x - np.cumsum(x, axis=0)[-1] / m  # sums run in point order
    cov = np.cumsum(xc[:, :, None] * xc[:, None, :], axis=0)[-1] / m
    direction = np.linalg.eigh(cov)[1][:, -1]
    if direction[np.argmax(np.abs(direction))] < 0:
        direction = -direction
    proj = np.cumsum(xc * direction, axis=1)[:, -1]  # summed in d order
    rank = np.empty(m, dtype=int)
    rank[np.argsort(proj, kind="stable")] = np.arange(m)
    labels = rank * k // m
    for _ in range(tree_mod.KMEANS_MAX_ITER):
        counts = np.bincount(labels, minlength=k)
        centers = np.column_stack([np.bincount(labels, weights=x[:, a], minlength=k)
                                   for a in range(d)]) / counts[:, None]
        d2 = np.cumsum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)[:, :, -1]
        new = np.argmin(d2, axis=1)
        own = d2[np.arange(m), new]
        counts = np.bincount(new, minlength=k)
        for j in np.flatnonzero(counts == 0):
            # only a cluster with another member gives up its farthest point
            far = int(np.argmax(np.where(counts[new] > 1, own, -np.inf)))
            counts[new[far]] -= 1
            counts[j] += 1
            new[far] = j
        if np.array_equal(new, labels):
            break
        labels = new
    return labels


def _oracle_topdown(coords, k, min_folder):
    """Tree lines of the per-folder build, and the splittable folder sizes of
    each level that splits."""
    n = coords.shape[0]
    levels, parents, split_sizes = [[np.arange(n)]], [[-1]], []
    while True:
        nxt, nxt_parents, sizes = [], [], []
        for fid, pts in enumerate(levels[-1]):
            if len(pts) > min_folder and len(pts) >= k:
                labels = _oracle_split(coords[pts], k)
                sizes.append(len(pts))
                for j in range(k):
                    part = pts[labels == j]
                    if len(part):
                        nxt.append(np.sort(part))
                        nxt_parents.append(fid)
            else:
                nxt.append(pts)
                nxt_parents.append(fid)
        if not sizes:
            break
        levels.append(nxt)
        parents.append(nxt_parents)
        split_sizes.append(sizes)
    if len(levels) == 1 or any(len(pts) > 1 for pts in levels[-1]):
        parents.append([fid for fid, pts in enumerate(levels[-1]) for _ in pts])
        levels.append([np.array([p]) for pts in levels[-1] for p in pts])
    lines = [",".join([str(li + 1), str(fid), str(parents[li][fid])] + [str(p) for p in pts])
             for li, folders in enumerate(levels) for fid, pts in enumerate(folders)]
    return lines, split_sizes


def _diffusion_coords(seed, d, n=140):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    if seed % 2:  # points on a sphere instead of a Gaussian cloud
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    return spectral_embed(markov_normalize(gaussian_kernel(X, sigma=1.2)), t=1.0, d=d)


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("d", [1, 5, 9, 12])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("min_folder", [1, 10])
def test_level_batched_tree_matches_per_folder_oracle(seed, d, k, min_folder, monkeypatch):
    emb = _diffusion_coords(seed, d)
    calls = []
    batched = tree_mod.kmeans_split

    def counted(coords, sizes, *args, **kwargs):
        calls.append([int(s) for s in sizes])
        return batched(coords, sizes, *args, **kwargs)

    monkeypatch.setattr(tree_mod, "kmeans_split", counted)
    got = build_topdown(emb, k=k, min_folder=min_folder)
    lines, split_sizes = _oracle_topdown(emb.coords, k, min_folder)
    assert got.to_lines() == lines
    assert calls == split_sizes  # one call per level that splits, its folders in order


@pytest.mark.parametrize("k", [2, 3, 4])
def test_level_batched_tree_matches_oracle_on_repeated_points(k):
    # few distinct points: slabs of coinciding points leave clusters empty,
    # and the farthest-point repair runs
    rng = np.random.default_rng(k)
    coords = rng.integers(0, 3, size=(90, 2)).astype(float)
    coords[:30] = 0.0
    got = build_topdown(embed_coords(coords), k=k, min_folder=1)
    assert got.to_lines() == _oracle_topdown(coords, k, 1)[0]


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_level_batched_tree_matches_oracle_when_lloyd_is_cut_short(max_iter, monkeypatch):
    # runs stopped before convergence keep labels that are not the
    # nearest centers of their final centers
    monkeypatch.setattr(tree_mod, "KMEANS_MAX_ITER", max_iter)
    emb = _diffusion_coords(5, 5)
    for k in (2, 3):
        got = build_topdown(emb, k=k, min_folder=10)
        assert got.to_lines() == _oracle_topdown(emb.coords, k, 10)[0]


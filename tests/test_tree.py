import numpy as np
import pytest

import cohortmetric.tree as tree_mod
from cohortmetric.diffusion import DiffusionEmbedding, gaussian_kernel, markov_normalize, spectral_embed
from cohortmetric.rng import substream
from cohortmetric.tree import PartitionTree, build_topdown


def embed_coords(coords):
    """Wrap raw coordinates as a unit-eigenvalue embedding (coords pass through)."""
    coords = np.asarray(coords, dtype=float)
    n, d = coords.shape
    vecs = np.column_stack([np.ones(n), coords])
    return DiffusionEmbedding(np.ones(d + 1), vecs, t=1.0, d=d)


def test_topdown_single_point():
    tree = build_topdown(embed_coords([[0.0]]), k=2, min_folder=1, seed=0)
    assert tree.n_levels == 2
    assert len(tree.folders(1)) == 1
    assert len(tree.folders(2)) == 1
    assert tree.folders(2)[0].tolist() == [0]


def test_topdown_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 2)) * 0.1
    b = rng.normal(size=(20, 2)) * 0.1 + np.array([50.0, 0.0])
    coords = np.vstack([a, b])
    tree = build_topdown(embed_coords(coords), k=2, min_folder=5, seed=1)
    level2 = {frozenset(f.tolist()) for f in tree.folders(2)}
    assert level2 == {frozenset(range(20)), frozenset(range(20, 40))}


def test_topdown_partition_invariants_hold():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(67, 3))
    tree = build_topdown(embed_coords(coords), k=3, min_folder=4, seed=2)
    tree.validate()
    assert all(len(f) == 1 for f in tree.folders(tree.n_levels))


def test_topdown_deterministic_under_seed():
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(50, 2))
    t1 = build_topdown(embed_coords(coords), k=2, min_folder=3, seed=7)
    t2 = build_topdown(embed_coords(coords), k=2, min_folder=3, seed=7)
    assert t1.to_lines() == t2.to_lines()


def test_topdown_small_folder_passes_through():
    # k larger than some folders: they must pass through unsplit
    coords = np.array([[0.0], [0.1], [5.0], [5.1], [5.2]])
    tree = build_topdown(embed_coords(coords), k=4, min_folder=1, seed=0)
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
        build_topdown(DiffusionEmbedding(vals, vecs, t=t, d=3), k=2, min_folder=1, seed=0)


def test_parent_child_links():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 2))
    tree = build_topdown(embed_coords(coords), k=2, min_folder=2, seed=6)
    for level in range(2, tree.n_levels + 1):
        parents = tree.parents(level)
        assert len(parents) == len(tree.folders(level))
        for fid, f in enumerate(tree.folders(level)):
            assert np.isin(f, tree.folders(level - 1)[parents[fid]]).all()


def test_serialization_roundtrip():
    rng = np.random.default_rng(6)
    coords = rng.normal(size=(25, 2))
    tree = build_topdown(embed_coords(coords), k=2, min_folder=3, seed=8)
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
    tree = build_topdown(emb, k=2, min_folder=8, seed=9)
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


# --- per-folder oracle: k-means run folder by folder, one call each ---------


def _oracle_seeds(coords, k, restarts, rng):
    n, d = coords.shape
    centers = np.empty((restarts, k, d))
    first = rng.integers(n, size=restarts)
    centers[:, 0] = coords[first]
    d2 = ((coords[None, :, :] - centers[:, 0][:, None, :]) ** 2).sum(axis=2)
    for j in range(1, k):
        total = d2.sum(axis=1)
        u = rng.random(restarts)
        cum = np.cumsum(d2, axis=1)
        pick = (cum < (u * total)[:, None]).sum(axis=1)
        pick = np.minimum(pick, n - 1)
        fallback = total <= 0
        if np.any(fallback):
            pick[fallback] = rng.integers(n, size=int(fallback.sum()))
        centers[:, j] = coords[pick]
        d2 = np.minimum(d2, ((coords[None, :, :] - centers[:, j][:, None, :]) ** 2).sum(axis=2))
    return centers


def _oracle_kmeans(coords, k, rng, restarts=25):
    n, d = coords.shape
    centers = _oracle_seeds(coords, k, restarts, rng)
    labels = np.zeros((restarts, n), dtype=int)
    for it in range(tree_mod.KMEANS_MAX_ITER):
        d2 = ((coords[None, :, None, :] - centers[:, None, :, :]) ** 2).sum(axis=3)
        new_labels = np.argmin(d2, axis=2)
        dist_to_own = np.take_along_axis(d2, new_labels[:, :, None], axis=2)[:, :, 0]
        counts = np.stack([np.bincount(row, minlength=k) for row in new_labels])
        for r, j in zip(*np.nonzero(counts == 0)):
            # only a cluster with another member gives up its farthest point
            movable = counts[r, new_labels[r]] > 1
            far = int(np.argmax(np.where(movable, dist_to_own[r], -np.inf)))
            counts[r, new_labels[r, far]] -= 1
            counts[r, j] += 1
            new_labels[r, far] = j
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        onehot = np.zeros((restarts, n, k))
        np.put_along_axis(onehot, labels[:, :, None], 1.0, axis=2)
        centers = np.einsum("rnk,nd->rkd", onehot, coords) / onehot.sum(axis=1)[:, :, None]
    d2 = ((coords[None, :, None, :] - centers[:, None, :, :]) ** 2).sum(axis=3)
    inertia = np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return labels[int(np.argmin(inertia))]


def _oracle_topdown(coords, k, min_folder, seed):
    """Tree lines of the per-folder build, and the splittable folder sizes of
    each level that splits."""
    n = coords.shape[0]
    rng = substream(seed, "kmeans")
    levels, parents, split_sizes = [[np.arange(n)]], [[-1]], []
    while True:
        nxt, nxt_parents, sizes = [], [], []
        for fid, pts in enumerate(levels[-1]):
            if len(pts) > min_folder and len(pts) >= k:
                labels = _oracle_kmeans(coords[pts], k, rng)
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
    got = build_topdown(emb, k=k, min_folder=min_folder, seed=seed)
    lines, split_sizes = _oracle_topdown(emb.coords, k, min_folder, seed)
    assert got.to_lines() == lines
    assert calls == split_sizes  # one call per level that splits, its folders in order


@pytest.mark.parametrize("k", [2, 3, 4])
def test_level_batched_tree_matches_oracle_on_repeated_points(k):
    # few distinct points: coinciding seeds leave clusters empty, and the
    # farthest-point repair and the uniform seeding fallback both run
    rng = np.random.default_rng(k)
    coords = rng.integers(0, 3, size=(90, 2)).astype(float)
    coords[:30] = 0.0
    got = build_topdown(embed_coords(coords), k=k, min_folder=1, seed=k)
    assert got.to_lines() == _oracle_topdown(coords, k, 1, k)[0]


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_level_batched_tree_matches_oracle_when_lloyd_is_cut_short(max_iter, monkeypatch):
    # restarts stopped before convergence keep labels that are not the
    # nearest centers of their final centers
    monkeypatch.setattr(tree_mod, "KMEANS_MAX_ITER", max_iter)
    emb = _diffusion_coords(5, 5)
    for k in (2, 3):
        got = build_topdown(emb, k=k, min_folder=10, seed=max_iter)
        assert got.to_lines() == _oracle_topdown(emb.coords, k, 10, max_iter)[0]


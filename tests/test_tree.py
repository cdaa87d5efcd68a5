import numpy as np
import pytest

import cohortmetric.tree as tree_mod
from cohortmetric.diffusion import DiffusionEmbedding, gaussian_kernel, markov_normalize, spectral_embed
from cohortmetric.rng import substream
from cohortmetric.tree import PartitionTree, build_bottomup, build_topdown


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


def test_bottomup_wide_radius_gives_two_levels():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(12, 2))
    tree = build_bottomup(embed_coords(coords), eps=1e3)
    assert tree.n_levels == 2
    assert len(tree.folders(1)) == 1
    assert all(len(f) == 1 for f in tree.folders(2))


def test_bottomup_collinear_cover():
    tree = build_bottomup(embed_coords([[0.0], [1.0], [10.0]]), eps=2.0)
    finest_nonsingleton = {frozenset(f.tolist()) for f in tree.folders(tree.n_levels - 1)}
    assert finest_nonsingleton == {frozenset({0, 1}), frozenset({2})}


def test_bottomup_merge_order_matches_bruteforce():
    coords = np.array([[0.0], [0.4], [3.0], [3.3], [9.0]])
    tree = build_bottomup(embed_coords(coords), eps=0.1)  # every point its own ball
    # brute-force agglomeration oracle over weighted centroids
    folders = [[i] for i in range(5)]
    cents = {i: (coords[i, 0], 1) for i in range(5)}
    expected_levels = [tuple(map(tuple, folders))]
    fs = list(range(5))
    store = {i: [i] for i in range(5)}
    while len(fs) > 1:
        best = None
        for a in range(len(fs)):
            for b in range(a + 1, len(fs)):
                d = abs(cents[fs[a]][0] - cents[fs[b]][0])
                if best is None or d < best[0] - 1e-15:
                    best = (d, a, b)
        _, a, b = best
        ia, ib = fs[a], fs[b]
        (ca, wa), (cb, wb) = cents[ia], cents[ib]
        new = max(cents) + 1
        cents[new] = ((ca * wa + cb * wb) / (wa + wb), wa + wb)
        store[new] = sorted(store[ia] + store[ib])
        fs = [f for f in fs if f not in (ia, ib)]
        fs.insert(a, new)
        expected_levels.append(tuple(tuple(store[f]) for f in fs))
    got = []
    for level in range(tree.n_levels, 0, -1):  # fine to coarse; cover is singletons here
        got.append({frozenset(f.tolist()) for f in tree.folders(level)})
    expected = [{frozenset(g) for g in lv} for lv in expected_levels]
    assert got == expected


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
    with pytest.raises(ValueError, match="eps"):
        build_bottomup(embed_coords([[0.0], [1.0]]), eps=0.0)


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


# --- bottom-up oracle: the closest-pair merge loop over weighted centroids ---


def _oracle_bottomup(coords, eps):
    """Tree lines of the greedy eps-cover and the pairwise merge loop: each
    step merges the closest pair of folder centroids (the first pair in list
    order within 1e-15), the merged folder at the earlier position."""
    n = coords.shape[0]
    uncovered = np.ones(n, dtype=bool)
    cover = []
    while uncovered.any():
        center = int(np.argmax(uncovered))
        d = np.linalg.norm(coords - coords[center], axis=1)
        members = np.where(uncovered & (d <= eps))[0]
        cover.append(members)
        uncovered[members] = False
    fine_levels = [cover]
    current = [(pts, coords[pts].mean(axis=0), len(pts)) for pts in cover]
    while len(current) > 1:
        best = None
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                d = float(np.linalg.norm(current[i][1] - current[j][1]))
                if best is None or d < best[0] - 1e-15:
                    best = (d, i, j)
        _, i, j = best
        merged_pts = np.sort(np.concatenate([current[i][0], current[j][0]]))
        wi, wj = current[i][2], current[j][2]
        centroid = (current[i][1] * wi + current[j][1] * wj) / (wi + wj)
        nxt = [current[t] for t in range(len(current)) if t not in (i, j)]
        nxt.insert(i, (merged_pts, centroid, wi + wj))
        current = nxt
        fine_levels.append([c[0] for c in current])
    levels = fine_levels[::-1]
    if any(len(pts) > 1 for pts in levels[-1]):
        levels.append([np.array([p]) for p in range(n)])
    lines = []
    for li, folders in enumerate(levels):
        for fid, pts in enumerate(folders):
            parent = -1 if li == 0 else next(
                pid for pid, up in enumerate(levels[li - 1]) if pts[0] in up)
            lines.append(",".join([str(li + 1), str(fid), str(parent)]
                                  + [str(p) for p in np.sort(pts)]))
    return lines


def _span(coords):
    return float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))


def _bottomup_inputs(kind, d, seed, n=64):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(n, d))
    if kind == "repeated":  # every distinct row two to four times
        rows = rng.normal(size=(n // 3, d))
        return rows[rng.permutation(np.repeat(np.arange(n // 3), rng.integers(2, 5, n // 3)))]
    return _diffusion_coords(seed, d, n=n).coords


@pytest.mark.parametrize("kind", ["gaussian", "diffusion", "repeated"])
@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("frac", [0.0, 0.02, 0.05, 0.10])
def test_bottomup_tree_matches_merge_loop_oracle(kind, d, frac, monkeypatch):
    coords = _bottomup_inputs(kind, d, seed=100 * d + int(1000 * frac))
    # frac 0: a radius below every nonzero gap, so each distinct row is its own ball
    eps = frac * _span(coords) if frac else 1e-9
    calls = []
    scipy_linkage = tree_mod.linkage

    def counted(y, *args, **kwargs):
        calls.append((y.shape, kwargs.get("method")))
        return scipy_linkage(y, *args, **kwargs)

    monkeypatch.setattr(tree_mod, "linkage", counted)
    got = build_bottomup(embed_coords(coords), eps)
    assert got.to_lines() == _oracle_bottomup(coords, eps)
    assert calls == [((coords.shape[0], d), "centroid")]  # one call, one row per point


def test_bottomup_coinciding_centroids_match_oracle():
    # the first two balls (eps = 1) have bitwise-equal centroids, so linkage
    # merges copies of both at distance 0 in an order of its own
    a = [(0.0, 0.0)] + [(0.9375, 0.125)] * 10 + [(1.0, 0.0)] * 5
    b = [(1.5, 0.0)] + [(0.8125, 0.625)] * 4 + [(0.8125, -0.625)] * 3
    c = [(6.0, 0.0), (9.0, 0.5), (-5.0, 1.0)]
    coords = np.array(a + b + c)
    got = build_bottomup(embed_coords(coords), eps=1.0)
    assert [len(f) for f in got.folders(got.n_levels - 1)] == [16, 8, 1, 1, 1]
    assert got.to_lines() == _oracle_bottomup(coords, 1.0)

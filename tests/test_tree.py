import numpy as np
import pytest

from cohortmetric.diffusion import DiffusionEmbedding, gaussian_kernel, markov_normalize, spectral_embed
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
    assert tree.folders(2)[0].points.tolist() == [0]


def test_topdown_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 2)) * 0.1
    b = rng.normal(size=(20, 2)) * 0.1 + np.array([50.0, 0.0])
    coords = np.vstack([a, b])
    tree = build_topdown(embed_coords(coords), k=2, min_folder=5, seed=1)
    level2 = {frozenset(f.points.tolist()) for f in tree.folders(2)}
    assert level2 == {frozenset(range(20)), frozenset(range(20, 40))}


def test_topdown_partition_invariants_hold():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(67, 3))
    tree = build_topdown(embed_coords(coords), k=3, min_folder=4, seed=2)
    tree.validate()
    assert all(len(f.points) == 1 for f in tree.folders(tree.n_levels))


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


def test_bottomup_wide_radius_gives_two_levels():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(12, 2))
    tree = build_bottomup(embed_coords(coords), eps=1e3)
    assert tree.n_levels == 2
    assert len(tree.folders(1)) == 1
    assert all(len(f.points) == 1 for f in tree.folders(2))


def test_bottomup_collinear_cover():
    tree = build_bottomup(embed_coords([[0.0], [1.0], [10.0]]), eps=2.0)
    finest_nonsingleton = {frozenset(f.points.tolist()) for f in tree.folders(tree.n_levels - 1)}
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
        got.append({frozenset(f.points.tolist()) for f in tree.folders(level)})
    expected = [{frozenset(g) for g in lv} for lv in expected_levels]
    assert got == expected


def test_folder_of_membership():
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(40, 2))
    tree = build_topdown(embed_coords(coords), k=2, min_folder=3, seed=5)
    assert tree.folder_of(1, 17) == 0
    top = tree.folders(tree.n_levels)
    assert top[tree.folder_of(tree.n_levels, 17)].points.tolist() == [17]
    for level in range(1, tree.n_levels + 1):
        for point in (0, 13, 39):
            fid = tree.folder_of(level, point)
            # linear-scan oracle
            scan = [i for i, f in enumerate(tree.folders(level)) if point in f.points]
            assert scan == [fid]


def test_parent_child_links():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 2))
    tree = build_topdown(embed_coords(coords), k=2, min_folder=2, seed=6)
    for level in range(2, tree.n_levels + 1):
        for fid, f in enumerate(tree.folders(level)):
            parent = tree.folders(level - 1)[f.parent]
            assert fid in parent.children


def test_serialization_roundtrip():
    rng = np.random.default_rng(6)
    coords = rng.normal(size=(25, 2))
    tree = build_topdown(embed_coords(coords), k=2, min_folder=3, seed=8)
    lines = tree.to_lines()
    back = PartitionTree.from_lines(lines)
    back.validate()
    assert back.to_lines() == lines


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

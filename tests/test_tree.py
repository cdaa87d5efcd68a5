from dataclasses import astuple

import numpy as np
import pytest

import cohortmetric.metric as metric_mod
import cohortmetric.tree as tree_mod
from cohortmetric.config import RunConfig
from cohortmetric.diffusion import DiffusionEmbedding, gaussian_kernel, markov_normalize, spectral_embed
from cohortmetric.metric import CohortFunctional, compute_weight_field, fit_weighted_metric
from cohortmetric.simulate import TrialSpec, generate
from cohortmetric.survival import LocalAlphaFunctional
from cohortmetric.tree import PartitionTree, build_topdown


def embed_coords(coords):
    """Wrap raw coordinates as a unit-eigenvalue embedding (coords pass through)."""
    coords = np.asarray(coords, dtype=float)
    n, d = coords.shape
    vecs = np.column_stack([np.ones(n), coords])
    return DiffusionEmbedding(np.ones(d + 1), vecs, d=d)


def test_topdown_single_point():
    tree = build_topdown(embed_coords([[0.0]]), min_folder=1)
    assert tree.n_levels == 1
    assert tree.to_lines() == ["1,0,-1,0"]


def test_topdown_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 2)) * 0.1
    b = rng.normal(size=(20, 2)) * 0.1 + np.array([50.0, 0.0])
    coords = np.vstack([a, b])
    tree = build_topdown(embed_coords(coords), min_folder=5)
    level2 = {frozenset(f.tolist()) for f in tree.folders(2)}
    assert level2 == {frozenset(range(20)), frozenset(range(20, 40))}


def test_topdown_partition_invariants_hold(monkeypatch):
    monkeypatch.setattr(tree_mod, "BRANCHING", 3)
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(67, 3))
    tree = build_topdown(embed_coords(coords), min_folder=4)
    tree.validate()
    # the leaves are the folders that cannot split: at most min_folder points
    assert all(len(f) <= 4 for f in tree.folders(tree.n_levels))
    assert any(len(f) > 4 for f in tree.folders(tree.n_levels - 1))


def test_topdown_is_deterministic():
    rng = np.random.default_rng(2)
    coords = rng.normal(size=(50, 2))
    t1 = build_topdown(embed_coords(coords), min_folder=3)
    t2 = build_topdown(embed_coords(coords.copy()), min_folder=3)
    assert t1.to_lines() == t2.to_lines()


@pytest.mark.parametrize("k", [2, 3])
def test_the_tree_does_not_follow_the_signs_eigh_returns(k, monkeypatch):
    monkeypatch.setattr(tree_mod, "BRANCHING", k)
    coords = _diffusion_coords(11, 5).coords
    want = build_topdown(embed_coords(coords), min_folder=4).to_lines()
    eigh = np.linalg.eigh

    def flipped(a, UPLO="L"):  # every other matrix's eigenvectors negated
        vals, vecs = eigh(a, UPLO=UPLO)
        vecs[::2] *= -1
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    assert build_topdown(embed_coords(coords), min_folder=4).to_lines() == want


def test_a_folder_of_tied_projections_splits_by_point_id():
    # coinciding points all project to 0
    tree = build_topdown(embed_coords(np.full((4, 2), 3.0)), min_folder=1)
    assert tree.to_lines() == ["1,0,-1,0,1,2,3", "2,0,0,0,1", "2,1,0,2,3",
                               "3,0,0,0", "3,1,0,1", "3,2,1,2", "3,3,1,3"]


def test_fit_draws_nothing_from_its_seed():
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(150, 4))
    F = CohortFunctional.from_labels(np.sin(4 * X[:, 0]) + X[:, 1], 8)
    a, b = (fit_weighted_metric(X, F, RunConfig(dim=3, seed=seed, max_iters=2)) for seed in (2, 9))
    assert a.tree.to_lines() == b.tree.to_lines()
    assert a.weights.point_weights.tobytes() == b.weights.point_weights.tobytes()
    assert len(a.history) == len(b.history) == 2
    for h, g in zip(a.history, b.history):  # NaN first: assert_equal takes it as equal
        np.testing.assert_equal(astuple(h), astuple(g))


def _fit_trees(X, F, monkeypatch):
    """The trees of a two-step fit, each with the embedding it was built from."""
    built = []

    def recorded(emb, min_folder):
        built.append((emb, tree_mod.build_topdown(emb, min_folder)))
        return built[-1][1]

    monkeypatch.setattr(metric_mod, "build_topdown", recorded)
    fit_weighted_metric(X, F, RunConfig(dim=4, max_iters=2))
    return built


def _frozen_fit_tree(emb):
    """The fit's tree before it stopped at 2c points: folders of more than
    max(10, ceil(n/256)) points split, then a level of singletons."""
    n = emb.coords.shape[0]
    levels = build_topdown(emb, max(10, int(np.ceil(n / 256)))).levels
    return PartitionTree(levels + [[np.array([p]) for p in np.concatenate(levels[-1])]])


def _trial_functional(kind, n, c):
    ds = generate(TrialSpec(kind, n=n, seed=31, dim=9, horizon=None, outcome_target=0.5))
    return ds.data.values, LocalAlphaFunctional(ds.records, "moments", c)


def _labels_functional(n, c):
    X = np.random.default_rng(13).uniform(size=(n, 4))
    return X, CohortFunctional.from_labels(np.sin(4 * X[:, 0]) + X[:, 1], c)


@pytest.mark.parametrize("X, F", [
    _trial_functional("random", 800, 25),
    _trial_functional("sphere", 800, 25),
    _labels_functional(150, 8),
], ids=["random-c25", "sphere-c25", "labels-c8-n150"])
def test_fit_tree_weighs_as_the_frozen_tree_bit_for_bit(X, F, monkeypatch):
    # max(10, ceil(n/256)) < 2c here: both rules split every folder of at least
    # 2c points alike, and the weight field reads no smaller folder
    for emb, tree in _fit_trees(X, F, monkeypatch):
        frozen = _frozen_fit_tree(emb)
        assert tree.n_levels < frozen.n_levels
        got, want = (compute_weight_field(X, F, t) for t in (tree, frozen))
        assert got.point_weights.tobytes() == want.point_weights.tobytes()
        assert got.lam == want.lam


@pytest.mark.parametrize("n, c", [(150, 8), (300, 3), (400, 25)])
def test_fit_tree_splits_every_folder_of_at_least_2c_points_and_no_other(n, c, monkeypatch):
    X, F = _labels_functional(n, c)
    for _, tree in _fit_trees(X, F, monkeypatch):
        for level in range(1, tree.n_levels):
            below = tree.folders(level + 1)
            parents = tree.parents(level + 1)
            for fid, pts in enumerate(tree.folders(level)):
                children = [child for child, up in zip(below, parents) if up == fid]
                # a folder of 2c points or more is never carried through
                assert (len(children) > 1) == (len(pts) >= 2 * c)
        assert all(len(pts) < 2 * c for pts in tree.folders(tree.n_levels))


def test_topdown_small_folder_passes_through(monkeypatch):
    # a branching larger than some folders: they must pass through unsplit
    monkeypatch.setattr(tree_mod, "BRANCHING", 4)
    coords = np.array([[0.0], [0.1], [5.0], [5.1], [5.2]])
    tree = build_topdown(embed_coords(coords), min_folder=1)
    tree.validate()


@pytest.mark.parametrize("field, value", [("eigenvalues", np.nan), ("eigenvectors", np.nan)])
def test_topdown_refuses_a_nonfinite_embedding(field, value):
    # a NaN coordinate would otherwise become a folder of its own
    coords = np.random.default_rng(4).normal(size=(60, 3))
    vals, vecs = np.array([1.0, 0.5, 0.0, -0.2]), np.column_stack([np.ones(60), coords])
    if field == "eigenvalues":
        vals[2] = value
    else:
        vecs[17, 1] = value
    with pytest.raises(ValueError, match="finite"):
        build_topdown(DiffusionEmbedding(vals, vecs, d=3), min_folder=1)


def test_parent_child_links():
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 2))
    tree = build_topdown(embed_coords(coords), min_folder=2)
    for level in range(2, tree.n_levels + 1):
        parents = tree.parents(level)
        assert len(parents) == len(tree.folders(level))
        for fid, f in enumerate(tree.folders(level)):
            assert np.isin(f, tree.folders(level - 1)[parents[fid]]).all()


def test_serialization_roundtrip():
    rng = np.random.default_rng(6)
    coords = rng.normal(size=(25, 2))
    tree = build_topdown(embed_coords(coords), min_folder=3)
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
    emb = spectral_embed(markov_normalize(gaussian_kernel(X, sigma=1.5)), d=4)
    tree = build_topdown(emb, min_folder=8)
    tree.validate()


def test_invalid_parameters():
    with pytest.raises(ValueError, match="min_folder"):
        build_topdown(embed_coords([[0.0], [1.0]]), min_folder=0)


@pytest.mark.parametrize("min_folder", [np.nan, np.inf, True, 2.5])
def test_a_min_folder_that_is_not_a_count_is_refused(min_folder):
    # at a NaN or infinite min_folder no folder would split: a tree of the root alone
    with pytest.raises(ValueError, match="min_folder must be an integer >= 1"):
        build_topdown(embed_coords(np.arange(40.0)[:, None]), min_folder=min_folder)


# --- per-folder oracle: the principal split, one folder at a time ----------


def _oracle_split(x, k):
    """Slabs of one folder's points x (m, d), in point-id order."""
    m = x.shape[0]
    xc = x - np.cumsum(x, axis=0)[-1] / m  # sums run in point order
    cov = np.cumsum(xc[:, :, None] * xc[:, None, :], axis=0)[-1] / m
    direction = np.linalg.eigh(cov)[1][:, -1]
    if direction[np.argmax(np.abs(direction))] < 0:
        direction = -direction
    proj = np.cumsum(xc * direction, axis=1)[:, -1]  # summed in d order
    rank = np.empty(m, dtype=int)
    rank[np.argsort(proj, kind="stable")] = np.arange(m)  # ties by point id
    return rank * k // m


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
    lines = [",".join([str(li + 1), str(fid), str(parents[li][fid])] + [str(p) for p in pts])
             for li, folders in enumerate(levels) for fid, pts in enumerate(folders)]
    return lines, split_sizes


def _diffusion_coords(seed, d, n=140):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    if seed % 2:  # points on a sphere instead of a Gaussian cloud
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    return spectral_embed(markov_normalize(gaussian_kernel(X, sigma=1.2)), d=d)


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("d", [1, 5, 9, 12])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("min_folder", [1, 10])
def test_level_batched_tree_matches_per_folder_oracle(seed, d, k, min_folder, monkeypatch):
    emb = _diffusion_coords(seed, d)
    calls = []
    batched = tree_mod.kmeans_split

    def counted(coords, sizes):
        calls.append([int(s) for s in sizes])
        return batched(coords, sizes)

    monkeypatch.setattr(tree_mod, "kmeans_split", counted)
    monkeypatch.setattr(tree_mod, "BRANCHING", k)
    got = build_topdown(emb, min_folder=min_folder)
    lines, split_sizes = _oracle_topdown(emb.coords, k, min_folder)
    assert got.to_lines() == lines
    assert calls == split_sizes  # one call per level that splits, its folders in order


@pytest.mark.parametrize("k", [2, 3, 4])
def test_level_batched_tree_matches_oracle_on_repeated_points(k, monkeypatch):
    # few distinct points: many tied projections, split by point id
    monkeypatch.setattr(tree_mod, "BRANCHING", k)
    rng = np.random.default_rng(k)
    coords = rng.integers(0, 3, size=(90, 2)).astype(float)
    coords[:30] = 0.0
    got = build_topdown(embed_coords(coords), min_folder=1)
    assert got.to_lines() == _oracle_topdown(coords, k, 1)[0]

"""Hierarchical partition trees over embedded points.

A tree is a list of levels; level 1 is the whole point set, the last level is
all singletons, and every level partitions the points exactly. Folders that
reach the stopping size are carried through unchanged until the singleton
level is appended. A tree is exactly what both builders make: coarse-to-fine
lists with one sorted point array per folder. A folder's parent is the
folder of the previous level that contains it, found when it is needed.

The top-down tree is level-synchronous: one `kmeans_split` call splits every
splittable folder of a level, its Lloyd iterations running over all of the
level's points with a segment id per (restart, folder). The result is that
of running k-means on each folder alone, in folder order, bit for bit.

The bottom-up tree is a greedy eps-cover followed by size-weighted centroid
agglomeration, taken from one `scipy.cluster.hierarchy.linkage` call
(Müllner 2011). Where two candidate merges tie exactly, scipy's order
decides which is taken first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import linkage

from .diffusion import DiffusionEmbedding, _pairwise_sum
from .rng import substream

KMEANS_RESTARTS = 25
KMEANS_MAX_ITER = 100


@dataclass
class PartitionTree:
    """Coarse-to-fine levels, each a list of folders, each folder a sorted
    array of point indices. The constructor validates the levels."""

    levels: list[list[np.ndarray]]

    def __post_init__(self):
        self.validate()

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_points(self) -> int:
        return len(self.levels[0][0])

    def folders(self, level: int) -> list[np.ndarray]:
        """Folders at 1-based level (level 1 = root partition)."""
        return self.levels[level - 1]

    def parents(self, level: int) -> np.ndarray:
        """Index in the level above of the folder that contains each folder
        of 1-based `level`; -1 at the root."""
        if level == 1:
            return np.array([-1])
        owner, _ = _owner(self.folders(level - 1), self.n_points, level - 1)
        return owner[[pts[0] for pts in self.folders(level)]]

    def validate(self):
        """Raise ValueError unless the levels form a partition tree: a single
        root folder, every level a partition of the points into nonempty
        folders, each folder inside one folder of the level above, and a
        last level of singletons. O(n) per level."""
        if not self.levels or len(self.levels[0]) != 1:
            raise ValueError("level 1 must be the single root folder")
        n = self.n_points
        prev = None
        for level, folders in enumerate(self.levels, start=1):
            owner, first = _owner(folders, n, level)
            # a point's folder above must be that of its folder's first point
            if prev is not None and np.any(prev[first[owner]] != prev):
                raise ValueError(f"level {level}: a folder straddles two folders "
                                 f"of level {level - 1}")
            prev = owner
        if len(self.levels[-1]) != n:
            raise ValueError("last level must be singletons")

    def to_lines(self) -> list[str]:
        """One line per folder: level,folder_id,parent_id,point_ids..."""
        lines = []
        for level, folders in enumerate(self.levels, start=1):
            for fid, (pts, up) in enumerate(zip(folders, self.parents(level))):
                lines.append(",".join([str(level), str(fid), str(up)] + [str(p) for p in pts]))
        return lines

    @classmethod
    def from_lines(cls, lines) -> "PartitionTree":
        """The tree of `to_lines` output; parents are found by containment."""
        by_level: dict[int, list[tuple[int, np.ndarray]]] = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            pts = np.sort(np.array([int(p) for p in parts[3:]], dtype=int))
            by_level.setdefault(int(parts[0]), []).append((int(parts[1]), pts))
        return cls([[pts for _, pts in sorted(by_level[level], key=lambda f: f[0])]
                    for level in sorted(by_level)])


def _owner(folders: list[np.ndarray], n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The folder index of each of the n points, and each folder's first
    point; ValueError unless the folders partition 0..n-1 into nonempty sets."""
    sizes = np.array([len(pts) for pts in folders])
    if not sizes.all():
        raise ValueError(f"level {level}: a folder is empty")
    points = np.concatenate(folders)
    counts = np.bincount(points, minlength=n)  # ValueError on a negative id
    if len(counts) != n or np.any(counts != 1):
        raise ValueError(f"level {level}: folders overlap or miss a point of 0..{n - 1}")
    owner = np.empty(n, dtype=int)
    owner[points] = np.repeat(np.arange(len(folders)), sizes)
    return owner, points[np.cumsum(sizes) - sizes]


def _kmeans_plus_plus_init_batch(coords, k, restarts, rng):
    """k-means++ seeding for all restarts at once; centers (R, k, d)."""
    n, d = coords.shape
    xt = coords.T.copy()  # (d, n): one contiguous row per coordinate
    centers = np.empty((restarts, k, d))

    def d2_to(c):  # (R, n) squared distances to the centers c (R, d)
        def term(i):
            t = np.subtract(xt[i][None, :], c[:, i][:, None])
            return np.square(t, out=t)
        return _pairwise_sum(term, 0, d)

    first = rng.integers(n, size=restarts)
    centers[:, 0] = coords[first]
    d2 = d2_to(centers[:, 0])
    for j in range(1, k):
        total = d2.sum(axis=1)
        u = rng.random(restarts)
        cum = np.cumsum(d2, axis=1)
        # inverse-CDF sample per restart; degenerate rows fall back to uniform
        pick = (cum < (u * total)[:, None]).sum(axis=1)
        pick = np.minimum(pick, n - 1)
        fallback = total <= 0
        if np.any(fallback):
            pick[fallback] = rng.integers(n, size=int(fallback.sum()))
        centers[:, j] = coords[pick]
        d2 = np.minimum(d2, d2_to(centers[:, j]))
    return centers


def kmeans_split(coords: np.ndarray, sizes: list[int], k: int, rng: np.random.Generator,
                 restarts: int = KMEANS_RESTARTS) -> np.ndarray:
    """Seeded k-means labels for every folder of one tree level at once.

    `coords` holds the folders' points folder after folder, `sizes` the
    number of points in each. Each folder is seeded by k-means++ in folder
    order. Then each Lloyd iteration is one pass over the (restart, point)
    pairs still in play, with the (restart, folder) segment of each pair:
    distances are (k, pairs), summed over d in numpy's reduction order, and
    counts and center sums are bincounts keyed by restart, folder and
    cluster. An empty cluster takes the farthest point of its restart and
    folder among the clusters with at least two members, so that no
    cluster is left empty (and no center is 0/0). A restart whose labels
    repeat has reached a fixed point (the same labels give the same
    centers), so it leaves play, and a folder leaves once none of its
    restarts change. Per folder, the restart of least inertia wins, ties to
    the earliest. The labels are those of running k-means on each folder
    alone, bit for bit.
    """
    n, d = coords.shape
    sizes = np.asarray(sizes, dtype=int)
    n_folders = len(sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    seg = np.repeat(np.arange(n_folders), sizes)
    x_all = np.tile(coords.T, restarts)  # (d, restarts * n): one column per (restart, point)
    n_segs = restarts * n_folders  # segment id: restart * n_folders + folder
    centers = np.empty((d, k, n_segs))
    for f in range(n_folders):
        seeds = _kmeans_plus_plus_init_batch(coords[starts[f]:starts[f + 1]], k, restarts, rng)
        centers[:, :, f::n_folders] = seeds.transpose(2, 1, 0)
    seg_of = (np.arange(restarts)[:, None] * n_folders + seg).ravel()  # per (restart, point)
    labels = np.zeros(restarts * n, dtype=int)
    live = np.ones(n_segs, dtype=bool)
    for it in range(KMEANS_MAX_ITER):
        pairs = np.flatnonzero(live[seg_of])
        if not len(pairs):
            break
        s = seg_of[pairs]  # nondecreasing: each segment is one contiguous run
        x = np.take(x_all, pairs, axis=1)
        d2 = _own_center_d2(x, centers, s)
        new = np.argmin(d2, axis=0)
        own = d2.min(axis=0)  # the distance argmin picks, NaN included
        key = s * k + new
        counts = np.bincount(key, minlength=n_segs * k).reshape(n_segs, k)
        for g, j in zip(*np.nonzero((counts == 0) & live[:, None])):
            lo, hi = np.searchsorted(s, [g, g + 1])
            # the farthest point whose cluster keeps another member
            movable = counts[g, new[lo:hi]] > 1
            far = lo + int(np.argmax(np.where(movable, own[lo:hi], -np.inf)))
            counts[g, new[far]] -= 1
            counts[g, j] += 1
            new[far] = j
            key[far] = g * k + j
        if it > 0:
            live &= np.bincount(s[new != labels[pairs]], minlength=n_segs) > 0
        labels[pairs] = new
        upd = np.flatnonzero(live)
        cnts = np.bincount(key, minlength=n_segs * k).reshape(n_segs, k)[upd].T
        for j in range(d):
            sums = np.bincount(key, weights=x[j], minlength=n_segs * k).reshape(n_segs, k)
            centers[j][:, upd] = sums[upd].T / cnts
    d2 = _own_center_d2(x_all, centers, seg_of)
    own = np.take_along_axis(d2, labels[None], axis=0).reshape(restarts, n)
    labels = labels.reshape(restarts, n)
    out = np.empty(n, dtype=int)
    for f in range(n_folders):
        lo, hi = starts[f], starts[f + 1]
        best = int(np.argmin(own[:, lo:hi].sum(axis=1)))  # argmin keeps the earliest on ties
        out[lo:hi] = labels[best, lo:hi]
    return out


def _own_center_d2(x: np.ndarray, centers: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squared distances (k, P) from each of P points, x (d, P), to the k
    centers of its segment s; centers are (d, k, segments)."""
    def term(j):
        t = np.take(centers[j], s, axis=1)
        np.subtract(x[j], t, out=t)
        return np.square(t, out=t)
    return _pairwise_sum(term, 0, x.shape[0])


def build_topdown(emb: DiffusionEmbedding, k: int = 2, min_folder: int = 1,
                  seed: int = 0) -> PartitionTree:
    """Top-down k-means on the embedded coordinates, one level at a time.

    Every folder of a level larger than min_folder (and at least k) is split
    by one `kmeans_split` call for the whole level; smaller folders pass
    through unsplit. Once nothing splits, a singleton level is appended,
    folder by folder.
    """
    if k < 2:
        raise ValueError(f"branching factor must be >= 2, got {k}")
    if min_folder < 1:
        raise ValueError(f"min_folder must be >= 1, got {min_folder}")
    coords = emb.coords
    n = coords.shape[0]
    rng = substream(seed, "kmeans")
    levels: list[list[np.ndarray]] = [[np.arange(n)]]
    while True:
        current = levels[-1]
        split = [len(pts) > min_folder and len(pts) >= k for pts in current]
        if not any(split):
            break
        members = [pts for pts, s in zip(current, split) if s]
        sizes = [len(pts) for pts in members]
        labels = kmeans_split(coords[np.concatenate(members)], sizes, k, rng)
        per_folder = iter(np.split(labels, np.cumsum(sizes)[:-1]))
        nxt: list[np.ndarray] = []
        for pts, s in zip(current, split):
            if s:
                lab = next(per_folder)
                # points are sorted within a folder, and a mask keeps that order
                parts = [pts[lab == j] for j in range(k)]
                nxt.extend(part for part in parts if len(part))
            else:
                nxt.append(pts)
        levels.append(nxt)
    if len(levels) == 1 or any(len(pts) > 1 for pts in levels[-1]):
        levels.append([np.array([p]) for pts in levels[-1] for p in pts])
    return PartitionTree(levels)


def build_bottomup(emb: DiffusionEmbedding, eps: float) -> PartitionTree:
    """Greedy eps-cover of the embedded points, then size-weighted centroid
    agglomeration of the cover folders up to the root.

    Each step merges the two folders whose centroids (the means of their
    points) are closest; the merged folder takes the list position of the
    earlier of its two parts. The merges come from one
    `linkage(..., method="centroid")` call on one observation per point,
    placed at its cover folder's centroid, so that linkage's cluster sizes
    are point counts. A row whose two parts already lie in one folder adds
    no level: these are the n - L rows that join copies of one cover folder
    at distance 0, and, where two folders' centroids coincide, rows that
    join copies of the folder that merged them. Where two candidate merges
    tie exactly, scipy's order decides which is taken first. The singleton
    level, if the cover is not already singletons, is in point order.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    coords = emb.coords
    n = coords.shape[0]
    uncovered = np.ones(n, dtype=bool)
    cover: list[np.ndarray] = []
    while uncovered.any():
        center = int(np.argmax(uncovered))  # first uncovered index
        d = np.linalg.norm(coords - coords[center], axis=1)
        members = np.where(uncovered & (d <= eps))[0]
        cover.append(members)
        uncovered[members] = False

    # fine-to-coarse: replay linkage's merges over the folder list
    fine_levels: list[list[np.ndarray]] = [cover]
    if len(cover) > 1:
        sizes = [len(pts) for pts in cover]
        centroids = np.array([coords[pts].mean(axis=0) for pts in cover])
        merges = linkage(np.repeat(centroids, sizes, axis=0), method="centroid")
        points = list(cover)  # by folder id; each merge adds a folder
        into = list(range(len(cover)))  # the folder each folder was merged into, or itself
        folder = np.repeat(np.arange(len(cover)), sizes).tolist()  # one per linkage cluster
        order = list(range(len(cover)))  # folder ids in list order

        def now(f):  # the folder that f is part of
            while into[f] != f:
                f = into[f]
            return f

        for a, b in merges[:, :2].astype(int):
            fa, fb = now(folder[a]), now(folder[b])
            if fa != fb:
                i, j = sorted((order.index(fa), order.index(fb)))
                new = len(points)
                points.append(np.sort(np.concatenate([points[fa], points[fb]])))
                into.append(new)
                into[fa] = into[fb] = new
                order[i] = new
                del order[j]
                fine_levels.append([points[f] for f in order])
            folder.append(now(fa))

    levels = fine_levels[::-1]
    if any(len(pts) > 1 for pts in levels[-1]):
        levels.append([np.array([p]) for p in range(n)])
    return PartitionTree(levels)


"""Hierarchical partition trees over embedded points.

A tree is a list of levels; level 1 is the whole point set, the last level is
all singletons, and every level partitions the points exactly. Folders that
reach the stopping size are carried through unchanged until the singleton
level is appended.

The top-down tree is level-synchronous: one `kmeans_split` call splits every
splittable folder of a level, its Lloyd iterations running over all of the
level's points with a segment id per (restart, folder). The result is that
of running k-means on each folder alone, in folder order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import DiffusionEmbedding, _pairwise_sum
from .rng import substream

KMEANS_RESTARTS = 25
KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class Folder:
    points: np.ndarray  # sorted point indices
    parent: int  # folder index in the previous (coarser) level, -1 at the root
    children: tuple[int, ...] = ()  # folder indices in the next (finer) level


@dataclass
class PartitionTree:
    levels: list[list[Folder]]
    _lookup: list[np.ndarray] = field(default_factory=list, repr=False)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_points(self) -> int:
        return sum(len(f.points) for f in self.levels[0])

    def folders(self, level: int) -> list[Folder]:
        """Folders at 1-based level (level 1 = root partition)."""
        return self.levels[level - 1]

    def folder_of(self, level: int, point: int) -> int:
        """Index of the unique folder containing `point` at 1-based `level`."""
        if not self._lookup:
            self._build_lookup()
        fid = int(self._lookup[level - 1][point])
        if fid < 0:
            raise KeyError(f"point {point} missing from level {level}")
        return fid

    def _build_lookup(self):
        n = self.n_points
        for folders in self.levels:
            arr = np.full(n, -1, dtype=int)
            for fid, f in enumerate(folders):
                arr[f.points] = fid
            self._lookup.append(arr)

    def validate(self):
        """Check the partition invariants at every level; raise on violation."""
        n = self.n_points
        universe = np.arange(n)
        if len(self.levels[0]) != 1:
            raise AssertionError("level 1 must be the single root folder")
        for li, folders in enumerate(self.levels):
            seen = np.concatenate([f.points for f in folders])
            if len(np.unique(seen)) != len(seen):
                raise AssertionError(f"level {li + 1}: folders overlap")
            if not np.array_equal(np.sort(seen), universe):
                raise AssertionError(f"level {li + 1}: folders do not cover all points")
        for f in self.levels[-1]:
            if len(f.points) != 1:
                raise AssertionError("last level must be singletons")
        for li in range(len(self.levels) - 1):
            nxt = self.levels[li + 1]
            for fid, f in enumerate(self.levels[li]):
                child_pts = np.sort(np.concatenate([nxt[c].points for c in f.children]))
                if not np.array_equal(child_pts, f.points):
                    raise AssertionError(f"level {li + 1} folder {fid}: children do not tile it")
                for c in f.children:
                    if nxt[c].parent != fid:
                        raise AssertionError("parent/child links inconsistent")

    def to_lines(self) -> list[str]:
        """One line per folder: level,folder_id,parent_id,point_ids..."""
        lines = []
        for li, folders in enumerate(self.levels):
            for fid, f in enumerate(folders):
                head = [str(li + 1), str(fid), str(f.parent)]
                lines.append(",".join(head + [str(p) for p in f.points]))
        return lines

    @classmethod
    def from_lines(cls, lines) -> "PartitionTree":
        by_level: dict[int, list[tuple[int, int, np.ndarray]]] = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            level, fid, parent = int(parts[0]), int(parts[1]), int(parts[2])
            pts = np.array([int(p) for p in parts[3:]], dtype=int)
            by_level.setdefault(level, []).append((fid, parent, pts))
        levels: list[list[Folder]] = []
        for level in sorted(by_level):
            folders = sorted(by_level[level])
            levels.append([Folder(np.sort(pts), parent) for _, parent, pts in folders])
        return cls._link_children(levels)

    @staticmethod
    def _link_children(levels: list[list[Folder]]) -> "PartitionTree":
        linked: list[list[Folder]] = []
        for li, folders in enumerate(levels):
            if li == len(levels) - 1:
                linked.append(list(folders))
                continue
            kids: dict[int, list[int]] = {fid: [] for fid in range(len(folders))}
            for cid, child in enumerate(levels[li + 1]):
                kids[child.parent].append(cid)
            linked.append(
                [
                    Folder(f.points, f.parent, tuple(kids[fid]))
                    for fid, f in enumerate(folders)
                ]
            )
        return PartitionTree(linked)


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
    through unsplit. Once nothing splits, a singleton level is appended.
    """
    if k < 2:
        raise ValueError(f"branching factor must be >= 2, got {k}")
    if min_folder < 1:
        raise ValueError(f"min_folder must be >= 1, got {min_folder}")
    coords = emb.coords
    n = coords.shape[0]
    rng = substream(seed, "kmeans")
    levels: list[list[np.ndarray]] = [[np.arange(n)]]
    parents: list[list[int]] = [[-1]]
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
        nxt_parents: list[int] = []
        for fid, pts in enumerate(current):
            if split[fid]:
                lab = next(per_folder)
                # points are sorted within a folder, and a mask keeps that order
                parts = [pts[lab == j] for j in range(k)]
            else:
                parts = [pts]
            for part in parts:
                if len(part):
                    nxt.append(part)
                    nxt_parents.append(fid)
        levels.append(nxt)
        parents.append(nxt_parents)
    if len(levels) == 1 or any(len(pts) > 1 for pts in levels[-1]):
        single, single_parents = [], []
        for fid, pts in enumerate(levels[-1]):
            for p in pts:
                single.append(np.array([p]))
                single_parents.append(fid)
        levels.append(single)
        parents.append(single_parents)
    raw = [
        [Folder(pts, parents[li][fid]) for fid, pts in enumerate(folders)]
        for li, folders in enumerate(levels)
    ]
    tree = PartitionTree._link_children(raw)
    tree.validate()
    return tree


def build_bottomup(emb: DiffusionEmbedding, eps: float) -> PartitionTree:
    """Greedy eps-cover of the embedded points, then agglomerative merging of
    the two closest folders (size-weighted centroid distance) up to the root."""
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

    # fine-to-coarse: each step merges the closest pair of folders
    fine_levels: list[list[np.ndarray]] = [cover]
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

    levels = [lv for lv in reversed(fine_levels)]
    if len(levels[0]) != 1:  # eps covered everything in one folder
        levels.insert(0, [np.arange(n)])
    if any(len(pts) > 1 for pts in levels[-1]):
        levels.append([np.array([p]) for p in range(n)])

    # parent links by containment
    raw: list[list[Folder]] = [[Folder(np.sort(pts), -1) for pts in levels[0]]]
    for li in range(1, len(levels)):
        prev = levels[li - 1]
        owner = np.full(n, -1, dtype=int)
        for fid, pts in enumerate(prev):
            owner[pts] = fid
        raw.append([Folder(np.sort(pts), int(owner[pts[0]])) for pts in levels[li]])
    tree = PartitionTree._link_children(raw)
    tree.validate()
    return tree

"""Hierarchical partition trees over embedded points.

A tree is a list of levels; level 1 is the whole point set, the last level is
all singletons, and every level partitions the points exactly. Folders that
reach the stopping size are carried through unchanged until the singleton
level is appended. A tree is exactly what `build_topdown` makes:
coarse-to-fine lists with one sorted point array per folder. A folder's parent is the
folder of the previous level that contains it, found when it is needed.

The top-down tree is level-synchronous: one `kmeans_split` call splits every
splittable folder of a level. Each folder is cut into BRANCHING quantile
slabs along its top principal direction, the relaxed 2-means solution
(Boley 1998, "Principal Direction Divisive Partitioning"; Ding and He 2004,
"K-means clustering via principal component analysis"); the paper's folder
weights need a multiscale partition (Coifman and Gavish 2011), not k-means
in particular. The result is that of splitting each folder alone, bit for bit.
Nothing is drawn at random, so the tree depends on the coordinates alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionEmbedding, _check_count, _fix_signs

# the tree's branching: principal slabs per split folder
BRANCHING = 2


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
        """The tree of `to_lines` output. Besides the tree's own checks, a
        ValueError names the first (1-based) line that is not integers
        level,folder_id,parent_id,point_ids..., whose level number follows
        a gap, whose folder id is not the next of 0, 1, ... in its level (a
        repeated id included), or whose parent id is not the folder above
        that contains it (-1 at the root)."""
        by_level: dict[int, list[tuple[int, int, int, np.ndarray]]] = {}
        for at, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    level, fid, up, *pts = (int(p) for p in line.split(","))
                except ValueError:
                    raise ValueError(f"line {at}: not level,folder_id,parent_id,points") from None
                pts = np.sort(np.array(pts, dtype=int))
                by_level.setdefault(level, []).append((fid, up, at, pts))
        levels = []
        for want, level in enumerate(sorted(by_level), start=1):
            if level != want:
                raise ValueError(f"line {by_level[level][0][2]}: level {level} where level "
                                 f"{want} belongs")
            levels.append(sorted(by_level[level], key=lambda f: f[0]))
            for k, (fid, _, at, _) in enumerate(levels[-1]):
                if fid != k:
                    raise ValueError(f"line {at}: folder id {fid} of level {level} "
                                     + ("repeats" if fid < k else f"where id {k} belongs"))
        tree = cls([[pts for *_, pts in folders] for folders in levels])
        for level, folders in enumerate(levels, start=1):
            for (fid, up, at, _), parent in zip(folders, tree.parents(level).tolist()):
                if up != parent:
                    raise ValueError(f"line {at}: parent id {up} of folder {fid} at level {level}, "
                                     f"where {parent} belongs")
        return tree


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


def kmeans_split(coords: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The relaxed (spectral) k-means labels, k = BRANCHING, of every folder
    of one tree level at once: each point's slab, 0..k-1, among the k
    quantile slabs of its folder along the folder's top principal direction
    (Boley 1998; Ding and He 2004). The name stays until the benchmark's
    spans are renamed.

    `coords` holds the folders' points folder after folder, each folder's
    points in point-id order, and `sizes` the number of points in each, at
    least k, so that no slab is empty. Means and covariances are sums in
    point order (bincounts), the directions come from one `eigh` of the
    (folders, d, d) stack, each signed so that its largest-magnitude entry
    is positive (`_fix_signs`), and a point's projection on its direction is
    summed in coordinate order. A point of rank r by (projection, point id)
    in a folder of m points is in slab r * k // m. The labels are those of
    the same steps on each folder alone, bit for bit.
    """
    x = np.ascontiguousarray(coords.T)  # (d, n): one contiguous row per coordinate
    d, n = x.shape
    sizes = np.asarray(sizes, dtype=int)
    n_folders = len(sizes)
    seg = np.repeat(np.arange(n_folders), sizes)
    mean = np.stack([np.bincount(seg, weights=row, minlength=n_folders) for row in x]) / sizes
    xc = x - mean[:, seg]
    cov = np.zeros((n_folders, d, d))
    for a in range(d):
        for b in range(a + 1):  # eigh reads the lower triangle only
            cov[:, a, b] = np.bincount(seg, weights=xc[a] * xc[b], minlength=n_folders) / sizes
    top = _fix_signs(np.linalg.eigh(cov, UPLO="L")[1][:, :, -1].T)[:, seg]  # (d, n)
    proj = xc[0] * top[0]
    for a in range(1, d):
        proj += xc[a] * top[a]
    rank = np.empty(n, dtype=int)
    rank[np.lexsort((np.arange(n), proj, seg))] = np.arange(n) - (np.cumsum(sizes) - sizes)[seg]
    return rank * BRANCHING // sizes[seg]


def fit_min_folder(n: int) -> int:
    """The fit's tree splits only folders of more than max(10, ceil(n/256))
    points."""
    return max(10, int(np.ceil(n / 256)))


def build_topdown(emb: DiffusionEmbedding, min_folder: int = 1) -> PartitionTree:
    """Top-down principal splits of the embedded coordinates, one level at a
    time.

    Every folder of a level larger than min_folder (and at least BRANCHING)
    is split into its BRANCHING principal slabs by one `kmeans_split` call
    for the whole level; smaller folders pass through unsplit. A min_folder
    that is not an integer >= 1 is a ValueError. The next level is one
    stable sort of the level's points by (folder, slab), sliced at the
    parts' bounds. Once nothing splits, a singleton level is appended, folder
    by folder.
    """
    _check_count("min_folder", min_folder)
    coords = emb.coords
    n = coords.shape[0]
    levels: list[list[np.ndarray]] = [[np.arange(n)]]
    while True:
        current = levels[-1]
        sizes = np.array([len(pts) for pts in current])
        split = (sizes > min_folder) & (sizes >= BRANCHING)
        if not split.any():
            break
        points = np.concatenate(current)
        folder = np.repeat(np.arange(len(current)), sizes)
        inside = split[folder]
        label = np.zeros(points.size, dtype=int)  # an unsplit folder is its part 0
        label[inside] = kmeans_split(coords[points[inside]], sizes[split])
        # a stable sort keeps each part's points sorted, as a folder's are
        part = folder * BRANCHING + label
        counts = np.bincount(part, minlength=len(current) * BRANCHING)
        ordered = points[np.argsort(part, kind="stable")]
        ends = np.cumsum(counts[counts > 0]).tolist()  # unsplit folders' empty parts dropped
        levels.append([ordered[a:b] for a, b in zip([0] + ends[:-1], ends)])
    if len(levels) == 1 or any(len(pts) > 1 for pts in levels[-1]):
        levels.append(list(np.concatenate(levels[-1])[:, None]))  # one (1,) row per point
    return PartitionTree(levels)


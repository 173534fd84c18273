"""Subfield growth-trajectory clustering.

Each subfield traces a yearly trajectory in the (scaled consolidating,
scaled disruptive) plane: its row of the ``scaled_cn`` and ``scaled_di``
arrays of a :class:`~scibreak.panel.SeriesTable`, over the table's year
grid.  Pairwise dynamic time warping distances over those 2-d trajectories
feed a Gaussian-kernel similarity matrix, which is clustered with Leiden
community detection on the weighted complete graph.
Every DTW distance, one pair or all pairs, comes from one numpy kernel that
advances a batch of pairs one anti-diagonal of the DP at a time.
Size-1 communities are flagged as singletons and excluded from cluster
numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .leiden import leiden_communities
from .panel import SeriesTable


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered 2-d points of one subfield (or one cluster mean)."""

    subfield_id: int
    years: tuple[int, ...]
    points: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] != len(self.years):
            raise ValueError(
                f"points must be ({len(self.years)}, 2), got {pts.shape}"
            )
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple[int, ...]
    matrix: np.ndarray  # symmetric, zero diagonal


@dataclass(frozen=True)
class SimilarityMatrix:
    labels: tuple[int, ...]
    matrix: np.ndarray  # in (0, 1], unit diagonal
    sigma: float


@dataclass(frozen=True)
class ClusteringResult:
    """Cluster assignment of subfields; singletons carry no cluster id.

    Clusters are numbered from 1 by decreasing size (ties by smallest member
    label).  ``assignments`` maps every label to its cluster id or None for
    singletons.  ``mean_trajectories`` is filled via
    :func:`with_mean_trajectories`.
    """

    assignments: dict[int, int | None]
    cluster_members: dict[int, tuple[int, ...]]
    singletons: tuple[int, ...]
    seed: int
    resolution: float
    quality: float
    mean_trajectories: dict[int, Trajectory] | None = None


def trajectories_from_series(series: SeriesTable) -> list[Trajectory]:
    """(scaled CN, scaled DI) trajectory of every subfield row of ``series``.

    The series must already carry scaled counts.
    """
    if series.scaled_cn is None or series.scaled_di is None:
        raise ValueError("series lacks scaled counts")
    years = tuple(series.years.tolist())
    points = np.stack([series.scaled_cn, series.scaled_di], axis=-1)
    return [
        Trajectory(sub, years, row)
        for sub, row in zip(series.subfields.tolist(), points)
    ]


def dtw_distance(
    a: Trajectory, b: Trajectory, *, per_component: bool = False
) -> float:
    """Dynamic-time-warping alignment cost between two trajectories.

    Classic unconstrained DP over match/insert/delete steps with Euclidean
    local cost on the 2-d points; no path normalization.  With
    ``per_component`` the two coordinates are warped independently (absolute
    local cost) and the costs summed.  This is a one-pair call of the batched
    kernel behind :func:`distance_matrix`, so both give the same bits.
    """
    first, second = np.array([0]), np.array([1])
    return float(_pair_distances((a, b), first, second, per_component)[0])


def distance_matrix(
    trajectories: Sequence[Trajectory], *, per_component: bool = False
) -> DistanceMatrix:
    """Pairwise DTW distances, labels ordered by subfield id.

    All pairs go through one batched wavefront kernel (see
    :func:`_wavefront`); each entry equals :func:`dtw_distance` of its pair.
    """
    ordered = sorted(trajectories, key=lambda t: t.subfield_id)
    labels = tuple(t.subfield_id for t in ordered)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate trajectory labels")
    n = len(ordered)
    first, second = np.triu_indices(n, 1)
    distances = _pair_distances(ordered, first, second, per_component)
    matrix = np.zeros((n, n))
    matrix[first, second] = distances
    matrix[second, first] = distances
    return DistanceMatrix(labels, matrix)


# Pairs per kernel call.  At 64 years the three diagonal buffers and the
# gathered inputs of a batch take about 1 MiB, whatever the pair count.
_BATCH = 256


def _pair_distances(
    trajectories: Sequence[Trajectory],
    first: np.ndarray,
    second: np.ndarray,
    per_component: bool,
) -> np.ndarray:
    """DTW cost of every pair ``(trajectories[first[k]], trajectories[second[k]])``.

    Pairs are grouped by their two lengths and fed to :func:`_wavefront` in
    batches of ``_BATCH``, each stacked as (coordinate, time, pair) with the
    second side reversed in time.
    """
    lengths = np.array([len(t.points) for t in trajectories], dtype=np.int64)
    if len(first) and not (lengths[first].all() and lengths[second].all()):
        raise ValueError("cannot warp an empty trajectory")
    out = np.empty(len(first))
    groups = lengths[first] * (lengths.max(initial=0) + 1) + lengths[second]
    for key in np.unique(groups):
        pairs = np.flatnonzero(groups == key)
        for start in range(0, len(pairs), _BATCH):
            batch = pairs[start : start + _BATCH]
            a = _time_major([trajectories[i].points for i in first[batch]])
            b = _time_major([trajectories[j].points[::-1] for j in second[batch]])
            if per_component:
                out[batch] = _wavefront(a[:1], b[:1]) + _wavefront(a[1:], b[1:])
            else:
                out[batch] = _wavefront(a, b)
    return out


def _time_major(points: list[np.ndarray]) -> np.ndarray:
    """Stack ``(n, c)`` point arrays as one contiguous ``(c, n, pairs)`` array."""
    return np.ascontiguousarray(np.array(points).T)


def _wavefront(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unconstrained DTW cost of P pairs at once, one anti-diagonal per step.

    ``a`` is ``(c, n, P)``: c coordinates, n time steps, one column per pair.
    ``b`` is ``(c, m, P)`` with time reversed.  The local cost is ``|a - b|``
    for one coordinate and the Euclidean distance for two; each cell is
    ``cost + min(diagonal, up, left)``, as in the textbook row-by-row DP.

    Cell (i, j) (1-based) lies on diagonal k = i + j.  The cells of diagonal
    k are i = lo..hi, which read the contiguous rows ``a[:, lo-1:hi]`` and,
    thanks to the reversal, ``b[:, m-k+lo:m-k+hi+1]``.  Three rotating
    ``(n + 1, P)`` buffers hold diagonals k-2, k-1 and k, indexed by i;
    every entry outside a diagonal's cells is inf, the DP's boundary.
    Steps: n + m - 1 per batch, whatever P is.
    """
    n, pairs = a.shape[1:]
    m = b.shape[1]
    diagonals = np.full((3, n + 1, pairs), np.inf)
    diagonals[0, 0] = 0.0  # D[0, 0], read only by cell (1, 1)
    cost = np.empty((n, pairs))
    scratch = np.empty((n, pairs))
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        rows = hi - lo + 1
        c, t = cost[:rows], scratch[:rows]
        a_rows, b_rows = slice(lo - 1, hi), slice(m - k + lo, m - k + hi + 1)
        np.subtract(a[0, a_rows], b[0, b_rows], out=c)
        if len(a) == 1:
            np.abs(c, out=c)
        else:
            np.subtract(a[1, a_rows], b[1, b_rows], out=t)
            np.hypot(c, t, out=c)
        diag, prev, cur = (diagonals[(k - d) % 3] for d in (2, 1, 0))
        np.minimum(prev[lo - 1 : hi], prev[lo : hi + 1], out=t)
        np.minimum(diag[lo - 1 : hi], t, out=t)
        np.add(c, t, out=cur[lo : hi + 1])
        if k == 2:
            diag[0] = np.inf  # that buffer holds diagonal 3 next
    return diagonals[(n + m) % 3, n].copy()


def default_sigma(distances: DistanceMatrix) -> float:
    """Kernel width: standard deviation of the off-diagonal distances.

    Falls back to 1.0 when every pair is equidistant (zero spread), which
    only happens on degenerate inputs where the width has no effect on the
    ordering of similarities anyway.
    """
    n = distances.matrix.shape[0]
    if n < 2:
        return 1.0
    off = distances.matrix[~np.eye(n, dtype=bool)]
    sigma = float(np.std(off))
    return sigma if sigma > 0 else 1.0


def similarity_matrix(distances: DistanceMatrix, sigma: float) -> SimilarityMatrix:
    """Gaussian kernel exp(-D^2 / (2 sigma^2)) applied elementwise."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    matrix = np.exp(-(distances.matrix**2) / (2.0 * sigma * sigma))
    return SimilarityMatrix(distances.labels, matrix, float(sigma))


def leiden_clusters(
    similarity: SimilarityMatrix, resolution: float = 1.0, seed: int = 0
) -> ClusteringResult:
    """Cluster the weighted complete graph of pairwise similarities.

    Labels are reordered canonically before the seeded run, so any input
    permutation of the same data yields the identical assignment mapping.
    """
    labels = similarity.labels
    if len(labels) < 2:
        raise ValueError("need at least 2 labels to cluster")
    matrix = np.asarray(similarity.matrix, dtype=float)
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        raise ValueError("similarity matrix must be symmetric")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-9):
        raise ValueError("similarity matrix must have a unit diagonal")

    order = np.argsort(np.asarray(labels))
    canonical = tuple(labels[i] for i in order)
    weights = matrix[np.ix_(order, order)].copy()
    np.fill_diagonal(weights, 0.0)

    result = leiden_communities(weights, resolution=resolution, seed=seed)

    groups: dict[int, list[int]] = {}
    for label, community in zip(canonical, result.membership):
        groups.setdefault(community, []).append(label)
    clusters = sorted(
        (members for members in groups.values() if len(members) >= 2),
        key=lambda m: (-len(m), min(m)),
    )
    singletons = tuple(
        sorted(m[0] for m in groups.values() if len(m) == 1)
    )
    assignments: dict[int, int | None] = {label: None for label in canonical}
    cluster_members: dict[int, tuple[int, ...]] = {}
    for cid, members in enumerate(clusters, start=1):
        cluster_members[cid] = tuple(sorted(members))
        for label in members:
            assignments[label] = cid
    return ClusteringResult(
        assignments=assignments,
        cluster_members=cluster_members,
        singletons=singletons,
        seed=seed,
        resolution=resolution,
        quality=result.quality,
    )


def cluster_mean_trajectory(
    result: ClusteringResult, trajectories: Iterable[Trajectory]
) -> dict[int, Trajectory]:
    """Pointwise mean trajectory per cluster (the id is stored as the label).

    All member trajectories must share one year grid.  Attach the returned
    mapping to the result with :func:`with_mean_trajectories`.
    """
    by_label = {t.subfield_id: t for t in trajectories}
    means: dict[int, Trajectory] = {}
    for cid, members in result.cluster_members.items():
        missing = [m for m in members if m not in by_label]
        if missing:
            raise ValueError(f"no trajectory for cluster members {missing}")
        grids = {by_label[m].years for m in members}
        if len(grids) != 1:
            raise ValueError(f"cluster {cid} members have mismatched year grids")
        years = next(iter(grids))
        stack = np.stack([by_label[m].points for m in members])
        means[cid] = Trajectory(cid, years, stack.mean(axis=0))
    return means


def with_mean_trajectories(
    result: ClusteringResult, trajectories: Iterable[Trajectory]
) -> ClusteringResult:
    """Copy of the result with per-cluster mean trajectories filled in."""
    return replace(
        result, mean_trajectories=cluster_mean_trajectory(result, trajectories)
    )

"""Subfield growth-trajectory clustering.

Each subfield traces a yearly trajectory in the (scaled consolidating,
scaled disruptive) plane: its row of the ``scaled_cn`` and ``scaled_di``
arrays of a :class:`~scibreak.panel.SeriesTable`, over the table's year
grid.  Pairwise dynamic time warping distances over those 2-d trajectories
feed a Gaussian-kernel similarity matrix, which is clustered with Leiden
community detection on the weighted complete graph.  All trajectories of
one distance matrix share one year grid; a single pair may differ in length.
Every DTW distance, one pair or all pairs, comes from one numpy kernel that
advances a batch of pairs one anti-diagonal of the DP at a time.  Its local
cost is ``sqrt(dx² + dy²)`` on inputs that each pair first divides by a
power of two, so the squares stay finite; the rounding is within a few ulp
of ``hypot``.
Size-1 communities are flagged as singletons and excluded from cluster
numbering.

Leiden (Traag, Waltman & van Eck 2019) runs three phases per level:
queue-based local moving, a refinement pass that only merges
well-connected nodes inside their current community, and aggregation.  It
optimizes modularity with a resolution γ; below, w is edge weight, k a
node's strength, K a group's total strength and 2m the leaf graph's total.
The leaf graph has a zero diagonal; aggregate levels carry twice the
internal weight of each merged group on the diagonal, so that row sums
remain node strengths.  The decision rules:

* One ``random.Random(seed)`` draws every visit order.  Each level shuffles
  its nodes once for local moving, then the nodes of each community of two
  or more, in ascending community id, for refinement.  Nothing else draws.
* Local moving scores staying in C as w(v, C - v) - γ k_v (K_C - k_v) / 2m
  and each community D that v has weight to as w(v, D) - γ k_v K_D / 2m.
  Taken in ascending id, D replaces the running best only if it beats it by
  more than 1e-12.  If v shares its community and the best is below
  -1e-12, v moves alone into the lowest empty id.
* Refinement starts from singletons.  A node that is still alone may join
  the subcommunity S of its community C with the largest gain
  w(v, S) - γ k_v K_S / 2m above 1e-12; ties go to the lowest id.
* Two well-connectedness tests, each with 1e-12 of slack: v is considered
  only if w(v, C - v) >= γ k_v (K_C - k_v) / 2m, and S is a candidate only
  if w(S, C - S) >= γ K_S (K_C - K_S) / 2m.  w(S, C - S) is a running
  total, updated as nodes join S; its rounding stays far inside the slack.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .analysis import check_positive_finite
from .panel import SeriesTable

_EPS = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered 2-d points of one subfield."""

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
    """Cluster id ``cluster[i]`` (int64) of subfield ``labels[i]``, ascending.

    Clusters are numbered from 1 by decreasing size, ties by smallest member
    label; a singleton has id 0.  :func:`with_mean_trajectories` fills the
    grid ``years`` and ``means``, whose row k - 1 is cluster k's mean.
    """

    labels: np.ndarray
    cluster: np.ndarray
    quality: float  # modularity at the resolution used
    years: np.ndarray | None = None
    means: np.ndarray | None = None


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

    Classic unconstrained DP over match/insert/delete steps with local cost
    ``sqrt(dx² + dy²)`` on the 2-d points; no path normalization.  With
    ``per_component`` the two coordinates are warped independently (absolute
    local cost) and the costs summed.  The two may differ in length.  This
    is a one-pair call of the batched kernel behind :func:`distance_matrix`,
    so both give the same bits.
    """
    return float(_pair_distances(a.points[None], b.points[None], per_component)[0])


def distance_matrix(
    trajectories: Sequence[Trajectory], *, per_component: bool = False
) -> DistanceMatrix:
    """Pairwise DTW distances, labels ordered by subfield id.

    Every trajectory must lie on one year grid, as those of
    :func:`trajectories_from_series` do; mixed grids are a ``ValueError``.
    All pairs go through one batched wavefront kernel (see
    :func:`_wavefront`); each entry equals :func:`dtw_distance` of its pair.
    """
    ordered = sorted(trajectories, key=lambda t: t.subfield_id)
    labels = tuple(t.subfield_id for t in ordered)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate trajectory labels")
    if len({t.years for t in ordered}) > 1:
        raise ValueError("trajectories lie on different year grids")
    n = len(ordered)
    first, second = np.triu_indices(n, 1)
    points = np.array([t.points for t in ordered])  # (n, years, 2)
    distances = np.empty(len(first))
    for start in range(0, len(first), _BATCH):
        batch = slice(start, start + _BATCH)
        distances[batch] = _pair_distances(
            points[first[batch]], points[second[batch]], per_component
        )
    matrix = np.zeros((n, n))
    matrix[first, second] = distances
    matrix[second, first] = distances
    return DistanceMatrix(labels, matrix)


# Pairs per kernel call.  At 64 years the three diagonal buffers and the
# gathered inputs of a batch take about 1 MiB, whatever the pair count.
_BATCH = 256


def _pair_distances(a: np.ndarray, b: np.ndarray, per_component: bool) -> np.ndarray:
    """DTW cost of each pair ``(a[k], b[k])``, given as ``(P, n, 2)`` and
    ``(P, m, 2)`` point stacks.

    The stacks are copied as (coordinate, time, pair), the second side
    reversed in time, for :func:`_wavefront`; the caller's arrays are never
    changed.  Each pair is divided by the power of two just above its
    largest |coordinate| and its cost multiplied back, so no square in the
    local cost overflows, and only differences below about 1e-154 of that
    coordinate underflow.  Scaling by a power of two is exact, so inputs far
    from both limits give the bits of the unscaled kernel.
    """
    if not (a.shape[1] and b.shape[1]):
        raise ValueError("cannot warp an empty trajectory")
    peaks = np.maximum(np.abs(a).max(axis=(1, 2)), np.abs(b).max(axis=(1, 2)))
    _, exponents = np.frexp(peaks)
    a = np.array(a.transpose(2, 1, 0), order="C")
    b = np.array(b[:, ::-1].transpose(2, 1, 0), order="C")
    np.ldexp(a, -exponents, out=a)
    np.ldexp(b, -exponents, out=b)
    if per_component:
        cost = _wavefront(a[:1], b[:1]) + _wavefront(a[1:], b[1:])
    else:
        cost = _wavefront(a, b)
    return np.ldexp(cost, exponents)


def _wavefront(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unconstrained DTW cost of P pairs at once, one anti-diagonal per step.

    ``a`` is ``(c, n, P)``: c coordinates, n time steps, one column per pair.
    ``b`` is ``(c, m, P)`` with time reversed.  The local cost is ``|a - b|``
    for one coordinate and ``sqrt(dx² + dy²)`` for two, in four in-place
    ufuncs: a few ulp from ``hypot`` and about 9x cheaper than its libm
    call.  The caller scales the inputs so the squares stay finite.  Each
    cell is ``cost + min(diagonal, up, left)``, as in the textbook
    row-by-row DP.

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
            np.multiply(c, c, out=c)
            np.multiply(t, t, out=t)
            np.add(c, t, out=c)
            np.sqrt(c, out=c)
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
    """Gaussian kernel exp(-D^2 / (2 sigma^2)) applied elementwise.

    Where 2 sigma^2 is not a normal float (sigma below about 1.5e-154; it is
    0 below about 1.6e-162, and 0/0 would be nan) the distances are divided
    by sigma before squaring, so a zero distance gives 1 at every sigma.  A
    square past the float range is a similarity of 0, without a warning.
    """
    check_positive_finite("sigma", sigma)
    scale = 2.0 * sigma * sigma
    with np.errstate(over="ignore"):
        if scale < np.finfo(float).tiny:
            matrix = np.exp(-0.5 * (distances.matrix / sigma) ** 2)
        else:
            matrix = np.exp(-(distances.matrix**2) / scale)
    return SimilarityMatrix(distances.labels, matrix, float(sigma))


def leiden_clusters(
    similarity: SimilarityMatrix, resolution: float = 1.0, seed: int = 0
) -> ClusteringResult:
    """Cluster the weighted complete graph of pairwise similarities.

    This is the one place that checks a graph: at least 2 labels, a
    positive finite resolution, a square matrix matching the labels, finite,
    symmetric within 1e-9 with a unit diagonal and no negative entry.  Labels are
    reordered canonically before the seeded run, so any input permutation
    of the same data yields the same labels and cluster ids.
    """
    labels = similarity.labels
    n = len(labels)
    if n < 2:
        raise ValueError("need at least 2 labels to cluster")
    check_positive_finite("resolution", resolution)
    matrix = np.asarray(similarity.matrix, dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(f"{n} labels need a {n} x {n} similarity matrix, got {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("similarity matrix must be finite")
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        raise ValueError("similarity matrix must be symmetric")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-9):
        raise ValueError("similarity matrix must have a unit diagonal")
    if (matrix < 0).any():
        raise ValueError("similarity matrix must not have negative entries")

    order = np.argsort(np.asarray(labels))
    weights = matrix[np.ix_(order, order)]
    np.fill_diagonal(weights, 0.0)
    membership = _leiden(weights, resolution, seed)

    sizes = np.bincount(membership)
    _, first = np.unique(membership, return_index=True)  # smallest member's position
    ids = np.argsort(np.lexsort((first, -sizes))) + 1  # by decreasing size, then label
    return ClusteringResult(
        labels=np.asarray(labels, dtype=np.int64)[order],
        cluster=np.where(sizes > 1, ids, 0)[membership],
        quality=modularity(weights, membership, resolution),
    )


def _leiden(W: np.ndarray, resolution: float, seed: int) -> np.ndarray:
    """Leiden partition of a checked zero-diagonal graph, compact ids.

    A graph with no weight gives all singletons.  Each level that does not
    stop has fewer nodes than the one before, so the node count bounds the
    level loop.
    """
    n = W.shape[0]
    two_m = float(W.sum())
    if two_m <= 0:
        return np.arange(n)

    rng = random.Random(seed)
    carrier = np.arange(n)  # leaf node -> current-level node
    membership = np.arange(n)
    for _ in range(n):
        strengths = W.sum(axis=1)
        _local_move(W, strengths, two_m, membership, resolution, rng)
        membership = _compact(membership)
        if membership.max() + 1 == len(membership):
            break
        refined = _compact(_refine(W, strengths, two_m, membership, resolution, rng))
        if refined.max() + 1 == len(refined):
            break  # refinement kept everything separate: nothing left to collapse
        indicator = np.eye(refined.max() + 1)[refined]  # node x refined community
        W = indicator.T @ W @ indicator
        # each refined community lies in one community: that of its first node
        membership = membership[np.unique(refined, return_index=True)[1]]
        carrier = refined[carrier]
    return _compact(membership[carrier])


def _compact(labels: np.ndarray) -> np.ndarray:
    """Renumber labels 0, 1, ... by first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _local_move(
    W: np.ndarray,
    strengths: np.ndarray,
    two_m: float,
    membership: np.ndarray,
    resolution: float,
    rng: random.Random,
) -> None:
    """Greedy node moves, in place, until no queued node improves modularity."""
    n = len(membership)
    # bincount adds in node order, as a loop over the nodes would
    comm_tot = np.bincount(membership, weights=strengths, minlength=n)
    comm_size = np.bincount(membership, minlength=n)

    order = list(range(n))
    rng.shuffle(order)
    queue = deque(order)
    queued = np.ones(n, dtype=bool)

    while queue:
        v = queue.popleft()
        queued[v] = False
        c_v = membership[v]
        k_v = strengths[v]
        row = W[v]
        w_to = np.bincount(membership, weights=row, minlength=n)
        best_c = c_v
        best_score = w_to[c_v] - row[v] - resolution * k_v * (comm_tot[c_v] - k_v) / two_m
        # a community must beat the running best by more than _EPS, so the
        # lowest of near-equal scores wins; no argmax expresses that
        for c in np.flatnonzero(w_to > 0).tolist():
            score = w_to[c] - resolution * k_v * comm_tot[c] / two_m
            if c != c_v and score > best_score + _EPS:
                best_c, best_score = c, score
        if comm_size[c_v] > 1 and 0.0 > best_score + _EPS:
            # striking out alone, into the first empty community, beats all
            best_c = int(np.argmin(comm_size))

        if best_c != c_v:
            comm_tot[c_v] -= k_v
            comm_size[c_v] -= 1
            comm_tot[best_c] += k_v
            comm_size[best_c] += 1
            membership[v] = best_c
            requeue = (row > 0) & (membership != best_c) & ~queued  # never v
            queued |= requeue
            queue.extend(np.flatnonzero(requeue).tolist())


def _refine(
    W: np.ndarray,
    strengths: np.ndarray,
    two_m: float,
    membership: np.ndarray,
    resolution: float,
    rng: random.Random,
) -> np.ndarray:
    """Split each community into well-connected subcommunities.

    Starting from singletons, each node that is still alone may merge into a
    subcommunity of its own community, provided both sides are well
    connected within the community and the merge improves modularity.  The
    best candidate wins; ties go to the lowest subcommunity id.
    """
    refined = np.arange(len(membership))  # a node alone keeps its own id
    by_community = np.argsort(membership, kind="stable")
    for nodes in np.split(by_community, np.cumsum(np.bincount(membership))[:-1]):
        if len(nodes) < 2:
            continue
        sub = W[np.ix_(nodes, nodes)]
        within = sub.sum(axis=1) - np.diag(sub)
        s_tot = strengths[nodes].sum()
        # subcommunity j, founded by nodes[j]: size, total strength, cut w(S, C - S)
        label, size = np.arange(len(nodes)), np.ones(len(nodes), dtype=np.int64)
        ref_tot, cut = strengths[nodes], within.copy()
        order = list(range(len(nodes)))
        rng.shuffle(order)
        for i in order:
            if size[i] != 1:
                continue
            k_v = strengths[nodes[i]]
            if within[i] + _EPS < resolution * k_v * (s_tot - k_v) / two_m:
                continue
            # w(v, S) in node order; an emptied id has none, so it never gains
            to = np.bincount(label, weights=sub[i], minlength=len(nodes))
            gains = to - resolution * k_v * ref_tot / two_m
            gains[cut + _EPS < resolution * ref_tot * (s_tot - ref_tot) / two_m] = -np.inf
            gains[i] = -np.inf
            best = int(np.argmax(gains))  # the first of equal gains: the lowest id
            if gains[best] > _EPS:
                cut[best] += within[i] - 2 * to[best]
                size[best] += 1
                ref_tot[best] += k_v
                label[i], size[i] = best, 0
        refined[nodes] = nodes[label]
    return refined


def modularity(
    W: np.ndarray, membership: list[int] | tuple[int, ...], resolution: float = 1.0
) -> float:
    """Modularity of a partition on a zero-diagonal weight matrix."""
    two_m = float(W.sum())
    if two_m <= 0:
        return 0.0
    _, labels = np.unique(membership, return_inverse=True)
    indicator = np.eye(labels.max() + 1)[labels]  # node x community
    internal = np.diag(indicator.T @ W @ indicator)
    tot = W.sum(axis=1) @ indicator
    return float(np.sum(internal / two_m - resolution * (tot / two_m) ** 2))


def cluster_mean_trajectory(
    result: ClusteringResult, trajectories: Iterable[Trajectory]
) -> tuple[np.ndarray, np.ndarray]:
    """The year grid and the (clusters, years, 2) pointwise mean trajectory
    of each cluster, row k - 1 for cluster k.

    Every label of the result needs a trajectory, all on one year grid.
    Attach the means to the result with :func:`with_mean_trajectories`.
    """
    by_label = {t.subfield_id: t for t in trajectories}
    ordered = [by_label.get(label) for label in result.labels.tolist()]
    if None in ordered or len({t.years for t in ordered}) > 1:
        raise ValueError("every label needs a trajectory, all on one year grid")
    points = np.stack([t.points for t in ordered])  # (labels, years, 2)
    means = [points[result.cluster == k].mean(axis=0) for k in range(1, result.cluster.max() + 1)]
    return np.array(ordered[0].years), np.array(means).reshape(-1, *points.shape[1:])


def with_mean_trajectories(
    result: ClusteringResult, trajectories: Iterable[Trajectory]
) -> ClusteringResult:
    """Copy of the result with its year grid and cluster means filled in."""
    years, means = cluster_mean_trajectory(result, trajectories)
    return replace(result, years=years, means=means)

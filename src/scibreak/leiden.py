"""Leiden community detection for small dense weighted graphs.

Implements the three-phase Leiden scheme — queue-based local moving, a
refinement pass that only merges well-connected nodes inside their current
community, and aggregation — optimizing modularity with a resolution
parameter.  Randomness is confined to visit-order shuffles drawn from a
seeded generator, and every tie is broken by lowest index, so a fixed seed
yields a fixed partition.

Graphs are dense symmetric non-negative matrices.  At the leaf level the
diagonal must be zero; aggregate levels carry twice the internal weight of
each merged group on the diagonal so that row sums remain node strengths.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


@dataclass(frozen=True)
class LeidenResult:
    membership: tuple[int, ...]  # node -> community, compact ids
    n_communities: int
    quality: float  # modularity at the requested resolution
    seed: int
    resolution: float


def _compact(labels: list[int]) -> tuple[list[int], int]:
    """Renumber labels by first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for label in labels:
        if label not in mapping:
            mapping[label] = len(mapping)
        out.append(mapping[label])
    return out, len(mapping)


def _local_move(
    W: np.ndarray,
    strengths: np.ndarray,
    two_m: float,
    membership: list[int],
    resolution: float,
    rng: random.Random,
) -> bool:
    """Greedy node moves until no queued node improves modularity."""
    n = len(membership)
    comm_tot = np.zeros(n)
    comm_size = np.zeros(n, dtype=np.int64)
    for v, c in enumerate(membership):
        comm_tot[c] += strengths[v]
        comm_size[c] += 1

    order = list(range(n))
    rng.shuffle(order)
    queue = deque(order)
    queued = [True] * n
    moved_any = False

    while queue:
        v = queue.popleft()
        queued[v] = False
        c_v = membership[v]
        k_v = strengths[v]
        row = W[v]
        w_to = np.bincount(membership, weights=row, minlength=n)
        w_own = w_to[c_v] - row[v]
        stay = w_own - resolution * k_v * (comm_tot[c_v] - k_v) / two_m

        best_c = c_v
        best_score = stay
        for c in np.nonzero(w_to > 0)[0]:
            c = int(c)
            if c == c_v or comm_size[c] == 0:
                continue
            score = w_to[c] - resolution * k_v * comm_tot[c] / two_m
            if score > best_score + _EPS:
                best_c, best_score = c, score
        if comm_size[c_v] > 1 and 0.0 > best_score + _EPS:
            # striking out alone beats every occupied option
            empty = int(np.nonzero(comm_size == 0)[0][0])
            best_c, best_score = empty, 0.0

        if best_c != c_v:
            comm_tot[c_v] -= k_v
            comm_size[c_v] -= 1
            comm_tot[best_c] += k_v
            comm_size[best_c] += 1
            membership[v] = best_c
            moved_any = True
            for u in np.nonzero(row > 0)[0]:
                u = int(u)
                if u != v and membership[u] != best_c and not queued[u]:
                    queue.append(u)
                    queued[u] = True
    return moved_any


def _refine(
    W: np.ndarray,
    strengths: np.ndarray,
    two_m: float,
    membership: list[int],
    resolution: float,
    rng: random.Random,
) -> list[int]:
    """Split each community into well-connected subcommunities.

    Starting from singletons, each node that is still alone may merge into a
    subcommunity of its own community, provided both sides are well
    connected within the community and the merge improves modularity.  The
    best candidate wins; ties go to the lowest subcommunity id.
    """
    n = len(membership)
    refined = list(range(n))
    ref_tot = [float(s) for s in strengths]
    ref_size = [1] * n

    for c in sorted(set(membership)):
        nodes = [v for v in range(n) if membership[v] == c]
        if len(nodes) < 2:
            continue
        node_arr = np.array(nodes)
        sub = W[np.ix_(node_arr, node_arr)]
        within = sub.sum(axis=1) - np.diag(sub)
        local = {v: i for i, v in enumerate(nodes)}
        s_tot = float(strengths[node_arr].sum())

        order = nodes.copy()
        rng.shuffle(order)
        members: dict[int, list[int]] = {refined[v]: [v] for v in nodes}
        for v in order:
            if ref_size[refined[v]] != 1:
                continue
            k_v = float(strengths[v])
            if within[local[v]] + _EPS < resolution * k_v * (s_tot - k_v) / two_m:
                continue
            gains: dict[int, float] = {}
            for u in nodes:
                if u == v:
                    continue
                t = refined[u]
                gains[t] = gains.get(t, 0.0) + float(W[v, u])
            best_t = -1
            best_gain = _EPS
            for t in sorted(gains):
                if t == refined[v]:
                    continue
                t_members = members[t]
                outside = [u for u in nodes if refined[u] != t]
                cut = float(W[np.ix_(t_members, outside)].sum())
                if cut + _EPS < resolution * ref_tot[t] * (s_tot - ref_tot[t]) / two_m:
                    continue
                gain = gains[t] - resolution * k_v * ref_tot[t] / two_m
                if gain > best_gain:
                    best_t, best_gain = t, gain
            if best_t >= 0:
                old = refined[v]
                members[best_t].append(v)
                members[old].remove(v)
                ref_tot[best_t] += k_v
                ref_tot[old] -= k_v
                ref_size[best_t] += 1
                ref_size[old] -= 1
                refined[v] = best_t
    return refined


def _aggregate(
    W: np.ndarray, refined: list[int], membership: list[int]
) -> tuple[np.ndarray, list[int], list[int]]:
    """Collapse refined communities into nodes; keep the parent partition."""
    compact, n_agg = _compact(refined)
    n = len(compact)
    indicator = np.zeros((n, n_agg))
    indicator[np.arange(n), compact] = 1.0
    W_agg = indicator.T @ W @ indicator
    parent = [0] * n_agg
    for v in range(n):
        parent[compact[v]] = membership[v]
    parent, _ = _compact(parent)
    return W_agg, parent, compact


def modularity(
    W: np.ndarray, membership: list[int] | tuple[int, ...], resolution: float = 1.0
) -> float:
    """Modularity of a partition on a zero-diagonal weight matrix."""
    two_m = float(W.sum())
    if two_m <= 0:
        return 0.0
    strengths = W.sum(axis=1)
    labels = np.asarray(membership)
    q = 0.0
    for c in np.unique(labels):
        mask = labels == c
        internal = float(W[np.ix_(mask, mask)].sum())
        tot = float(strengths[mask].sum())
        q += internal / two_m - resolution * (tot / two_m) ** 2
    return q


def leiden_communities(
    weights: np.ndarray,
    resolution: float = 1.0,
    seed: int = 0,
    max_levels: int = 64,
) -> LeidenResult:
    """Partition a dense weighted graph; deterministic for a fixed seed."""
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"weight matrix must be square, got {W.shape}")
    n = W.shape[0]
    if n == 0:
        raise ValueError("empty graph")
    if not np.allclose(W, W.T, atol=1e-9):
        raise ValueError("weight matrix must be symmetric")
    if (W < 0).any():
        raise ValueError("negative edge weights are not supported")
    W = W.copy()
    np.fill_diagonal(W, 0.0)

    if n == 1:
        return LeidenResult((0,), 1, 0.0, seed, resolution)
    two_m = float(W.sum())
    if two_m <= 0:
        return LeidenResult(tuple(range(n)), n, 0.0, seed, resolution)

    rng = random.Random(seed)
    leaf_W = W
    carrier = list(range(n))  # leaf node -> current-level node
    membership = list(range(n))
    level_W = W

    for _ in range(max_levels):
        strengths = level_W.sum(axis=1)
        _local_move(level_W, strengths, two_m, membership, resolution, rng)
        membership, n_comms = _compact(membership)
        if n_comms == level_W.shape[0]:
            break
        refined = _refine(level_W, strengths, two_m, membership, resolution, rng)
        level_W, membership, node_map = _aggregate(level_W, refined, membership)
        carrier = [node_map[c] for c in carrier]
        if level_W.shape[0] == len(node_map) and len(set(node_map)) == len(node_map):
            # refinement kept everything separate: nothing left to collapse
            break

    final = [membership[carrier[v]] for v in range(n)]
    final, n_comms = _compact(final)
    quality = modularity(leaf_W, final, resolution)
    return LeidenResult(tuple(final), n_comms, quality, seed, resolution)

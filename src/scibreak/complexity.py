"""Bipartite complexity ranking of countries and subfields.

A country x subfield count matrix is turned into revealed-comparative-
advantage shares (Balassa), thresholded into a binary bipartite adjacency,
and scored with the GENEPY multi-component eigenvector framework: the binary
matrix is degree-normalized into A, the zero-diagonal proximity matrices
U = A A' (countries) and V = A' A (subfields) are formed, and each entity's
composite score combines the leading eigenpairs of its proximity matrix as

    score = (sum_i lambda_i x_i^2)^2 + 2 sum_i lambda_i^2 x_i^2.

The eigenpairs come from one ``numpy.linalg.eigh`` call, in descending
order, each vector's largest-magnitude component made non-negative so runs
are reproducible.  One tie rule, :func:`_tie_classes`, groups the descending
spectrum: a value joins a class while it lies within
``_TIE_TOL * max(1, |lambda_1|)`` of the class's first value.  The solver
returns pairs through the end of the class holding the ``count``-th pair,
and the composite averages squared components isotropically over each
class's eigenspace, which keeps scores basis-independent (and ties all
countries on a complete bipartite input).  For simple spectra this
reduces exactly to the formula above.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterator

import numpy as np

from .analysis import check_positive_finite
from .impact import BreakthroughClass
from .panel import PanelMatrix

_TIE_TOL = 1e-8
_SCORE_TIE_TOL = 1e-9
_HALF_MAX = np.finfo(np.float64).max / 2


@dataclass(frozen=True)
class RcaMatrix:
    """Revealed comparative advantage per country/subfield cell.

    Rows or columns of the source counts that sum to zero yield all-zero RCA
    entries, so :func:`binarize` prunes them.
    """

    window: tuple[int, int]
    kind: BreakthroughClass
    values: np.ndarray
    countries: tuple[str, ...]
    subfields: tuple[int, ...]


@dataclass(frozen=True)
class BinaryAdjacency:
    """RCA-thresholded 0/1 matrix with all-zero rows and columns pruned."""

    window: tuple[int, int]
    kind: BreakthroughClass
    matrix: np.ndarray  # int8
    countries: tuple[str, ...]
    subfields: tuple[int, ...]
    pruned_countries: tuple[str, ...] = ()
    pruned_subfields: tuple[int, ...] = ()


@dataclass(frozen=True)
class GenepyResult:
    """Eigen decomposition summary and composite ranking for one side."""

    side: str  # "countries" | "subfields"
    labels: tuple[str, ...]  # retained entities, matrix order
    eigenvalues: tuple[float, ...]
    scores: np.ndarray  # composite score per retained entity
    order: np.ndarray  # retained entity indexes in rank order
    tie_rank: np.ndarray  # per ranked position: its tie group's first position
    pruned: tuple[str, ...]  # sorted; they rank after every retained entity
    residuals: tuple[float, ...]

    def table(self) -> tuple:
        """The ranking table's columns rank, label, score, tie_rank and
        pruned: the retained entities in rank order, then the pruned ones,
        each with score 0 and the tie rank n + 1 that follows the n retained."""
        n, m = len(self.order), len(self.pruned)
        rank = np.arange(1, n + m + 1)
        labels = [self.labels[i] for i in self.order.tolist()] + list(self.pruned)
        scores = np.concatenate([self.scores[self.order], np.zeros(m)])
        tie_rank = np.concatenate([self.tie_rank, np.full(m, n + 1)])
        return rank, labels, scores, tie_rank, rank > n


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float  # inf-norm of S v - value v on the original matrix
    iterations: int = 0  # always 0; the bench tracer sums it


def rca(counts: PanelMatrix) -> RcaMatrix:
    """Balassa share-of-share ratios for a non-negative count matrix.

    Computed as X * total / (rowsum x colsum), which is exact for integer
    counts.  An all-zero matrix is an error; all-zero rows or columns get
    zero RCA.
    """
    X = np.asarray(counts.counts, dtype=float)
    if X.size == 0 or not (X > 0).any():
        raise ValueError("RCA undefined for an all-zero count matrix")
    if (X < 0).any():
        raise ValueError("counts must be non-negative")
    row_sums = X.sum(axis=1)
    col_sums = X.sum(axis=0)
    total = X.sum()
    denom = row_sums[:, None] * col_sums[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(denom > 0, X * total / denom, 0.0)
    return RcaMatrix(
        window=counts.window,
        kind=counts.kind,
        values=values,
        countries=counts.countries,
        subfields=counts.subfields,
    )


def binarize(rca_matrix: RcaMatrix, r_star: float = 1.0) -> BinaryAdjacency:
    """Threshold RCA at r_star (equality counts as advantage) and prune.

    All-zero rows and columns of the binary matrix are removed; their labels
    are recorded so downstream rankings can append them.
    """
    check_positive_finite("threshold", r_star)
    M = (rca_matrix.values >= r_star).astype(np.int8)
    keep_rows = M.sum(axis=1) > 0
    keep_cols = M.sum(axis=0) > 0
    return BinaryAdjacency(
        window=rca_matrix.window,
        kind=rca_matrix.kind,
        matrix=M[np.ix_(keep_rows, keep_cols)],
        countries=tuple(compress(rca_matrix.countries, keep_rows)),
        subfields=tuple(compress(rca_matrix.subfields, keep_cols)),
        pruned_countries=tuple(compress(rca_matrix.countries, ~keep_rows)),
        pruned_subfields=tuple(compress(rca_matrix.subfields, ~keep_cols)),
    )


def degree_vectors(adjacency: BinaryAdjacency) -> tuple[np.ndarray, np.ndarray]:
    """Country diversification k and degree-adjusted subfield ubiquity k'.

    k_c sums the row of M; k'_s sums M_cs / k_c down each column, so a
    subfield held only by highly diversified countries gets a small weight.
    """
    M = adjacency.matrix.astype(float)
    if M.size == 0:
        raise ValueError("adjacency is empty")
    k = M.sum(axis=1)
    if (k == 0).any() or (M.sum(axis=0) == 0).any():
        raise ValueError("adjacency must be pruned of zero rows/columns")
    k_prime = (M / k[:, None]).sum(axis=0)
    return k, k_prime


def _tie_classes(values: list[float]) -> Iterator[tuple[int, int]]:
    """Contiguous [start, end) classes of tied eigenvalues (descending input), in order."""
    scale = max(1.0, abs(values[0])) if values else 1.0
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[start]) > _TIE_TOL * scale:
            yield start, i
            start = i


def top_eigenpairs_symmetric(matrix: np.ndarray, count: int = 2) -> list[EigenPair]:
    """Algebraically largest eigenpairs, sorted by descending eigenvalue.

    The pairs run through the end of the tie class that holds pair
    ``min(count, n)``, so a degenerate class comes back whole.  Eigenvector
    signs are fixed by making the largest-magnitude component non-negative.
    """
    S = np.asarray(matrix, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"matrix must be square, got {S.shape}")
    # averaging a matrix equal to its transpose bit for bit returns it unless an
    # entry is NaN or overflows when doubled; GENEPY's A A' and A' A skip both
    bits = S.view(np.int64)
    if not (np.array_equal(bits, bits.T) and np.abs(S).max(initial=0.0) <= _HALF_MAX):
        if not np.allclose(S, S.T, atol=1e-9):
            raise ValueError("matrix must be symmetric")
        S = 0.5 * (S + S.T)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    values, vectors = np.linalg.eigh(S)
    values, vectors = values[::-1].tolist(), vectors[:, ::-1]
    cut = min(count, len(values))
    keep = next((end for _, end in _tie_classes(values) if end >= cut), 0)
    pairs = []
    for value, v in zip(values[:keep], vectors.T[:keep]):
        v = -v if v[np.argmax(np.abs(v))] < 0 else v.copy()
        pairs.append(EigenPair(value, v, float(np.max(np.abs(S @ v - value * v)))))
    return pairs


def _composite_scores(pairs: list[EigenPair], count: int) -> np.ndarray:
    """GENEPY composite per entity from eigenpairs, degenerate-safe.

    ``pairs`` end at a tie-class boundary at or past ``count``.  Each class
    contributes its eigenspace-projector diagonal scaled by slots/dimension,
    where slots is how many of the top ``count`` positions the class
    occupies.  Simple eigenvalues reduce to the plain squared components.
    """
    values = [p.value for p in pairs]
    n = len(pairs[0].vector)
    weighted = np.zeros(n)
    squared = np.zeros(n)
    for start, end in _tie_classes(values):
        dim = end - start
        projector_diag = sum(pair.vector**2 for pair in pairs[start:end])
        effective = ((min(count, end) - start) / dim) * projector_diag
        lam = sum(values[start:end]) / dim
        weighted += lam * effective
        squared += lam * lam * effective
    return weighted**2 + 2.0 * squared


def _rank_order(labels: tuple[str, ...], scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank order and per-position tie ranks of scored entities.

    Walking the scores in descending order, a score joins the current tie
    group while it lies within ``_SCORE_TIE_TOL * max(1, |s|)`` of the
    group's first score s; labels ascend within a group, so ulp-level noise
    between mathematically equal scores cannot leak into the order.  Label
    ranks come from a Python sort, since numpy strings drop trailing NULs.
    """
    label_rank = np.argsort(sorted(range(len(labels)), key=labels.__getitem__))
    order = np.lexsort((label_rank, -scores))
    starts = []
    for position, score in enumerate(scores[order].tolist(), start=1):
        if not starts or abs(score - first) > _SCORE_TIE_TOL * max(1.0, abs(first)):
            first, start = score, position
        starts.append(start)
    tie_rank = np.array(starts, dtype=np.int64)
    return order[np.lexsort((label_rank[order], tie_rank))], tie_rank


def _genepy_side(
    side: str, proximity: np.ndarray, labels: tuple[str, ...], pruned: tuple[str, ...], count: int
) -> GenepyResult:
    count = min(count, proximity.shape[0])
    pairs = top_eigenpairs_symmetric(proximity, count)
    scores = _composite_scores(pairs, count)
    order, tie_rank = _rank_order(labels, scores)
    return GenepyResult(
        side=side,
        labels=labels,
        eigenvalues=tuple(p.value for p in pairs[:count]),
        scores=scores,
        order=order,
        tie_rank=tie_rank,
        pruned=tuple(sorted(pruned)),
        residuals=tuple(p.residual for p in pairs[:count]),
    )


def genepy_scores(
    adjacency: BinaryAdjacency, count: int = 2
) -> tuple[GenepyResult, GenepyResult]:
    """GENEPY composite scores and rankings for countries and subfields.

    Builds A = M / (k k'), forms the zero-diagonal proximity matrices
    U = A A' and V = A' A, solves for the ``count`` leading eigenpairs of
    each, and ranks entities by composite score (ties by label).  Pruned
    entities are appended with a shared trailing rank.
    """
    k, k_prime = degree_vectors(adjacency)
    A = adjacency.matrix.astype(float) / (k[:, None] * k_prime[None, :])
    U, V = A @ A.T, A.T @ A
    np.fill_diagonal(U, 0.0)
    np.fill_diagonal(V, 0.0)
    subfields = tuple(map(str, adjacency.subfields))
    pruned_subfields = tuple(map(str, adjacency.pruned_subfields))
    return (
        _genepy_side("countries", U, adjacency.countries, adjacency.pruned_countries, count),
        _genepy_side("subfields", V, subfields, pruned_subfields, count),
    )

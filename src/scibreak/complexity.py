"""Bipartite complexity ranking of countries and subfields.

A country x subfield count matrix is turned into revealed-comparative-
advantage shares (Balassa), thresholded into a binary bipartite adjacency,
and scored with the GENEPY multi-component eigenvector framework: the binary
matrix is degree-normalized into A, the zero-diagonal proximity matrices
U = A A' (countries) and V = A' A (subfields) are formed, and each entity's
composite score combines the leading eigenpairs of its proximity matrix as

    score = (sum_i lambda_i x_i^2)^2 + 2 sum_i lambda_i^2 x_i^2.

When the eigenvalue at the cut is degenerate, the squared components are
averaged isotropically over the whole eigenspace, which keeps scores
basis-independent (and, in particular, ties all countries on a complete
bipartite input).  For simple spectra this reduces exactly to the formula
above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenPair, top_eigenpairs_symmetric
from .impact import BreakthroughClass
from .panel import PanelMatrix

_TIE_TOL = 1e-8
_SCORE_TIE_TOL = 1e-9


@dataclass(frozen=True)
class RcaMatrix:
    """Revealed comparative advantage per country/subfield cell.

    Rows or columns of the source counts that sum to zero yield all-zero RCA
    entries and are listed in the degenerate label tuples.
    """

    window: tuple[int, int]
    kind: BreakthroughClass
    values: np.ndarray
    countries: tuple[str, ...]
    subfields: tuple[int, ...]
    zero_rows: tuple[str, ...] = ()
    zero_cols: tuple[int, ...] = ()


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
class RankedEntity:
    label: str
    rank: int  # positional, 1 = best, ties broken by label
    tie_rank: int  # shared min position among equal scores
    score: float
    pruned: bool


@dataclass(frozen=True)
class GenepyResult:
    """Eigen decomposition summary and composite ranking for one side."""

    side: str  # "countries" | "subfields"
    labels: tuple[str, ...]  # retained entities, matrix order
    eigenvalues: tuple[float, ...]
    vectors: np.ndarray  # (n_retained, n_reported) eigenvector columns
    scores: np.ndarray  # composite score per retained entity
    ranking: tuple[RankedEntity, ...]  # retained sorted, then pruned
    pruned: tuple[str, ...]
    residuals: tuple[float, ...]


def rca(counts: PanelMatrix) -> RcaMatrix:
    """Balassa share-of-share ratios for a non-negative count matrix.

    Computed as X * total / (rowsum x colsum), which is exact for integer
    counts.  An all-zero matrix is an error; all-zero rows or columns get
    zero RCA and are flagged.
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
    zero_rows = tuple(
        counts.countries[i] for i in np.nonzero(row_sums == 0)[0]
    )
    zero_cols = tuple(
        counts.subfields[j] for j in np.nonzero(col_sums == 0)[0]
    )
    return RcaMatrix(
        window=counts.window,
        kind=counts.kind,
        values=values,
        countries=counts.countries,
        subfields=counts.subfields,
        zero_rows=zero_rows,
        zero_cols=zero_cols,
    )


def binarize(rca_matrix: RcaMatrix, r_star: float = 1.0) -> BinaryAdjacency:
    """Threshold RCA at r_star (equality counts as advantage) and prune.

    All-zero rows and columns of the binary matrix are removed; their labels
    are recorded so downstream rankings can append them.
    """
    if r_star <= 0:
        raise ValueError(f"threshold must be positive, got {r_star}")
    M = (rca_matrix.values >= r_star).astype(np.int8)
    keep_rows = M.sum(axis=1) > 0
    keep_cols = M.sum(axis=0) > 0
    pruned_rows = tuple(
        c for c, keep in zip(rca_matrix.countries, keep_rows) if not keep
    )
    pruned_cols = tuple(
        s for s, keep in zip(rca_matrix.subfields, keep_cols) if not keep
    )
    return BinaryAdjacency(
        window=rca_matrix.window,
        kind=rca_matrix.kind,
        matrix=M[np.ix_(keep_rows, keep_cols)],
        countries=tuple(
            c for c, keep in zip(rca_matrix.countries, keep_rows) if keep
        ),
        subfields=tuple(
            s for s, keep in zip(rca_matrix.subfields, keep_cols) if keep
        ),
        pruned_countries=pruned_rows,
        pruned_subfields=pruned_cols,
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


def _class_slices(values: list[float], tie_tol: float) -> list[tuple[int, int]]:
    """Contiguous [start, end) runs of tied eigenvalues (descending input)."""
    runs = []
    scale = max(1.0, abs(values[0])) if values else 1.0
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[start]) > tie_tol * scale:
            runs.append((start, i))
            start = i
    return runs


def _composite_scores(
    pairs: list[EigenPair], count: int, n: int, tie_tol: float
) -> np.ndarray:
    """GENEPY composite per entity from eigenpairs, degenerate-safe.

    Each eigenvalue class contributes its eigenspace-projector diagonal
    scaled by slots/dimension, where slots is how many of the top ``count``
    positions the class occupies.  Simple eigenvalues reduce to the plain
    squared components.
    """
    values = [p.value for p in pairs]
    weighted = np.zeros(n)
    squared = np.zeros(n)
    remaining = count
    for start, end in _class_slices(values, tie_tol):
        if remaining <= 0:
            break
        dim = end - start
        slots = min(remaining, dim)
        remaining -= slots
        projector_diag = np.zeros(n)
        for pair in pairs[start:end]:
            projector_diag += pair.vector**2
        effective = (slots / dim) * projector_diag
        lam = sum(values[start:end]) / dim
        weighted += lam * effective
        squared += lam * lam * effective
    return weighted**2 + 2.0 * squared


def _build_ranking(
    labels: tuple[str, ...],
    scores: np.ndarray,
    pruned: tuple[str, ...],
) -> tuple[RankedEntity, ...]:
    order = sorted(range(len(labels)), key=lambda i: (-scores[i], labels[i]))
    # group scores tied within tolerance, then order each group by label so
    # ulp-level noise between mathematically equal scores cannot leak into
    # the published order
    groups: list[list[int]] = []
    for idx in order:
        if groups and abs(scores[idx] - scores[groups[-1][0]]) <= (
            _SCORE_TIE_TOL * max(1.0, abs(scores[groups[-1][0]]))
        ):
            groups[-1].append(idx)
        else:
            groups.append([idx])
    entities: list[RankedEntity] = []
    position = 1
    for group in groups:
        group.sort(key=lambda i: labels[i])
        tie_rank = position
        for idx in group:
            entities.append(
                RankedEntity(
                    label=labels[idx],
                    rank=position,
                    tie_rank=tie_rank,
                    score=float(scores[idx]),
                    pruned=False,
                )
            )
            position += 1
    # pruned entities follow positionally but share the worst tied rank
    trailing = len(labels) + 1
    for offset, label in enumerate(sorted(pruned)):
        entities.append(
            RankedEntity(
                label=label,
                rank=trailing + offset,
                tie_rank=trailing,
                score=0.0,
                pruned=True,
            )
        )
    return tuple(entities)


def _genepy_side(
    side: str,
    proximity: np.ndarray,
    labels: tuple[str, ...],
    pruned: tuple[str, ...],
    count: int,
) -> GenepyResult:
    n = proximity.shape[0]
    pairs = top_eigenpairs_symmetric(proximity, count, tie_tol=_TIE_TOL)
    scores = _composite_scores(pairs, min(count, n), n, _TIE_TOL)
    reported = pairs[: min(count, n)]
    vectors = np.column_stack([p.vector for p in reported])
    return GenepyResult(
        side=side,
        labels=labels,
        eigenvalues=tuple(p.value for p in reported),
        vectors=vectors,
        scores=scores,
        ranking=_build_ranking(labels, scores, pruned),
        pruned=tuple(sorted(pruned)),
        residuals=tuple(p.residual for p in reported),
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
    U = A @ A.T
    V = A.T @ A
    np.fill_diagonal(U, 0.0)
    np.fill_diagonal(V, 0.0)
    countries = _genepy_side(
        "countries",
        U,
        adjacency.countries,
        adjacency.pruned_countries,
        count,
    )
    subfields = _genepy_side(
        "subfields",
        V,
        tuple(str(s) for s in adjacency.subfields),
        tuple(str(s) for s in adjacency.pruned_subfields),
        count,
    )
    return countries, subfields


def rank_table(result: GenepyResult) -> list[dict[str, object]]:
    """Ranking rows ready for serialization, best first, pruned trailing."""
    return [
        {
            "rank": e.rank,
            "label": e.label,
            "score": e.score,
            "tie_rank": e.tie_rank,
            "pruned": e.pruned,
        }
        for e in result.ranking
    ]

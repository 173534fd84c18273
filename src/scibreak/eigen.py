"""Leading eigenpairs of small dense symmetric matrices.

One dense symmetric eigendecomposition (``numpy.linalg.eigh``) of the whole
spectrum, reordered by descending eigenvalue.  Eigenvector signs are fixed by
making the largest-magnitude component non-negative, so results are
reproducible run to run.

Degenerate spectra are supported: with ``tie_tol`` set, the returned pairs
extend past the requested count while further eigenvalues tie the one at the
cut, so an eigenvalue class is never returned partially.  Callers can then
form basis-independent quantities over the whole eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float  # inf-norm of S v - value v on the original matrix
    iterations: int = 0  # always 0; the bench tracer sums it


def _fix_sign(v: np.ndarray) -> np.ndarray:
    lead = int(np.argmax(np.abs(v)))
    return -v if v[lead] < 0 else v


def _residual(S: np.ndarray, value: float, v: np.ndarray) -> float:
    return float(np.max(np.abs(S @ v - value * v)))


def top_eigenpairs_symmetric(
    matrix: np.ndarray,
    count: int = 2,
    *,
    tie_tol: float | None = None,
) -> list[EigenPair]:
    """Algebraically largest eigenpairs, sorted by descending eigenvalue.

    At most ``min(count, n)`` pairs are returned.  With ``tie_tol`` set, the
    pairs continue while further eigenvalues lie within
    ``tie_tol * max(1, |lambda_1|)`` of the value at the cut, so degenerate
    classes come back whole.  Eigenvector signs are fixed by making the
    largest-magnitude component non-negative.
    """
    S = np.asarray(matrix, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"matrix must be square, got {S.shape}")
    if not np.allclose(S, S.T, atol=1e-9):
        raise ValueError("matrix must be symmetric")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    S = 0.5 * (S + S.T)
    values, vectors = np.linalg.eigh(S)
    values, vectors = values[::-1], vectors[:, ::-1]
    keep = min(count, len(values))
    if tie_tol is not None:
        cut = values[keep - 1] - tie_tol * max(1.0, abs(values[0]))
        keep = int(np.count_nonzero(values >= cut))
    pairs = []
    for value, v in zip(values[:keep].tolist(), vectors.T[:keep]):
        v = _fix_sign(v.copy())
        pairs.append(EigenPair(value, v, _residual(S, value, v)))
    return pairs

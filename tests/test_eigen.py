"""Top-eigenpair selection against the dense LAPACK oracle."""

import numpy as np
import pytest

from scibreak.eigen import top_eigenpairs_symmetric


def _random_proximity(rng, n_rows, n_cols):
    """Zero-diagonal U = A A' for a random pruned binary matrix."""
    while True:
        M = (rng.random((n_rows, n_cols)) < 0.45).astype(float)
        if (M.sum(axis=1) > 0).all() and (M.sum(axis=0) > 0).all():
            break
    k = M.sum(axis=1)
    k_prime = (M / k[:, None]).sum(axis=0)
    A = M / (k[:, None] * k_prime[None, :])
    U = A @ A.T
    np.fill_diagonal(U, 0.0)
    return U


class TestAgainstDenseOracle:
    def test_random_proximity_matrices(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(2, 25))
            U = _random_proximity(rng, n, m)
            pairs = top_eigenpairs_symmetric(U, 2)
            expected = np.linalg.eigvalsh(U)[::-1]
            for pair, want in zip(pairs, expected):
                assert pair.value == pytest.approx(want, abs=1e-9)
                assert pair.residual <= 1e-9

    def test_random_dense_symmetric(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            pairs = top_eigenpairs_symmetric(S, 2)
            expected = np.linalg.eigvalsh(S)[::-1]
            for pair, want in zip(pairs, expected):
                assert pair.value == pytest.approx(want, abs=1e-9)
                assert pair.residual <= 1e-9

    def test_close_but_distinct_leading_values(self):
        # diagonalizable case with a 1e-6 gap: both values must come back
        rng = np.random.default_rng(53)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        values = np.array([2.0, 2.0 - 1e-6, 1.0, 0.3, -0.5, -1.2])
        S = q @ np.diag(values) @ q.T
        S = 0.5 * (S + S.T)
        pairs = top_eigenpairs_symmetric(S, 2)
        assert pairs[0].value == pytest.approx(2.0, abs=1e-9)
        assert pairs[1].value == pytest.approx(2.0 - 1e-6, abs=1e-9)


class TestStructuredSpectra:
    def test_exact_degeneracy_tie_extension(self):
        # complete-bipartite proximity: second eigenvalue has multiplicity n-1
        n = 5
        U = np.full((n, n), 0.12)
        np.fill_diagonal(U, 0.0)
        pairs = top_eigenpairs_symmetric(U, 2, tie_tol=1e-8)
        assert len(pairs) == n  # the whole tied class is returned
        assert pairs[0].value == pytest.approx(0.12 * (n - 1), abs=1e-12)
        for pair in pairs[1:]:
            assert pair.value == pytest.approx(-0.12, abs=1e-10)

    def test_without_tie_tol_returns_requested_count(self):
        U = np.full((4, 4), 0.5)
        np.fill_diagonal(U, 0.0)
        assert len(top_eigenpairs_symmetric(U, 2)) == 2

    def test_one_by_one(self):
        pairs = top_eigenpairs_symmetric(np.array([[0.0]]), 2)
        assert len(pairs) == 1
        assert pairs[0].value == 0.0
        assert abs(pairs[0].vector[0]) == 1.0

    def test_zero_matrix(self):
        pairs = top_eigenpairs_symmetric(np.zeros((3, 3)), 2)
        assert [p.value for p in pairs] == [0.0, 0.0]

    def test_sign_convention(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            S = rng.standard_normal((8, 8))
            S = 0.5 * (S + S.T)
            for pair in top_eigenpairs_symmetric(S, 2):
                lead = int(np.argmax(np.abs(pair.vector)))
                assert pair.vector[lead] >= 0

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(55)
        S = rng.standard_normal((10, 10))
        S = 0.5 * (S + S.T)
        pairs = top_eigenpairs_symmetric(S, 3)
        V = np.column_stack([p.vector for p in pairs])
        assert np.allclose(V.T @ V, np.eye(3), atol=1e-9)


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            top_eigenpairs_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]), 1)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            top_eigenpairs_symmetric(np.zeros((2, 3)), 1)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            top_eigenpairs_symmetric(np.zeros((2, 2)), 0)

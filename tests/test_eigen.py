"""Top-eigenpair selection against the dense LAPACK oracle."""

import numpy as np
import pytest

from scibreak.complexity import top_eigenpairs_symmetric


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


def _bits(pairs):
    """Each pair's value, residual and vector as bytes, so -0.0 and 0.0 differ."""
    return [np.array([p.value, p.residual, *p.vector]).tobytes() for p in pairs]


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
        pairs = top_eigenpairs_symmetric(U, 2)
        assert len(pairs) == n  # the whole tied class is returned
        assert pairs[0].value == pytest.approx(0.12 * (n - 1), abs=1e-12)
        for pair in pairs[1:]:
            assert pair.value == pytest.approx(-0.12, abs=1e-10)

    def test_near_tie_chain_cut_at_the_class_of_the_last_pair(self):
        # each value is 0.6e-8 below the last: 1 - 1.2e-8 is out of tie
        # range of the class's first value, so the class holding pair 2
        # is [0, 2), and a count of 3 also takes the class [2, 3)
        rng = np.random.default_rng(56)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        values = np.array([1.0, 1.0 - 0.6e-8, 1.0 - 1.2e-8, 0.5, 0.2, -0.3])
        S = q @ np.diag(values) @ q.T
        S = 0.5 * (S + S.T)
        assert len(top_eigenpairs_symmetric(S, 1)) == 2
        pairs = top_eigenpairs_symmetric(S, 2)
        assert len(pairs) == 2
        assert [p.value for p in pairs] == pytest.approx(values[:2], abs=1e-12)
        assert len(top_eigenpairs_symmetric(S, 3)) == 3

    def test_one_by_one(self):
        pairs = top_eigenpairs_symmetric(np.array([[0.0]]), 2)
        assert len(pairs) == 1
        assert pairs[0].value == 0.0
        assert abs(pairs[0].vector[0]) == 1.0

    def test_zero_matrix(self):
        # one three-fold class: it comes back whole
        pairs = top_eigenpairs_symmetric(np.zeros((3, 3)), 2)
        assert [p.value for p in pairs] == [0.0, 0.0, 0.0]

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

    def test_near_symmetric_accepted_and_averaged(self):
        # 1e-12 apart is inside the tolerance; eigh reads the lower triangle,
        # so the pairs show whether the matrix was averaged first
        S = np.array([[0.0, 1.0, 0.5], [1.0 + 1e-12, 0.0, 0.25], [0.5, 0.25, 0.0]])
        averaged = top_eigenpairs_symmetric(0.5 * (S + S.T), 2)
        assert _bits(top_eigenpairs_symmetric(S, 2)) == _bits(averaged)
        assert _bits(averaged) != _bits(top_eigenpairs_symmetric(np.tril(S) + np.tril(S, -1).T, 2))

    def test_nan_rejected(self):
        for S in ([[np.nan, 1.0], [1.0, 0.0]], [[0.0, np.nan], [np.nan, 0.0]]):
            with pytest.raises(ValueError, match="symmetric"):
                top_eigenpairs_symmetric(np.array(S), 1)

    def test_zeros_of_opposite_sign_averaged(self):
        # S[1, 0] is -0.0 and S[0, 1] is 0.0: equal values, unequal bits.  In
        # the lower triangle that eigh reads, the -0.0 flips the sign of the
        # second eigenvector, and -0.0 components then survive the sign rule
        S = np.array([[-0.135, 0.0, -1.23], [-0.0, -0.57, 0.0], [-1.23, 0.0, 0.36]])
        averaged = top_eigenpairs_symmetric(0.5 * (S + S.T), 2)
        assert _bits(top_eigenpairs_symmetric(S, 2)) == _bits(averaged)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            top_eigenpairs_symmetric(np.zeros((2, 3)), 1)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            top_eigenpairs_symmetric(np.zeros((2, 2)), 0)

"""RCA filtering and GENEPY complexity scores against dense-solver oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scibreak.complexity import (
    BinaryAdjacency,
    binarize,
    degree_vectors,
    genepy_scores,
    rca,
)
from scibreak.impact import BreakthroughClass
from scibreak.panel import PanelMatrix

from conftest import ranking_rows, scored
from oracles import brute_ranking, dense_genepy, share_ratio_rca

KIND = BreakthroughClass.DISRUPTIVE


def make_panel(array, countries=None, subfields=None):
    array = np.asarray(array, dtype=np.int64)
    countries = countries or tuple(f"C{i:02d}" for i in range(array.shape[0]))
    subfields = subfields or tuple(range(100, 100 + array.shape[1]))
    return PanelMatrix(
        window=(2000, 2009),
        kind=KIND,
        counts=array,
        countries=tuple(countries),
        subfields=tuple(subfields),
    )


def make_adjacency(array, countries=None, subfields=None, pruned=()):
    array = np.asarray(array, dtype=np.int8)
    countries = countries or tuple(f"C{i:02d}" for i in range(array.shape[0]))
    subfields = subfields or tuple(range(100, 100 + array.shape[1]))
    return BinaryAdjacency(
        window=(2000, 2009),
        kind=KIND,
        matrix=array,
        countries=tuple(countries),
        subfields=tuple(subfields),
        pruned_countries=tuple(pruned),
    )


class TestRca:
    def test_two_by_two_fixture(self):
        result = rca(make_panel([[4, 1], [1, 4]]))
        assert np.allclose(result.values, [[1.6, 0.4], [0.4, 1.6]], atol=1e-15)

    def test_uniform_matrix_is_all_ones(self):
        result = rca(make_panel(np.full((4, 5), 3)))
        assert (result.values == 1.0).all()

    def test_zero_row_flagged(self):
        result = rca(make_panel([[2, 3], [0, 0]]))
        assert (result.values[1] == 0.0).all()
        assert binarize(result).pruned_countries == ("C01",)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            rca(make_panel(np.zeros((2, 2), dtype=np.int64)))

    def test_matches_share_ratio_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            X = rng.integers(0, 20, size=(rng.integers(2, 10), rng.integers(2, 10)))
            if not (X > 0).any():
                continue
            mine = rca(make_panel(X)).values
            assert np.allclose(mine, share_ratio_rca(X), rtol=1e-12, atol=1e-12)

    def test_weighted_mean_identity(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            X = rng.integers(0, 15, size=(6, 7)).astype(float)
            if not (X > 0).any():
                continue
            values = rca(make_panel(X.astype(np.int64))).values
            shares = X.sum(axis=1) / X.sum()
            for s in range(X.shape[1]):
                if X[:, s].sum() > 0:
                    assert abs(float(shares @ values[:, s]) - 1.0) <= 1e-12

    def test_scalar_scaling_invariance(self):
        rng = np.random.default_rng(63)
        X = rng.integers(1, 30, size=(8, 6))
        base = rca(make_panel(X)).values
        for factor in (2.0, 0.5, 3.0, 7.5):
            scaled = np.asarray(X * factor)
            panel = PanelMatrix(
                (2000, 2009), KIND, scaled, tuple(f"C{i:02d}" for i in range(8)),
                tuple(range(100, 106)),
            )
            assert np.allclose(rca(panel).values, base, rtol=1e-12)


class TestBinarize:
    def test_threshold_with_equality(self):
        result = rca(make_panel([[4, 1], [1, 4]]))
        adjacency = binarize(result, 1.0)
        assert adjacency.matrix.tolist() == [[1, 0], [0, 1]]
        uniform = binarize(rca(make_panel(np.full((3, 3), 2))), 1.0)
        assert (uniform.matrix == 1).all()  # RCA exactly 1.0 stays in

    def test_pruning_records_labels(self):
        # at threshold 2 only the concentrated C00 row survives, emptying
        # both the C01 row and the second column
        values = rca(make_panel([[1, 0], [0, 5]]))
        adjacency = binarize(values, 2.0)
        assert adjacency.matrix.tolist() == [[1]]
        assert adjacency.pruned_countries == ("C01",)
        assert adjacency.pruned_subfields == (101,)
        assert adjacency.countries == ("C00",)

    def test_nonzero_rows_always_survive_default_threshold(self):
        # a row's RCA deviations from 1 sum to zero under the column-share
        # weights, so some entry is always >= 1: only zero rows prune at R*=1
        rng = np.random.default_rng(67)
        for _ in range(20):
            X = rng.integers(0, 9, size=(5, 6))
            X[X.sum(axis=1) == 0, 0] = 1
            X[0, X.sum(axis=0) == 0] = 1
            adjacency = binarize(rca(make_panel(X)), 1.0)
            assert adjacency.pruned_countries == ()

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            binarize(rca(make_panel([[1, 2], [3, 4]])), 0.0)


class TestDegreeVectors:
    def test_two_by_two_fixture(self):
        k, k_prime = degree_vectors(make_adjacency([[1, 1], [1, 0]]))
        assert k.tolist() == [2.0, 1.0]
        assert k_prime.tolist() == [1.5, 0.5]

    def test_complete_bipartite(self):
        k, k_prime = degree_vectors(make_adjacency(np.ones((4, 6))))
        assert (k == 6).all()
        assert np.allclose(k_prime, 4 / 6)

    def test_single_entry(self):
        k, k_prime = degree_vectors(make_adjacency([[1]]))
        assert k.tolist() == [1.0]
        assert k_prime.tolist() == [1.0]

    def test_unpruned_rejected(self):
        with pytest.raises(ValueError):
            degree_vectors(make_adjacency([[1, 0], [1, 0]]))


class TestGenepy:
    def test_three_by_three_fixture_matches_oracle(self):
        # circulant fixture: eigenvalues are (0.5, -0.25, -0.25); the tied
        # pair makes per-vector scores basis-dependent, so score equality
        # across the symmetric entities is the meaningful check
        M = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        countries, subfields = genepy_scores(make_adjacency(M))
        (vals_u, _), (vals_v, _) = dense_genepy(M)
        assert np.allclose(countries.eigenvalues, vals_u, atol=1e-9)
        assert np.allclose(subfields.eigenvalues, vals_v, atol=1e-9)
        assert max(countries.residuals) <= 1e-9
        assert max(subfields.residuals) <= 1e-9
        assert np.allclose(countries.scores, countries.scores[0], rtol=1e-9)
        assert all(e.tie_rank == 1 for e in ranking_rows(countries))

    def test_random_matrices_match_oracle(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(2, 12))
            M = (rng.random((n, m)) < 0.5).astype(np.int8)
            if (M.sum(axis=1) == 0).any() or (M.sum(axis=0) == 0).any():
                continue
            countries, subfields = genepy_scores(make_adjacency(M))
            (vals_u, scores_u), (vals_v, scores_v) = dense_genepy(M)
            assert np.allclose(countries.eigenvalues, vals_u, atol=1e-9)
            assert np.allclose(subfields.eigenvalues, vals_v, atol=1e-9)
            # oracle scores use a fixed eigenbasis: compare only on clearly
            # simple spectra where the formula is basis-independent
            if abs(vals_u[0] - vals_u[1]) > 1e-6:
                assert np.allclose(countries.scores, scores_u, atol=1e-8)
            if abs(vals_v[0] - vals_v[1]) > 1e-6:
                assert np.allclose(subfields.scores, scores_v, atol=1e-8)

    def test_complete_bipartite_all_tied(self):
        # labels out of matrix order, so the label order within the tie shows
        labels = ("C03", "C00", "C04", "C01", "C02")
        countries, _ = genepy_scores(make_adjacency(np.ones((5, 3)), countries=labels))
        assert np.allclose(countries.scores, countries.scores[0], rtol=1e-9)
        assert all(e.tie_rank == 1 for e in ranking_rows(countries))
        assert [e.label for e in ranking_rows(countries)] == sorted(countries.labels)

    def test_superset_country_scores_higher(self):
        # rows 0 and 1 nest; every column keeps equal degree-adjusted weight
        M = np.array(
            [
                [1, 1, 1, 1],
                [1, 1, 0, 0],
                [0, 0, 1, 1],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
            ]
        )
        k, k_prime = degree_vectors(make_adjacency(M))
        assert np.allclose(k_prime, k_prime[0])
        countries, _ = genepy_scores(make_adjacency(M))
        assert countries.scores[0] > countries.scores[1] + 1e-12
        (_, oracle_scores), _ = dense_genepy(M)
        assert oracle_scores[0] > oracle_scores[1] + 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(65)
        M = (rng.random((7, 5)) < 0.55).astype(np.int8)
        M[M.sum(axis=1) == 0, 0] = 1
        if (M.sum(axis=0) == 0).any():
            M[0, M.sum(axis=0) == 0] = 1
        labels = tuple(f"C{i:02d}" for i in range(7))
        base_c, base_s = genepy_scores(make_adjacency(M, countries=labels))
        perm = rng.permutation(7)
        permuted_c, permuted_s = genepy_scores(
            make_adjacency(M[perm], countries=tuple(labels[i] for i in perm))
        )
        base_rank = {e.label: e.rank for e in ranking_rows(base_c)}
        perm_rank = {e.label: e.rank for e in ranking_rows(permuted_c)}
        assert base_rank == perm_rank
        assert np.allclose(sorted(base_s.scores), sorted(permuted_s.scores))

    def test_nested_levels_rank_by_diversification(self):
        # duplicated diversification levels keep the spectrum tame; the
        # dense oracle confirms the nested ordering on this fixture
        M = np.array(
            [
                [1, 1, 1],
                [1, 1, 1],
                [1, 1, 0],
                [1, 1, 0],
                [1, 0, 0],
                [1, 0, 0],
            ],
            dtype=np.int8,
        )
        countries, _ = genepy_scores(make_adjacency(M))
        (_, oracle_scores), _ = dense_genepy(M)
        assert np.allclose(countries.scores, oracle_scores, atol=1e-9)
        by_label = {e.label: e.rank for e in ranking_rows(countries)}
        assert max(by_label["C00"], by_label["C01"]) < min(
            by_label["C02"], by_label["C03"]
        )
        assert max(by_label["C02"], by_label["C03"]) < min(
            by_label["C04"], by_label["C05"]
        )

    def test_scaling_invariance_through_whole_chain(self):
        rng = np.random.default_rng(66)
        X = rng.integers(1, 25, size=(6, 5))
        def chain(counts):
            adjacency = binarize(rca(make_panel(counts)), 1.0)
            countries, subfields = genepy_scores(adjacency)
            return adjacency.matrix, countries.scores, subfields.scores
        m1, c1, s1 = chain(X)
        m2, c2, s2 = chain(np.asarray(X, dtype=np.int64) * 3)
        assert (m1 == m2).all()
        assert np.allclose(c1, c2, rtol=1e-9)
        assert np.allclose(s1, s2, rtol=1e-9)

    def test_narrow_gap_panel_matches_dense_eigenvalues(self):
        # a paper-sized 200 x 252 panel (the last of 14 Zipf-weighted decadal
        # draws) whose country-side lambda2 and lambda3 differ by under 4%:
        # a deflated power iteration returned lambda3 as lambda2 here
        rng = np.random.default_rng([1, 4])
        subfields = rng.choice(np.arange(1100, 3700), size=252, replace=False)
        row_w = 1.0 / (1 + rng.permutation(200)) ** 1.1
        col_w = 1.0 / (1 + rng.permutation(252)) ** 0.8
        base = np.outer(row_w / row_w.sum(), col_w / col_w.sum())
        for d in range(7):
            for scale in (2.0, 1.0):
                counts = rng.poisson(300.0 * scale * 1.8**d * base)
        adjacency = binarize(
            rca(make_panel(counts, subfields=tuple(sorted(subfields.tolist()))))
        )
        countries, subfields = genepy_scores(adjacency)
        k, k_prime = degree_vectors(adjacency)
        A = adjacency.matrix / (k[:, None] * k_prime[None, :])
        for result, S in ((countries, A @ A.T), (subfields, A.T @ A)):
            np.fill_diagonal(S, 0.0)
            expected = np.linalg.eigvalsh(S)[::-1][: len(result.eigenvalues)]
            assert np.allclose(result.eigenvalues, expected, rtol=0, atol=1e-9)

    def test_pruned_entities_appended_with_trailing_tie(self):
        countries, _ = genepy_scores(
            make_adjacency([[1, 1], [1, 0]], pruned=("ZZ", "XX"))
        )
        tail = ranking_rows(countries)[-2:]
        assert [e.label for e in tail] == ["XX", "ZZ"]
        assert all(e.pruned for e in tail)
        assert all(e.tie_rank == 3 for e in tail)
        assert [e.rank for e in tail] == [3, 4]


class TestRankTable:
    def test_sorting(self):
        adjacency = make_adjacency(np.eye(3, dtype=np.int8))
        countries, _ = genepy_scores(adjacency)
        rows = ranking_rows(countries)
        assert [row.rank for row in rows] == [1, 2, 3]
        scores = [row.score for row in rows]
        assert scores == sorted(scores, reverse=True)

    def test_rows_carry_tie_and_pruned_flags(self):
        countries, _ = genepy_scores(
            make_adjacency(np.ones((3, 2)), pruned=("QQ",))
        )
        rows = ranking_rows(countries)
        assert rows[-1].pruned is True
        assert rows[-1].rank == 4
        assert {row.tie_rank for row in rows[:-1]} == {1}

    def test_score_ties_measured_from_the_first_member_of_a_class(self):
        # b is within 1e-9 of c and a within 1e-9 of b, but a is 1.2e-9
        # below c: a chain measured from each class's last member ties all three
        scores = np.array([1.0, 1.0 - 0.6e-9, 1.0 - 1.2e-9])
        rows = ranking_rows(scored(("c", "b", "a"), scores))
        assert [(e.label, e.rank, e.tie_rank) for e in rows] == [
            ("b", 1, 1), ("c", 2, 1), ("a", 3, 3)
        ]


# bases where max(1, |s|) switches, signed zeros, and steps below the 1e-9
# tolerance that chain past it within a few multiples
_BASES = (0.0, -0.0, 1.0, -1.0, 1.0 - 7e-10, 1.0 + 7e-10, 1.5, 2.0, 0.25, -3.0, 1e4)
_STEPS = (0.0, 3e-10, 6e-10, 9e-10, 1.1e-9, 2.5e-9, 1e-6)
# shared prefixes, a NUL, and characters beyond ASCII and the BMP
_LABEL_TEXT = st.text(
    st.sampled_from(["A", "a", "b", "\x00", "é", "ß", "中", "\U0001f600"]), max_size=4
)


@st.composite
def near_tied_ranking(draw):
    """(labels, scores, pruned): scores drawn as base + k * step, so they
    hold exact duplicates, -0.0 beside 0.0, and chains of near ties."""
    n = draw(st.integers(1, 14))
    step = draw(st.sampled_from(_STEPS))
    scores = []
    for _ in range(n):
        base, k = draw(st.sampled_from(_BASES)), draw(st.integers(0, 5))
        scores.append(base + k * step if k else base)
    names = draw(st.lists(_LABEL_TEXT, min_size=n, max_size=n + 3, unique=True))
    return names[:n], scores, names[n:]


class TestRankingOracle:
    @settings(max_examples=400, deadline=None)
    @given(near_tied_ranking())
    def test_matches_brute_ranking(self, drawn):
        labels, scores, pruned = drawn
        rows = ranking_rows(scored(labels, scores, pruned))
        assert _exact(rows) == _exact(brute_ranking(labels, scores, pruned))


def _exact(rows):
    """Ranking rows with each score as its hex text, which keeps the sign
    of a zero that == ignores."""
    return [(*row[:3], float.hex(row[3]), row[4]) for row in rows]

"""NBNC and CD metrics against hand-derived fixtures and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scibreak.corpus import UnknownWorkError
from scibreak.impact import BreakthroughClass, cd_all, nbnc_all

from conftest import (
    build,
    cd_row,
    make_records,
    nbnc_row,
    random_citation_records,
    table_row,
)
from oracles import brute_cd, naive_nbnc


class TestNbncFixtures:
    def test_six_work_fixture(self, six_work_corpus):
        score = nbnc_row(six_work_corpus, "f", 10)
        # hand evaluation: offset 1 gives 1*1/2, offset 2 gives 1*1/1
        assert score.terms[1] == 0.5
        assert score.terms[2] == 1.0
        assert score.value == 1.5

    def test_uncited_work_scores_zero(self):
        corpus = build(make_records([("f", 2000, []), ("x", 2001, [])]))
        score = nbnc_row(corpus, "f", 10)
        assert score.value == 0.0
        assert all(t == 0.0 for t in score.terms)

    def test_symmetric_fixture_gives_one_per_cited_year(self):
        # f and g published together, always cited jointly: every co-cited
        # work's yearly citations equal the focal's, so each term is 1
        corpus = build(
            make_records(
                [
                    ("f", 2000, []),
                    ("g", 2000, []),
                    ("c1", 2001, ["f", "g"]),
                    ("c2", 2001, ["f", "g"]),
                    ("c3", 2003, ["f", "g"]),
                ]
            )
        )
        score = nbnc_row(corpus, "f", 5)
        assert score.terms[1] == 1.0
        assert score.terms[3] == 1.0
        assert score.value == 2.0

    def test_truncated_horizon_flag(self, six_work_corpus):
        assert nbnc_row(six_work_corpus, "f", 10).truncated
        assert not nbnc_row(six_work_corpus, "f", 2).truncated

    def test_unknown_work(self, six_work_corpus):
        with pytest.raises(UnknownWorkError):
            nbnc_row(six_work_corpus, "missing", 10)

    def test_gamma_convention_toggle(self):
        # co-cited works published in a different year than the focal make
        # the two denominator conventions diverge
        corpus = build(
            make_records(
                [
                    ("f", 2000, []),
                    ("j", 1995, []),
                    ("p", 2001, ["f", "j"]),
                    ("q", 1996, ["j"]),
                ]
            )
        )
        own_age = nbnc_row(corpus, "f", 3, gamma_convention="own_age")
        calendar = nbnc_row(corpus, "f", 3, gamma_convention="focal_calendar")
        # own age: gamma_1(j) counts q (1996 = 1995+1) and p (2001? no, 2001-1995=6)
        assert own_age.terms[1] == 1.0 * 1 / 1
        # focal calendar: j's citations in 2001 -> p only
        assert calendar.terms[1] == 1.0 * 1 / 1
        corpus2 = build(
            make_records(
                [
                    ("f", 2000, []),
                    ("j", 1995, []),
                    ("p", 2001, ["f", "j"]),
                    ("q", 1996, ["j"]),
                    ("r", 2001, ["j"]),
                ]
            )
        )
        own2 = nbnc_row(corpus2, "f", 3, gamma_convention="own_age")
        cal2 = nbnc_row(corpus2, "f", 3, gamma_convention="focal_calendar")
        assert own2.terms[1] == 1.0  # still only q at j-age 1
        assert cal2.terms[1] == 0.5  # p and r cite j in 2001

    def test_focal_calendar_across_a_gap_longer_than_the_window(self):
        # f1's window 2000-2001 and f2's 2005-2006 share no year: every
        # count of j that f2's terms read must be one of 2005 or 2006
        records = make_records(
            [
                ("j", 1999, []),
                ("f1", 2000, []),
                ("a", 2000, ["f1", "j"]),
                ("b", 2001, ["j"]),
                ("f2", 2005, []),
                ("c", 2005, ["f2", "j"]),
                ("d", 2006, ["f2", "j"]),
                ("e", 2006, ["j"]),
            ]
        )
        scores = nbnc_all(build(records), 1, gamma_convention="focal_calendar")
        for row, record in enumerate(records):
            _, terms = naive_nbnc(records, record["id"], 1, convention="focal_calendar")
            assert scores.terms[row].tolist() == terms
        assert scores.terms[4].tolist() == [1.0, 0.5]  # j: once in 2005, twice in 2006

    def test_set_semantics_toggle(self):
        corpus = build(
            make_records(
                [
                    ("f", 2000, []),
                    ("b", 2000, []),
                    ("p", 2001, ["f", "b"]),
                    ("q", 2001, ["f", "b"]),
                ]
            )
        )
        multi = nbnc_row(corpus, "f", 1)
        single = nbnc_row(corpus, "f", 1, cocited_semantics="set")
        # multiset: bag {b, b}, denom 2+2; set: bag {b}, denom 2
        assert multi.terms[1] == 2 * 2 / 4
        assert single.terms[1] == 1 * 2 / 2


class TestNbncProperties:
    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            records = random_citation_records(rng, int(rng.integers(20, 80)))
            corpus = build(records)
            for record in records[:20]:
                mine = nbnc_row(corpus, record["id"], 8)
                expected, terms = naive_nbnc(records, record["id"], 8)
                assert mine.value == expected
                assert mine.terms == tuple(terms)

    def test_oracle_equivalence_set_semantics(self):
        rng = np.random.default_rng(22)
        records = random_citation_records(rng, 60)
        corpus = build(records)
        for record in records[:20]:
            mine = nbnc_row(corpus, record["id"], 6, cocited_semantics="set")
            expected, _ = naive_nbnc(records, record["id"], 6, semantics="set")
            assert mine.value == expected

    def test_empty_range(self):
        corpus = build(make_records([("f", 2000, [])]))
        table = nbnc_all(corpus, 5, (1900, 1901))
        assert len(table) == 0
        assert table.terms.shape == (0, 6)
        assert len(table.value) == len(table.truncated) == 0

    def test_nonnegative_and_zero_terms_characterized(self):
        rng = np.random.default_rng(24)
        records = random_citation_records(rng, 150)
        corpus = build(records)
        year = {r["id"]: r["publication_year"] for r in records}
        refs = {r["id"]: r["referenced_works"] for r in records}
        for record in records:
            wid = record["id"]
            score = nbnc_row(corpus, wid, 6, gamma_convention="focal_calendar")
            assert score.value >= 0.0
            idx = corpus.work_index(wid)
            # under the focal-calendar convention each bag member already
            # published by the citing year is cited by the citer that bagged
            # it, so a term is positive exactly when some window citer
            # co-cites a companion at least as old as the citing year
            cocited_in_window = False
            for c in corpus.citers_idx(idx):
                cid = corpus.ids[int(c)]
                offset = year[cid] - year[wid]
                if not 0 <= offset <= 6:
                    continue
                if any(
                    companion != wid and year[companion] <= year[cid]
                    for companion in refs[cid]
                ):
                    cocited_in_window = True
                    break
            assert (score.value > 0.0) == cocited_in_window

    def test_scale_invariance_under_citer_cloning(self):
        base = [
            ("f", 2000, []),
            ("a", 2000, []),
            ("b", 2001, []),
            ("p", 2001, ["f", "a"]),
            ("q", 2002, ["f", "a", "b"]),
        ]
        clones = [("p2", 2001, ["f", "a"]), ("q2", 2002, ["f", "a", "b"])]
        before = nbnc_row(build(make_records(base)), "f", 4)
        after = nbnc_row(build(make_records(base + clones)), "f", 4)
        assert before.terms == after.terms


class TestCdFixtures:
    def test_maximal_disruption(self):
        spec = [("r", 1999, []), ("f", 2000, ["r"])]
        spec += [(f"c{i}", 2001, ["f"]) for i in range(5)]
        cd = cd_row(build(make_records(spec)), "f", 10)
        assert cd.value == 1.0
        assert (cd.c_x, cd.c_y, cd.c_refs) == (5, 0, 0)

    def test_maximal_consolidation(self):
        spec = [("r", 1999, []), ("f", 2000, ["r"])]
        spec += [(f"c{i}", 2001, ["f", "r"]) for i in range(4)]
        cd = cd_row(build(make_records(spec)), "f", 10)
        assert cd.value == -1.0
        assert (cd.c_x, cd.c_y, cd.c_refs) == (0, 4, 0)

    def test_balanced_fixture(self):
        corpus = build(
            make_records(
                [
                    ("r1", 1999, []),
                    ("r2", 1999, []),
                    ("f", 2000, ["r1", "r2"]),
                    ("a", 2001, ["f"]),
                    ("b", 2001, ["f", "r1"]),
                    ("d", 2001, ["r2"]),
                ]
            )
        )
        cd = cd_row(corpus, "f", 10)
        assert (cd.c_x, cd.c_y, cd.c_refs) == (1, 1, 1)
        assert cd.value == 0.0
        assert not cd.zero_denominator

    def test_work_without_references_is_disruptive_once_cited(self):
        # no reference: C_y = C_refs = 0, so any in-window citer gives +1
        spec = [("o", 1999, []), ("f", 2000, []), ("c", 2001, ["f", "o"])]
        cd = cd_row(build(make_records(spec)), "f", 10)
        assert (cd.c_x, cd.c_y, cd.c_refs) == (1, 0, 0)
        assert cd.value == 1.0

    def test_zero_denominator_flag(self):
        corpus = build(make_records([("r", 1999, []), ("f", 2000, ["r"])]))
        cd = cd_row(corpus, "f", 10)
        assert cd.value == 0.0
        assert cd.zero_denominator
        assert BreakthroughClass.CONSOLIDATING.holds(cd.value)

    def test_window_excludes_late_and_noise_citers(self):
        corpus = build(
            make_records(
                [
                    ("f", 2000, []),
                    ("early", 1999, ["f"]),
                    ("in", 2005, ["f"]),
                    ("late", 2011, ["f"]),
                ]
            )
        )
        cd = cd_row(corpus, "f", 10)
        assert cd.c_x + cd.c_y == 1

    def test_reference_citation_window(self):
        corpus = build(
            make_records(
                [
                    ("r", 1990, []),
                    ("pre", 1995, ["r"]),  # cites r before f exists
                    ("f", 2000, ["r"]),
                    ("w", 2001, ["r"]),
                    ("c", 2002, ["f"]),
                ]
            )
        )
        cd = cd_row(corpus, "f", 10)
        assert cd.c_refs == 1  # only the in-window edge w -> r


class TestCdProperties:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            records = random_citation_records(rng, int(rng.integers(30, 120)))
            corpus = build(records)
            for record in records[:25]:
                mine = cd_row(corpus, record["id"], 7)
                expected, parts = brute_cd(records, record["id"], 7)
                assert mine.value == expected
                assert (mine.c_x, mine.c_y, mine.c_refs) == parts

    def test_bounds_and_sign(self):
        rng = np.random.default_rng(26)
        records = random_citation_records(rng, 200)
        corpus = build(records)
        cds = cd_all(corpus, 10)
        assert len(cds) == len(records)
        assert ((-1.0 <= cds.value) & (cds.value <= 1.0)).all()
        live = ~cds.zero_denominator
        assert (np.sign(cds.value[live]) == np.sign(cds.c_x - cds.c_y)[live]).all()
        for record in records:
            row = corpus.work_index(record["id"])
            assert cd_row(corpus, record["id"], 10) == table_row(cds, row)

    def test_pure_citer_never_decreases_cd(self):
        spec = [
            ("r", 1999, []),
            ("f", 2000, ["r"]),
            ("c1", 2001, ["f", "r"]),
            ("o", 2002, ["r"]),
        ]
        before = cd_row(build(make_records(spec)), "f", 10)
        after = cd_row(
            build(make_records(spec + [("new", 2003, ["f"])])), "f", 10
        )
        assert after.value >= before.value

    def test_coupling_citer_never_increases_cd(self):
        spec = [
            ("r", 1999, []),
            ("f", 2000, ["r"]),
            ("c1", 2001, ["f"]),
        ]
        before = cd_row(build(make_records(spec)), "f", 10)
        after = cd_row(
            build(make_records(spec + [("new", 2003, ["f", "r"])])), "f", 10
        )
        assert after.value <= before.value

    def test_monotonicity_on_random_corpora(self):
        rng = np.random.default_rng(27)
        records = random_citation_records(rng, 80, backward_edge_rate=0.0)
        corpus = build(records)
        focal_ids = [
            r["id"] for r in records if len(r["referenced_works"]) >= 1
        ][:15]
        for wid in focal_ids:
            year = next(r["publication_year"] for r in records if r["id"] == wid)
            before = cd_row(corpus, wid, 10).value
            refs = next(r["referenced_works"] for r in records if r["id"] == wid)
            pure = records + [
                {"id": "Zpure", "publication_year": year + 1, "referenced_works": [wid]}
            ]
            coupled = records + [
                {
                    "id": "Zboth",
                    "publication_year": year + 1,
                    "referenced_works": [wid, refs[0]],
                }
            ]
            assert cd_row(build(pure), wid, 10).value >= before
            assert cd_row(build(coupled), wid, 10).value <= before


@st.composite
def small_corpora(draw):
    """Records over a few years with self, duplicate and backward references."""
    n = draw(st.integers(1, 14))
    years = draw(st.lists(st.integers(2000, 2008), min_size=n, max_size=n))
    return [
        {
            "id": f"W{i}",
            "publication_year": years[i],
            "referenced_works": [
                f"W{j}" for j in draw(st.lists(st.integers(0, n - 1), max_size=5))
            ],
        }
        for i in range(n)
    ]


class TestKernelsAgainstOracles:
    @settings(max_examples=200, deadline=None)
    @given(
        records=small_corpora(),
        horizon=st.integers(0, 8),
        semantics=st.sampled_from(["multiset", "set"]),
        convention=st.sampled_from(["own_age", "focal_calendar"]),
        bounds=st.tuples(st.integers(1999, 2009), st.integers(1999, 2009)),
    )
    def test_batch_single_and_subrange_agree_with_oracles(
        self, records, horizon, semantics, convention, bounds
    ):
        corpus = build(records)
        options = dict(cocited_semantics=semantics, gamma_convention=convention)
        scores = nbnc_all(corpus, horizon, **options)
        cds = cd_all(corpus, horizon)
        assert len(scores) == len(cds) == len(records)
        assert scores.works.tolist() == cds.works.tolist() == list(range(len(records)))
        for record in records:
            wid = record["id"]
            row = corpus.work_index(wid)
            value, terms = naive_nbnc(records, wid, horizon, semantics, convention)
            assert scores.value[row] == value
            assert tuple(scores.terms[row].tolist()) == tuple(terms)
            assert nbnc_row(corpus, wid, horizon, **options) == table_row(scores, row)
            cd_value, parts = brute_cd(records, wid, horizon)
            assert cds.value[row] == cd_value
            assert (cds.c_x[row], cds.c_y[row], cds.c_refs[row]) == parts
            assert cds.zero_denominator[row] == (sum(parts) == 0)
            assert cd_row(corpus, wid, horizon) == table_row(cds, row)

        # year blocks are an evaluation detail: a sub-range scores the same
        lo, hi = bounds
        year = {r["id"]: r["publication_year"] for r in records}
        inside = [
            row
            for row, idx in enumerate(scores.works.tolist())
            if lo <= year[corpus.ids[idx]] <= hi
        ]
        sub_scores = nbnc_all(corpus, horizon, (lo, hi), **options)
        sub_cds = cd_all(corpus, horizon, (lo, hi))
        assert sub_scores.works.tolist() == sub_cds.works.tolist()
        assert sub_scores.works.tolist() == scores.works[inside].tolist()
        assert sub_scores.horizon == sub_cds.horizon == horizon
        for name in ("terms", "value", "truncated"):
            assert np.array_equal(getattr(sub_scores, name), getattr(scores, name)[inside])
        for name in ("c_x", "c_y", "c_refs", "value", "zero_denominator"):
            assert np.array_equal(getattr(sub_cds, name), getattr(cds, name)[inside])


class TestClassify:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.2, BreakthroughClass.DISRUPTIVE),
            (0.0, BreakthroughClass.CONSOLIDATING),
            (-0.3, BreakthroughClass.CONSOLIDATING),
        ],
    )
    def test_sign_rule(self, value, expected):
        assert [kind for kind in BreakthroughClass if kind.holds(value)] == [expected]


def test_kernels_refuse_negative_horizon():
    corpus = build(make_records([("f", 2000, [])]))
    for kernel in (nbnc_all, cd_all):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            kernel(corpus, -1)

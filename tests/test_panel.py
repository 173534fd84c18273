"""Breakthrough selection, subfield series, and country panels."""

import math

import numpy as np
import pytest

from scibreak.impact import BreakthroughClass, cd_all, nbnc_all
from scibreak.panel import (
    BreakthroughRecord,
    country_subfield_counts,
    decade_windows,
    scaled_counts,
    select_breakthroughs,
    subfield_series,
)

from conftest import build, make_records, random_citation_records


def _scores(corpus, values):
    """(works, nbnc, cd) arrays from NBNC values keyed by work id; CD 0.5."""
    works = np.array([corpus.work_index(w) for w in values], dtype=np.int64)
    return works, np.array(list(values.values()), dtype=float), np.full(len(works), 0.5)


def _uniform_corpus(n, year=2000, subfield=3100, country="AA"):
    spec = [(f"W{i}", year, []) for i in range(n)]
    return build(
        make_records(
            spec,
            subfields={f"W{i}": subfield for i in range(n)},
            countries={f"W{i}": [country] for i in range(n)},
        )
    )


class TestSelection:
    def test_top_five_percent_of_hundred(self):
        corpus = _uniform_corpus(100)
        arrays = _scores(corpus, {f"W{i}": float(i) for i in range(100)})
        records = select_breakthroughs(corpus, *arrays, 0.05)
        assert len(records) == 5
        assert [r.work_id for r in records] == ["W99", "W98", "W97", "W96", "W95"]

    def test_ceiling_keeps_small_years_nonempty(self):
        corpus = _uniform_corpus(10)
        arrays = _scores(corpus, {f"W{i}": float(i) for i in range(10)})
        assert len(select_breakthroughs(corpus, *arrays, 0.05)) == 1

    def test_tie_at_cut_prefers_smaller_id(self):
        corpus = _uniform_corpus(4)
        values = {"W0": 5.0, "W1": 1.0, "W2": 1.0, "W3": 0.0}
        records = select_breakthroughs(corpus, *_scores(corpus, values), 0.5)
        assert [r.work_id for r in records] == ["W0", "W1"]
        # the tie goes by id, not by corpus index: "W10" sorts before "W2"
        corpus = _uniform_corpus(11)
        values = {"W2": 1.0, "W10": 1.0, "W0": 0.0}
        records = select_breakthroughs(corpus, *_scores(corpus, values), 0.3)
        assert [r.work_id for r in records] == ["W10"]

    def test_raising_fraction_is_monotone(self):
        rng = np.random.default_rng(31)
        records_in = random_citation_records(rng, 150)
        corpus = build(records_in)
        scores = nbnc_all(corpus, 5)
        cds = cd_all(corpus, 5)
        arrays = (scores.works, scores.value, cds.value)
        previous: set[str] = set()
        for q in (0.02, 0.05, 0.1, 0.3, 0.6):
            chosen = {r.work_id for r in select_breakthroughs(corpus, *arrays, q)}
            assert previous <= chosen
            previous = chosen

    def test_deterministic_and_idempotent(self):
        rng = np.random.default_rng(32)
        corpus = build(random_citation_records(rng, 100))
        scores = nbnc_all(corpus, 5)
        cds = cd_all(corpus, 5)
        arrays = (scores.works, scores.value, cds.value)
        first = select_breakthroughs(corpus, *arrays, 0.1)
        second = select_breakthroughs(corpus, *arrays, 0.1)
        assert first == second

    def test_classes_match_cd_sign(self):
        rng = np.random.default_rng(33)
        corpus = build(random_citation_records(rng, 120))
        scores = nbnc_all(corpus, 5)
        cds = cd_all(corpus, 5)
        for record in select_breakthroughs(
            corpus, scores.works, scores.value, cds.value, 0.2
        ):
            expected = (
                BreakthroughClass.DISRUPTIVE
                if record.cd_value > 0
                else BreakthroughClass.CONSOLIDATING
            )
            assert record.klass is expected

    def test_bad_fraction(self):
        corpus = _uniform_corpus(3)
        arrays = _scores(corpus, {"W0": 1.0})
        with pytest.raises(ValueError):
            select_breakthroughs(corpus, *arrays, 0.0)
        with pytest.raises(ValueError):
            select_breakthroughs(corpus, *arrays, 1.0)


def _record(wid, year, subfield, countries, klass):
    return BreakthroughRecord(
        work_id=wid,
        year=year,
        subfield_id=subfield,
        country_codes=tuple(countries),
        nbnc_value=1.0,
        cd_value=0.5 if klass is BreakthroughClass.DISRUPTIVE else -0.5,
        klass=klass,
    )


class TestSubfieldSeries:
    def test_counting(self):
        corpus = _uniform_corpus(50, year=2000, subfield=3101)
        records = [
            _record(f"W{i}", 2000, 3101, ["AA"], BreakthroughClass.DISRUPTIVE)
            for i in range(3)
        ] + [
            _record(f"W{i}", 2000, 3101, ["AA"], BreakthroughClass.CONSOLIDATING)
            for i in range(3, 5)
        ]
        result = subfield_series(records, corpus, [2000])
        series = result.by_subfield[3101]
        assert series.n_bt == (5,)
        assert series.n_di == (3,)
        assert series.n_cn == (2,)
        assert series.n_total == (50,)

    def test_subfield_without_records_is_zero(self):
        corpus = _uniform_corpus(10, subfield=3101)
        result = subfield_series([], corpus, [2000, 2001])
        assert result.by_subfield[3101].n_bt == (0, 0)

    def test_partition_identity_with_unlabeled(self):
        corpus = _uniform_corpus(10, subfield=3101)
        records = [
            _record("W0", 2000, 3101, ["AA"], BreakthroughClass.DISRUPTIVE),
            _record("W1", 2000, None, ["AA"], BreakthroughClass.DISRUPTIVE),
            _record("W2", 2000, 3101, ["AA"], BreakthroughClass.CONSOLIDATING),
        ]
        result = subfield_series(records, corpus, [2000])
        labeled = sum(s.n_bt[0] for s in result.by_subfield.values())
        assert labeled + result.unlabeled[2000] == len(records)

    def test_identity_on_random_run(self):
        rng = np.random.default_rng(34)
        corpus = build(random_citation_records(rng, 200))
        scores = nbnc_all(corpus, 5)
        cds = cd_all(corpus, 5)
        records = select_breakthroughs(
            corpus, scores.works, scores.value, cds.value, 0.2
        )
        years = range(1990, 2011)
        result = subfield_series(records, corpus, years)
        for series in result.by_subfield.values():
            for bt, cn, di in zip(series.n_bt, series.n_cn, series.n_di):
                assert bt == cn + di


class TestScaledCounts:
    def test_division(self):
        corpus = _uniform_corpus(100, subfield=3101)
        records = [
            _record(f"W{i}", 2000, 3101, ["AA"], BreakthroughClass.CONSOLIDATING)
            for i in range(5)
        ]
        series = subfield_series(records, corpus, [2000]).by_subfield[3101]
        scaled = scaled_counts(series)
        assert scaled.scaled_cn == (0.05,)
        assert scaled.scaled_di == (0.0,)
        assert scaled.zero_total_years == ()

    def test_zero_total_flagged(self):
        corpus = _uniform_corpus(5, year=2001, subfield=3101)
        series = subfield_series([], corpus, [2000]).by_subfield[3101]
        scaled = scaled_counts(series)
        assert scaled.scaled_cn == (0.0,)
        assert scaled.zero_total_years == (2000,)

    def test_upper_bound_attained(self):
        corpus = _uniform_corpus(4, subfield=3101)
        records = [
            _record(f"W{i}", 2000, 3101, ["AA"], BreakthroughClass.DISRUPTIVE)
            for i in range(4)
        ]
        series = subfield_series(records, corpus, [2000]).by_subfield[3101]
        assert scaled_counts(series).scaled_di == (1.0,)


class TestCountrySubfieldCounts:
    def test_full_counting(self):
        records = [
            _record("W0", 2001, 3101, ["US", "IL"], BreakthroughClass.DISRUPTIVE)
        ]
        panel = country_subfield_counts(
            records, (2000, 2009), BreakthroughClass.DISRUPTIVE
        )
        assert panel.countries == ("IL", "US")
        assert panel.counts.tolist() == [[1], [1]]

    def test_window_without_records(self):
        records = [
            _record("W0", 1980, 3101, ["US"], BreakthroughClass.DISRUPTIVE)
        ]
        panel = country_subfield_counts(
            records, (2000, 2009), BreakthroughClass.DISRUPTIVE
        )
        assert panel.counts.size == 0

    def test_kind_filter_and_buckets(self):
        records = [
            _record("W0", 2001, 3101, ["US"], BreakthroughClass.DISRUPTIVE),
            _record("W1", 2001, 3101, ["US"], BreakthroughClass.CONSOLIDATING),
            _record("W2", 2001, 3101, [], BreakthroughClass.DISRUPTIVE),
            _record("W3", 2001, None, ["US"], BreakthroughClass.DISRUPTIVE),
        ]
        panel = country_subfield_counts(
            records, (2000, 2009), BreakthroughClass.DISRUPTIVE
        )
        assert panel.counts.sum() == 1
        assert panel.unattributed == 1
        assert panel.unlabeled == 1

    def test_column_sums_equal_country_multiplicity(self):
        rng = np.random.default_rng(35)
        corpus = build(random_citation_records(rng, 200))
        scores = nbnc_all(corpus, 5)
        cds = cd_all(corpus, 5)
        records = select_breakthroughs(
            corpus, scores.works, scores.value, cds.value, 0.3
        )
        window = (1990, 2010)
        for kind in BreakthroughClass:
            panel = country_subfield_counts(records, window, kind)
            expected = sum(
                len(r.country_codes)
                for r in records
                if r.klass is kind
                and window[0] <= r.year <= window[1]
                and r.subfield_id is not None
            )
            assert panel.counts.sum() == expected

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            country_subfield_counts([], (2005, 2000), BreakthroughClass.DISRUPTIVE)


class TestDecadeWindows:
    def test_paper_grid(self):
        windows = decade_windows(1950, 2013, 10)
        assert len(windows) == 7
        assert windows[0] == (1950, 1959)
        assert windows[-1] == (2010, 2013)

    def test_exact_multiple(self):
        assert decade_windows(2000, 2019, 10) == [(2000, 2009), (2010, 2019)]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            decade_windows(2000, 1990)
        with pytest.raises(ValueError):
            decade_windows(2000, 2010, 0)


class TestSelectionSizeIdentity:
    def test_per_year_size_rule(self):
        rng = np.random.default_rng(36)
        records_in = random_citation_records(rng, 300)
        corpus = build(records_in)
        scores = nbnc_all(corpus, 5)
        cds = cd_all(corpus, 5)
        chosen = select_breakthroughs(
            corpus, scores.works, scores.value, cds.value, 0.05
        )
        per_year_pool: dict[int, int] = {}
        for idx in scores.works.tolist():
            year = corpus.pub_year_of(idx)
            per_year_pool[year] = per_year_pool.get(year, 0) + 1
        per_year_chosen: dict[int, int] = {}
        for record in chosen:
            per_year_chosen[record.year] = per_year_chosen.get(record.year, 0) + 1
        for year, pool in per_year_pool.items():
            assert per_year_chosen[year] == max(1, math.ceil(0.05 * pool))

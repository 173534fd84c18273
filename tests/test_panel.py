"""Breakthrough selection, subfield series, and country panels."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scibreak.impact import BreakthroughClass, cd_all, nbnc_all
from scibreak.panel import (
    ScoredWorks,
    country_counts,
    country_subfield_counts,
    decade_windows,
    scaled_counts,
    select_breakthroughs,
    subfield_series,
)
from scibreak.pipeline import panel_stage, write_series_table

from conftest import build, make_records, random_citation_records
from oracles import brute_country_counts, brute_panel, brute_series

DI, CN = 0.5, -0.5  # CD values of a disruptive and a consolidating breakthrough


def _scores(corpus, values):
    """Scored works from NBNC values keyed by work id; CD 0.5."""
    works = np.array([corpus.work_index(w) for w in values], dtype=np.int64)
    return ScoredWorks(
        works, np.array(list(values.values()), dtype=float), np.full(len(works), 0.5)
    )


def _chosen(corpus, cds):
    """Breakthrough rows from CD values keyed by work id; NBNC 1."""
    works = np.array([corpus.work_index(w) for w in cds], dtype=np.int64)
    return ScoredWorks(works, np.ones(len(works)), np.array(list(cds.values()), dtype=float))


def _ids(corpus, rows):
    return [corpus.ids[idx] for idx in rows.works.tolist()]


def _uniform_corpus(n, year=2000, subfield=3100, country="AA"):
    spec = [(f"W{i}", year, []) for i in range(n)]
    return build(
        make_records(
            spec,
            subfields={f"W{i}": subfield for i in range(n)},
            countries={f"W{i}": [country] for i in range(n)},
        )
    )


def _labelled_corpus(works):
    """Corpus from (id, year, subfield or None, countries) tuples."""
    return build(
        make_records(
            [(wid, year, []) for wid, year, _, _ in works],
            subfields={wid: sub for wid, _, sub, _ in works if sub is not None},
            countries={wid: codes for wid, _, _, codes in works},
        )
    )


def _scored_all(corpus):
    scores = nbnc_all(corpus, 5)
    return ScoredWorks(scores.works, scores.value, cd_all(corpus, 5).value)


def _row(series, subfield):
    return series.subfields.tolist().index(subfield)


class TestSelection:
    def test_top_five_percent_of_hundred(self):
        corpus = _uniform_corpus(100)
        scored = _scores(corpus, {f"W{i}": float(i) for i in range(100)})
        chosen = select_breakthroughs(corpus, scored, 0.05)
        assert len(chosen) == 5
        assert _ids(corpus, chosen) == ["W99", "W98", "W97", "W96", "W95"]

    def test_ceiling_keeps_small_years_nonempty(self):
        corpus = _uniform_corpus(10)
        scored = _scores(corpus, {f"W{i}": float(i) for i in range(10)})
        assert len(select_breakthroughs(corpus, scored, 0.05)) == 1

    def test_tie_at_cut_prefers_smaller_id(self):
        corpus = _uniform_corpus(4)
        values = {"W0": 5.0, "W1": 1.0, "W2": 1.0, "W3": 0.0}
        chosen = select_breakthroughs(corpus, _scores(corpus, values), 0.5)
        assert _ids(corpus, chosen) == ["W0", "W1"]
        # the tie goes by id, not by corpus index: "W10" sorts before "W2"
        corpus = _uniform_corpus(11)
        values = {"W2": 1.0, "W10": 1.0, "W0": 0.0}
        chosen = select_breakthroughs(corpus, _scores(corpus, values), 0.3)
        assert _ids(corpus, chosen) == ["W10"]

    def test_raising_fraction_is_monotone(self):
        rng = np.random.default_rng(31)
        records_in = random_citation_records(rng, 150)
        corpus = build(records_in)
        scored = _scored_all(corpus)
        previous: set[str] = set()
        for q in (0.02, 0.05, 0.1, 0.3, 0.6):
            chosen = set(_ids(corpus, select_breakthroughs(corpus, scored, q)))
            assert previous <= chosen
            previous = chosen

    def test_deterministic_and_idempotent(self):
        rng = np.random.default_rng(32)
        corpus = build(random_citation_records(rng, 100))
        scored = _scored_all(corpus)
        first = select_breakthroughs(corpus, scored, 0.1)
        second = select_breakthroughs(corpus, scored, 0.1)
        for name in ("works", "nbnc", "cd"):
            assert getattr(first, name).tolist() == getattr(second, name).tolist()

    def test_classes_match_cd_sign(self):
        rng = np.random.default_rng(33)
        corpus = build(random_citation_records(rng, 120))
        chosen = select_breakthroughs(corpus, _scored_all(corpus), 0.2)
        disruptive = BreakthroughClass.DISRUPTIVE.holds(chosen.cd).tolist()
        consolidating = BreakthroughClass.CONSOLIDATING.holds(chosen.cd).tolist()
        for cd, di, cn in zip(chosen.cd.tolist(), disruptive, consolidating):
            expected = (
                BreakthroughClass.DISRUPTIVE
                if cd > 0
                else BreakthroughClass.CONSOLIDATING
            )
            assert expected.holds(cd)
            assert (di, cn) == (cd > 0, not cd > 0)

    def test_bad_fraction(self):
        corpus = _uniform_corpus(3)
        scored = _scores(corpus, {"W0": 1.0})
        with pytest.raises(ValueError):
            select_breakthroughs(corpus, scored, 0.0)
        with pytest.raises(ValueError):
            select_breakthroughs(corpus, scored, 1.0)


class TestSubfieldSeries:
    def test_counting(self):
        corpus = _uniform_corpus(50, year=2000, subfield=3101)
        chosen = _chosen(corpus, {"W0": DI, "W1": DI, "W2": DI, "W3": CN, "W4": CN})
        series = subfield_series(corpus, chosen, [2000])
        row = _row(series, 3101)
        assert series.n_bt[row].tolist() == [5]
        assert series.n_di[row].tolist() == [3]
        assert series.n_cn[row].tolist() == [2]
        assert series.n_total[row].tolist() == [50]

    def test_subfield_without_records_is_zero(self):
        corpus = _uniform_corpus(10, subfield=3101)
        series = subfield_series(corpus, _chosen(corpus, {}), [2000, 2001])
        assert series.n_bt[_row(series, 3101)].tolist() == [0, 0]

    def test_partition_identity_with_unlabeled(self):
        corpus = _labelled_corpus(
            [
                ("W0", 2000, 3101, ["AA"]),
                ("W1", 2000, None, ["AA"]),
                ("W2", 2000, 3101, ["AA"]),
            ]
            + [(f"W{i}", 2000, 3101, ["AA"]) for i in range(3, 10)]
        )
        chosen = _chosen(corpus, {"W0": DI, "W1": DI, "W2": CN})
        series = subfield_series(corpus, chosen, [2000])
        labeled = int(series.n_bt[:, 0].sum())
        assert labeled + int(series.unlabeled[0]) == len(chosen)

    def test_identity_on_random_run(self):
        rng = np.random.default_rng(34)
        corpus = build(random_citation_records(rng, 200))
        chosen = select_breakthroughs(corpus, _scored_all(corpus), 0.2)
        series = subfield_series(corpus, chosen, range(1990, 2011))
        for bts, cns, dis in zip(series.n_bt, series.n_cn, series.n_di):
            for bt, cn, di in zip(bts.tolist(), cns.tolist(), dis.tolist()):
                assert bt == cn + di


def _flags(tmp_path, series):
    """The flags column of the written series table."""
    write_series_table(tmp_path, series)
    path = tmp_path / "series" / "subfield_series.tsv"
    return [line.rstrip("\n").split("\t")[8] for line in path.read_text().splitlines()[1:]]


class TestScaledCounts:
    def test_division(self, tmp_path):
        corpus = _uniform_corpus(100, subfield=3101)
        chosen = _chosen(corpus, {f"W{i}": CN for i in range(5)})
        scaled = scaled_counts(subfield_series(corpus, chosen, [2000]))
        row = _row(scaled, 3101)
        assert scaled.scaled_cn[row].tolist() == [0.05]
        assert scaled.scaled_di[row].tolist() == [0.0]
        assert _flags(tmp_path, scaled) == ["-"]

    def test_zero_total_flagged(self, tmp_path):
        corpus = _uniform_corpus(5, year=2001, subfield=3101)
        scaled = scaled_counts(subfield_series(corpus, _chosen(corpus, {}), [2000]))
        assert scaled.scaled_cn[_row(scaled, 3101)].tolist() == [0.0]
        assert _flags(tmp_path, scaled) == ["zero_total"]

    def test_upper_bound_attained(self):
        corpus = _uniform_corpus(4, subfield=3101)
        chosen = _chosen(corpus, {f"W{i}": DI for i in range(4)})
        scaled = scaled_counts(subfield_series(corpus, chosen, [2000]))
        assert scaled.scaled_di[_row(scaled, 3101)].tolist() == [1.0]


class TestCountrySubfieldCounts:
    def test_full_counting(self):
        corpus = _labelled_corpus([("W0", 2001, 3101, ["US", "IL"])])
        panel = country_subfield_counts(
            corpus, _chosen(corpus, {"W0": DI}), (2000, 2009), BreakthroughClass.DISRUPTIVE
        )
        assert panel.countries == ("IL", "US")
        assert panel.counts.tolist() == [[1], [1]]

    def test_window_without_records(self):
        corpus = _labelled_corpus([("W0", 1980, 3101, ["US"])])
        panel = country_subfield_counts(
            corpus, _chosen(corpus, {"W0": DI}), (2000, 2009), BreakthroughClass.DISRUPTIVE
        )
        assert panel.counts.size == 0

    def test_kind_filter_and_buckets(self):
        corpus = _labelled_corpus(
            [
                ("W0", 2001, 3101, ["US"]),
                ("W1", 2001, 3101, ["US"]),
                ("W2", 2001, 3101, []),
                ("W3", 2001, None, ["US"]),
            ]
        )
        chosen = _chosen(corpus, {"W0": DI, "W1": CN, "W2": DI, "W3": DI})
        panel = country_subfield_counts(
            corpus, chosen, (2000, 2009), BreakthroughClass.DISRUPTIVE
        )
        assert panel.counts.sum() == 1
        assert panel.unattributed == 1
        assert panel.unlabeled == 1

    def test_column_sums_equal_country_multiplicity(self):
        rng = np.random.default_rng(35)
        corpus = build(random_citation_records(rng, 200))
        chosen = select_breakthroughs(corpus, _scored_all(corpus), 0.3)
        window = (1990, 2010)
        for kind in BreakthroughClass:
            panel = country_subfield_counts(corpus, chosen, window, kind)
            expected = sum(
                len(corpus.countries_of(idx))
                for idx, cd in zip(chosen.works.tolist(), chosen.cd.tolist())
                if kind.holds(cd)
                and window[0] <= corpus.pub_year_of(idx) <= window[1]
                and corpus.subfield_of(idx) is not None
            )
            assert panel.counts.sum() == expected

    def test_empty_window_rejected(self):
        corpus = _uniform_corpus(3)
        with pytest.raises(ValueError):
            country_subfield_counts(
                corpus, _chosen(corpus, {}), (2005, 2000), BreakthroughClass.DISRUPTIVE
            )


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
            corpus, ScoredWorks(scores.works, scores.value, cds.value), 0.05
        )
        per_year_pool: dict[int, int] = {}
        for idx in scores.works.tolist():
            year = corpus.pub_year_of(idx)
            per_year_pool[year] = per_year_pool.get(year, 0) + 1
        per_year_chosen: dict[int, int] = {}
        for idx in chosen.works.tolist():
            year = corpus.pub_year_of(idx)
            per_year_chosen[year] = per_year_chosen.get(year, 0) + 1
        for year, pool in per_year_pool.items():
            assert per_year_chosen[year] == max(1, math.ceil(0.05 * pool))


@st.composite
def labelled_corpora(draw):
    """Records with and without subfields and countries, some with several
    countries, over years that reach past both ends of the 1998-2003 grid;
    plus NBNC (with ties) and CD (with zeros) for every work."""
    n = draw(st.integers(1, 30))
    records = []
    for i in range(n):
        record = {
            "id": f"W{i}",
            "publication_year": draw(st.integers(1995, 2006)),
            "referenced_works": [],
        }
        subfield = draw(st.sampled_from([None, 3100, 3101, 3102]))
        if subfield is not None:
            record["primary_topic"] = {"subfield": {"id": subfield}}
        codes = st.lists(st.sampled_from(["AA", "BB", "CC", "dd"]), max_size=2)
        record["authorships"] = [
            {"countries": draw(codes)} for _ in range(draw(st.integers(0, 2)))
        ]
        records.append(record)
    nbnc = draw(st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n))
    cd = draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25]), min_size=n, max_size=n))
    return records, np.array(nbnc), np.array(cd)


class TestAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(
        drawn=labelled_corpora(),
        top_fraction=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
        width=st.integers(1, 4),
        allow=st.one_of(st.none(), st.sets(st.sampled_from([3100, 3101, 3102]))),
    )
    def test_series_and_panels_match_per_work_counts(
        self, drawn, top_fraction, width, allow
    ):
        records, nbnc, cd = drawn
        corpus = build(records)
        works = np.arange(corpus.n_works)
        chosen = select_breakthroughs(corpus, ScoredWorks(works, nbnc, cd), top_fraction)
        picked = dict(zip(_ids(corpus, chosen), chosen.cd.tolist()))
        start, end = 1998, 2003
        with tempfile.TemporaryDirectory() as out:
            (series, panels), _, _ = panel_stage(
                corpus, chosen, start, end, width, allow, Path(out)
            )

        totals, counts, unlabeled = brute_series(records, picked, range(start, end + 1))
        got_totals, got_counts = {}, {}
        for i, sub in enumerate(series.subfields.tolist()):
            for j, year in enumerate(series.years.tolist()):
                assert series.n_bt[i, j] == series.n_cn[i, j] + series.n_di[i, j]
                for key, value in (
                    ((sub, year), series.n_total[i, j]),
                    ((sub, year, "CN"), series.n_cn[i, j]),
                    ((sub, year, "DI"), series.n_di[i, j]),
                ):
                    if value:
                        (got_totals if len(key) == 2 else got_counts)[key] = int(value)
        assert got_totals == totals
        assert got_counts == counts
        got_unlabeled = dict(zip(series.years.tolist(), series.unlabeled.tolist()))
        assert {y: c for y, c in got_unlabeled.items() if c} == unlabeled

        subfield = {
            r["id"]: r.get("primary_topic", {}).get("subfield", {}).get("id")
            for r in records
        }
        admitted = {
            wid: value
            for wid, value in picked.items()
            if allow is None or subfield[wid] in allow
        }
        windows = decade_windows(start, end, width)
        assert len(panels) == 2 * len(windows)
        for panel in panels:
            cells, unattributed, unlabeled = brute_panel(
                records, admitted, panel.window, panel.kind.value
            )
            got = {
                (c, s): int(panel.counts[i, j])
                for i, c in enumerate(panel.countries)
                for j, s in enumerate(panel.subfields)
                if panel.counts[i, j]
            }
            assert got == cells
            assert (panel.unattributed, panel.unlabeled) == (unattributed, unlabeled)
            assert country_counts(corpus, chosen, panel.window, panel.kind) == (
                brute_country_counts(records, picked, panel.window, panel.kind.value)
            )

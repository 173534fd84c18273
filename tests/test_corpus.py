"""Corpus ingestion, temporal queries, and snapshot persistence."""

import gzip
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scibreak.corpus import (
    CitationCorpus,
    FieldMap,
    SnapshotError,
    UnknownWorkError,
    _getter,
    ingest_files,
    ingest_works,
    sorted_member,
    sorted_unique,
)
from scibreak.impact import cd_all, nbnc_all
from scibreak.synth import synthetic_records

from conftest import build, make_records, random_citation_records
from oracles import _walk, citations_by_citer_year, naive_ingest


class TestIngestion:
    def test_three_record_graph(self):
        corpus, report = ingest_works(
            make_records([("A", 2000, []), ("B", 2001, ["A"]), ("C", 2001, ["A"])])
        )
        a = corpus.work_index("A")
        b = corpus.work_index("B")
        assert len(corpus.citers_idx(a)) == 2
        assert len(corpus.references_idx(b)) == 1
        assert report.works_ingested == 3
        assert report.dangling_refs == 0

    def test_dangling_reference_dropped_and_counted(self):
        corpus, report = ingest_works(make_records([("D", 2001, ["Z"])]))
        assert corpus.n_works == 1
        assert corpus.n_edges == 0
        assert report.dangling_refs == 1

    def test_empty_stream(self):
        corpus, report = ingest_works([])
        assert corpus.n_works == 0
        assert report.works_ingested == 0
        assert report.records_seen == 0

    def test_rejection_reasons(self):
        records = [
            "not json at all {",
            json.dumps(["a", "list"]),
            json.dumps({"publication_year": 2000}),
            json.dumps({"id": "X"}),
            json.dumps({"id": "Y", "publication_year": "eleventy"}),
            json.dumps({"id": "Z", "publication_year": 1800}),
            json.dumps({"id": "W", "publication_year": 2000}),
            json.dumps({"id": "W", "publication_year": 2001}),
        ]
        corpus, report = ingest_works(records, year_min=1900, year_max=2023)
        assert corpus.n_works == 1
        assert report.rejected["parse_error"] == 1
        assert report.rejected["not_object"] == 1
        assert report.rejected["missing_id"] == 1
        assert report.rejected["missing_year"] == 1
        assert report.rejected["invalid_year"] == 1
        assert report.rejected["year_out_of_range"] == 1
        assert report.rejected["duplicate_id"] == 1

    def test_ids_the_tables_cannot_hold_are_rejected(self, tmp_path):
        # a tab, CR or LF would split a TSV row; a lone surrogate has no
        # UTF-8 encoding, so the snapshot could not be written
        bad = ["B\tA", "C\nD", "E\rF", "b\ud800"]
        records = [json.dumps({"id": wid, "publication_year": 2000}) for wid in bad]
        records.append(json.dumps({"id": "B", "publication_year": 2001, "referenced_works": bad}))
        corpus, report = ingest_works(records)
        assert corpus.ids == ["B"]
        assert report.rejected["invalid_id"] == 4
        assert report.dangling_refs == 4
        corpus.save_snapshot(tmp_path / "corpus.snap")
        assert CitationCorpus.load_snapshot(tmp_path / "corpus.snap").ids == ["B"]

    def test_values_beyond_int32_are_counted_not_fatal(self):
        records = [
            {"id": "A", "publication_year": 2000,
             "primary_topic": {"subfield": {"id": "https://openalex.org/subfields/99999999999"}}},
            {"id": "B", "publication_year": 2000, "primary_topic": {"subfield": {"id": 2**31}}},
            {"id": "C", "publication_year": 2**31},
            {"id": "D", "publication_year": str(-(2**31) - 1)},
        ]
        corpus, report = ingest_works(records)
        assert corpus.ids == ["A", "B"]
        assert corpus.subfields.tolist() == [-1, -1]
        assert report.invalid_subfields == 2
        assert report.rejected["invalid_year"] == 2

    def test_negative_subfield_ids_are_counted(self):
        # a negative id was once stored as it came and read back as missing
        records = [
            {"id": "A", "publication_year": 2000, "primary_topic": {"subfield": {"id": -1}}},
            {"id": "B", "publication_year": 2000, "primary_topic": {"subfield": {"id": -7}}},
            {"id": "C", "publication_year": 2000,
             "primary_topic": {"subfield": {"id": "https://openalex.org/subfields/-7"}}},
        ]
        corpus, report = ingest_works(records)
        assert corpus.subfields.tolist() == [-1, -1, 7]
        assert report.invalid_subfields == 2
        assert [corpus.subfield_of(i) for i in range(3)] == [None, None, 7]

    def test_duplicate_and_self_references(self):
        corpus, report = ingest_works(
            make_records([("A", 2000, []), ("B", 2001, ["A", "A", "B"])])
        )
        assert report.duplicate_refs == 1
        assert report.self_refs == 1
        assert corpus.n_edges == 1

    def test_backward_edges_kept_but_tallied(self):
        corpus, report = ingest_works(
            make_records([("late", 2010, []), ("early", 2000, ["late"])])
        )
        assert report.backward_edges == 1
        assert corpus.n_edges == 1

    def test_openalex_shapes(self):
        record = {
            "id": "https://openalex.org/W123",
            "publication_year": 1999,
            "referenced_works": [],
            "primary_topic": {"subfield": {"id": "https://openalex.org/subfields/3103"}},
            "authorships": [
                {"countries": ["us", "IL"]},
                {"countries": ["US"]},
                {"countries": ["x", 12]},
            ],
        }
        corpus, report = ingest_works([record])
        i = corpus.work_index("https://openalex.org/W123")
        assert corpus.subfield_of(i) == 3103
        assert corpus.countries_of(i) == ("US", "IL")
        assert report.invalid_countries == 2

    def test_country_entries_that_are_not_str_are_invalid(self):
        # only a str of two ASCII letters is a code, so b"US" is invalid; a
        # list with an unhashable entry is read entry by entry, the others
        # through the table of distinct entries
        authorships = [
            [b"US", "de"],
            [("U", "S"), 7, 7.0, True, b"US"],
            [["US"], {"US": 1}, "us", "de"],  # unhashable entries
        ]
        corpus, report = ingest_works(
            {"id": f"W{i}", "publication_year": 2000,
             "authorships": [{"countries": entries}]}
            for i, entries in enumerate(authorships)
        )
        assert [corpus.countries_of(i) for i in range(3)] == [("DE",), (), ("US", "DE")]
        assert corpus.country_table == ("DE", "US")
        assert report.invalid_countries == 8

    def test_custom_field_map(self):
        schema = FieldMap(
            work_id="key", pub_year="yr", references="cites", subfield="sf",
            countries="geo",
        )
        corpus, _ = ingest_works(
            [{"key": "k1", "yr": 2001, "cites": [], "sf": 7, "geo": ["DE"]}],
            schema,
        )
        i = corpus.work_index("k1")
        assert corpus.pub_year_of(i) == 2001
        assert corpus.subfield_of(i) == 7
        assert corpus.countries_of(i) == ("DE",)

    def test_gzip_file_round_trip(self, tmp_path):
        lines = [json.dumps(r) for r in make_records([("A", 2000, []), ("B", 2001, ["A"])])]
        gz = tmp_path / "works.jsonl.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        corpus, report = ingest_files(gz)
        assert corpus.n_works == 2
        assert report.works_ingested == 2

    @pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
    def test_byte_order_mark_is_not_data(self, tmp_path, compressed):
        # a BOM once made the first line a parse error, and the second
        # work's reference to it dangling
        lines = [json.dumps(r) for r in make_records([("A", 2000, []), ("B", 2001, ["A"])])]
        data = ("\ufeff" + "\n".join(lines) + "\n").encode("utf-8")
        path = tmp_path / "works.jsonl"
        path.write_bytes(gzip.compress(data) if compressed else data)
        corpus, report = ingest_files(path)
        assert corpus.ids == ["A", "B"]
        assert report.works_ingested == 2
        assert report.rejected["parse_error"] == report.dangling_refs == 0

    def test_reference_list_with_entries_that_are_not_str(self):
        # such a list leaves the one-lookup path for its record only: the
        # keys it added are dropped, and each entry that is not None is read
        # as str, so the int 1 is the work "1" and ["x"] a dangling id
        corpus, report = ingest_works(
            [
                {"id": "1", "publication_year": 2000},
                {"id": "A", "publication_year": 2001, "referenced_works": ["1", 1, None, "B"]},
                {"id": "B", "publication_year": 2001, "referenced_works": ["A", 1.0, "1", ["x"]]},
            ]
        )
        assert [corpus.references_idx(i).tolist() for i in range(3)] == [[], [0, 2], [0, 1]]
        assert (report.duplicate_refs, report.dangling_refs) == (1, 2)

    @pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
    def test_line_that_is_not_utf8_is_a_parse_error(self, tmp_path, compressed):
        # one bad byte once failed the whole ingest with a decode error that
        # named neither the file nor the line
        good = [
            json.dumps(r, ensure_ascii=False).encode("utf-8")
            for r in make_records([("A", 2000, []), ("Bé", 2001, ["A"]), ("C", 2002, ["Bé"])])
        ]
        bad = [
            b'{"id": "X\x80", "publication_year": 2001}',  # a lone continuation byte
            b'{"id": "Y", "publication_year": 2001} \xc3',  # a cut-off sequence
            b'{"id": "Z\xed\xa0\x80", "publication_year": 2001}',  # an encoded surrogate
        ]
        data = b"\n".join([good[0], bad[0], good[1], bad[1], bad[2], good[2]]) + b"\n"
        path = tmp_path / "works.jsonl"
        path.write_bytes(gzip.compress(data) if compressed else data)
        corpus, report = ingest_files(path)
        assert corpus.ids == ["A", "Bé", "C"]
        assert report.records_seen == 6
        assert dict(report.rejected) == {"parse_error": 3}
        assert report.dangling_refs == 0


class TestGraphInvariants:
    def test_transpose_property(self):
        rng = np.random.default_rng(7)
        corpus = build(random_citation_records(rng, 150))
        forward = set()
        for u in range(corpus.n_works):
            for v in corpus.references_idx(u):
                forward.add((u, int(v)))
        backward = set()
        for v in range(corpus.n_works):
            for u in corpus.citers_idx(v):
                backward.add((int(u), v))
        assert forward == backward

    def test_adjacency_rows_sorted(self):
        rng = np.random.default_rng(8)
        corpus = build(random_citation_records(rng, 120))
        for i in range(corpus.n_works):
            refs = corpus.references_idx(i)
            citers = corpus.citers_idx(i)
            assert (np.diff(refs) > 0).all() if len(refs) > 1 else True
            assert (np.diff(citers) >= 0).all() if len(citers) > 1 else True

    def test_reingest_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        records = random_citation_records(rng, 100)
        p1 = tmp_path / "a.snap"
        p2 = tmp_path / "b.snap"
        build(records).save_snapshot(p1)
        build(records).save_snapshot(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_constructor_refuses_an_unsorted_reference_row(self):
        # CD finds shared references by binary search, so an unsorted row once
        # scored W0000016's CD (horizon 10) wrong, silently: on this draw,
        # -0.013422818791946308 where its sorted row gives -0.014492753623188406
        corpus, _ = ingest_works(synthetic_records(300, seed=3))
        row = corpus.work_index("W0000016")
        first, last = corpus._out_indptr[row], corpus._out_indptr[row + 1] - 1
        swapped = corpus._out_indices.copy()
        swapped[[first, last]] = swapped[[last, first]]
        columns = (
            corpus.ids, corpus.pub_years, corpus.subfields, corpus.country_table,
            corpus._country_indptr, corpus._country_codes, corpus._out_indptr,
        )
        ingested = cd_all(corpus, 10)
        rebuilt = cd_all(CitationCorpus(*columns, corpus._out_indices), 10)
        assert row in ingested.works.tolist()
        np.testing.assert_array_equal(rebuilt.works, ingested.works)
        np.testing.assert_array_equal(rebuilt.value, ingested.value)
        with pytest.raises(ValueError, match="reference row not strictly ascending"):
            CitationCorpus(*columns, swapped)

    @pytest.mark.parametrize(
        "columns, message",
        [
            # three ids, two years: once built, saved, and then refused on
            # load as a truncated snapshot
            (
                (["A", "B", "C"], [2000, 2001], [1, 2, 3], ["US"], [0, 0, 0, 0], [],
                 [0, 0, 0, 0], []),
                "3 ids need 3 publication years and subfields",
            ),
            (
                (["A", "B"], [2000, 2001], [1], ["US"], [0, 0, 0], [], [0, 0, 0], []),
                "2 ids need 2 publication years and subfields",
            ),
            (
                (["A", "B"], [2000, 2001], [1, 2], ["US"], [0, 1], [0], [0, 0, 0], []),
                "country offsets",
            ),
            (
                (["A", "B"], [2000, 2001], [1, 2], ["US"], [0, 1, 1], [0, 0], [0, 0, 0], []),
                "country offsets",
            ),
            (
                (["A", "B"], [2000, 2001], [1, 2], ["US"], [0, 2, 1], [0], [0, 0, 0], []),
                "country offsets",
            ),
        ],
        ids=["short-years", "short-subfields", "short-offsets", "offsets-short-of-codes",
             "falling-offsets"],
    )
    def test_constructor_refuses_columns_that_do_not_fit_the_ids(self, columns, message):
        with pytest.raises(ValueError, match=message):
            CitationCorpus(*columns)

    def test_unknown_work(self):
        corpus = build(make_records([("A", 2000, [])]))
        with pytest.raises(UnknownWorkError):
            corpus.work_index("nope")


class TestLazyLookups:
    """The citing transpose, the id lookup and the id rank are built on first use."""

    def test_a_built_and_saved_corpus_builds_neither(self, tmp_path):
        corpus = build(random_citation_records(np.random.default_rng(3), 40))
        corpus.save_snapshot(tmp_path / "c.snap")
        loaded = CitationCorpus.load_snapshot(tmp_path / "c.snap")
        for built in (corpus, loaded):
            assert not {"_in_indices", "_in_indptr", "_index", "id_rank"} & set(vars(built))

    def test_first_use_answers_as_the_records_say(self, tmp_path):
        records = random_citation_records(np.random.default_rng(4), 60)
        ids = [record["id"] for record in records]
        citers = [[] for _ in ids]  # ids are distinct and in range: index = position
        for i, record in enumerate(records):
            for ref in record["referenced_works"]:
                citers[ids.index(ref)].append(i)
        rows = np.array([5, 0, 5, len(ids) - 1, 17])
        pairs = [(pos, c) for pos, row in enumerate(rows) for c in citers[row]]
        corpus = build(records)
        corpus.save_snapshot(tmp_path / "c.snap")
        for built in (corpus, CitationCorpus.load_snapshot(tmp_path / "c.snap")):
            owner, citer = built.citer_pairs(rows)
            assert list(zip(owner.tolist(), citer.tolist())) == pairs
            assert [built.citers_idx(j).tolist() for j in range(len(ids))] == citers
            assert [built.work_index(wid) for wid in ids] == list(range(len(ids)))
            with pytest.raises(UnknownWorkError):
                built.work_index("W-absent")

    def test_id_rank_follows_python_str_order(self):
        # "W1" < "W1\x00" < "W10" < "W2"; a numpy string array would read
        # "W1\x00" as "W1" and leave the pair in corpus order
        corpus = build(make_records([(wid, 2000, []) for wid in ["W2", "W1\x00", "W10", "W1"]]))
        assert corpus.id_rank.tolist() == [3, 1, 2, 0]
        assert not corpus.id_rank.flags.writeable


def window_counts(corpus, first, last):
    """Citations every work receives from works published in first..last."""
    return np.bincount(corpus.cited_in_years(first, last), minlength=corpus.n_works)


class TestYearlyCitationSeries:
    """A work's citations per year, read through ``citations_by_year`` and
    ``cited_in_years``."""

    def test_counts_by_offset(self):
        corpus = build(
            make_records(
                [
                    ("f", 2000, []),
                    ("c0", 2000, ["f"]),
                    ("c1", 2001, ["f"]),
                    ("c2", 2001, ["f"]),
                    ("c3", 2003, ["f"]),
                ]
            )
        )
        f = corpus.work_index("f")
        assert corpus.citations_by_year(2000, 2003)[f].tolist() == [1, 2, 0, 1]
        assert window_counts(corpus, corpus.year_min, 1999)[f] == 0
        assert corpus.citations_by_age(3)[f].tolist() == [1, 2, 0, 1]

    def test_uncited_work(self):
        corpus = build(make_records([("f", 2000, [])]))
        counts = corpus.citations_by_year(2000, 2010)[corpus.work_index("f")]
        assert counts.tolist() == [0] * 11

    def test_noise_citer_excluded_and_tallied(self):
        corpus = build(
            make_records([("f", 2000, []), ("old", 1995, ["f"]), ("c", 2001, ["f"])])
        )
        f = corpus.work_index("f")
        assert corpus.citations_by_year(2000, 2005)[f].sum() == 1
        assert window_counts(corpus, corpus.year_min, 2000 - 1)[f] == 1
        assert corpus.citations_by_age(5)[f].sum() == 1

    def test_gamma_sums_to_forward_indegree(self):
        rng = np.random.default_rng(10)
        corpus = build(random_citation_records(rng, 200))
        works = np.arange(corpus.n_works)
        years = corpus.pub_years
        grid = np.arange(corpus.year_min, corpus.year_max + 1)
        counts = corpus.citations_by_year(corpus.year_min, corpus.year_max)
        noise = np.array(
            [window_counts(corpus, corpus.year_min, y - 1)[i] for i, y in enumerate(years)]
        )
        by_age = corpus.citations_by_age(len(grid) - 1)
        for idx in works.tolist():
            citer_years = corpus.pub_years[corpus.citers_idx(idx)]
            expected = np.bincount(citer_years - corpus.year_min, minlength=len(grid))
            assert counts[idx].tolist() == expected.tolist()
            gamma = counts[idx, years[idx] - corpus.year_min :]
            assert gamma.sum() + noise[idx] == len(citer_years)
            assert by_age[idx, : len(gamma)].tolist() == gamma.tolist()
        assert noise.sum() > 0  # the fixture has backward edges

    def test_bounds_outside_the_corpus_years_or_reversed(self):
        corpus = build(
            make_records([("f", 2000, []), ("c1", 2001, ["f"]), ("c3", 2003, ["f"])])
        )
        f, c1 = corpus.work_index("f"), corpus.work_index("c1")
        first = [1990, 2004, 2003, 1990, 2001]
        last = [1999, 2010, 2001, 2010, 2001]
        windows = [window_counts(corpus, a, b) for a, b in zip(first, last)]
        assert [int(counts[f]) for counts in windows] == [0, 0, 0, 2, 1]
        # clipped bounds never reach the citations of a neighbouring work
        assert [int(counts[c1]) for counts in windows] == [0] * 5
        assert corpus.citations_by_year(2003, 2001).shape == (3, 0)

    def test_empty_corpus(self):
        corpus = build([])
        counts = window_counts(corpus, 2000, 2001)
        assert counts.shape == (0,)
        assert corpus.cited_in_years(2000, 2001).shape == (0,)
        assert corpus.citations_by_year(2000, 2001).shape == (0, 2)
        assert corpus.citations_by_age(3).shape == (0, 4)


@st.composite
def dated_corpora(draw):
    """Records over 2000-2008 with self, duplicate and backward references."""
    n = draw(st.integers(1, 12))
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


class TestCitationCountsAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        records=dated_corpora(),
        horizon=st.integers(0, 8),
        bounds=st.tuples(st.integers(1995, 2012), st.integers(1995, 2012)),
    )
    def test_tables_and_windows_count_every_citer(self, records, horizon, bounds):
        corpus = build(records)
        counts = citations_by_citer_year(corpus)
        works, years = range(corpus.n_works), corpus.pub_years.tolist()
        ages = range(horizon + 1)
        by_age = corpus.citations_by_age(horizon)
        assert by_age.shape == (corpus.n_works, horizon + 1)
        assert by_age.tolist() == [[counts[w, years[w] + a] for a in ages] for w in works]
        first, last = bounds
        span = range(first, last + 1)
        by_year = corpus.citations_by_year(first, last)
        assert by_year.shape == (corpus.n_works, len(span))
        assert by_year.tolist() == [[counts[w, y] for y in span] for w in works]
        window = window_counts(corpus, first, last)
        assert window.tolist() == [sum(counts[w, y] for y in span) for w in works]
        # one slice, grouped by the citer's year
        by_citer_year = [corpus.cited_in_years(y, y).tolist() for y in span]
        assert corpus.cited_in_years(first, last).tolist() == sum(by_citer_year, [])


class TestCocitedBag:
    """Hand-computed ``nbnc_all`` terms that pin down the co-cited bag."""

    @staticmethod
    def terms(records, horizon, **options):
        corpus = build(make_records(records))
        table = nbnc_all(corpus, horizon, **options)
        return table.terms[corpus.work_index("f")].tolist()

    UNION = [
        ("f", 2000, []),
        ("a", 2000, []),
        ("b", 2000, []),
        ("P1", 2001, ["f", "a", "b"]),
        ("P2", 2001, ["f", "b"]),
    ]

    def test_multiset_union(self):
        # bag {a, b, b}: N_1 = 3, gamma_1 = 1 + 2 + 2, c_1 = 2
        assert self.terms(self.UNION, 1) == [0.0, 3 * 2 / 5]

    def test_set_semantics(self):
        # bag {a, b}: N_1 = 2, gamma_1 = 1 + 2, c_1 = 2
        assert self.terms(self.UNION, 1, cocited_semantics="set") == [0.0, 2 * 2 / 3]

    def test_no_citers_at_offset(self):
        records = [("f", 2000, []), ("a", 2000, []), ("P", 2002, ["f", "a"])]
        # offset 1 has no citer; offset 2 has bag {a} with gamma_2(a) = 1
        assert self.terms(records, 2) == [0.0, 0.0, 1 * 1 / 1]

    def test_citer_citing_only_focal_contributes_nothing(self):
        assert self.terms([("f", 2000, []), ("P", 2001, ["f"])], 1) == [0.0, 0.0]
        records = [
            ("f", 2000, []),
            ("a", 2000, []),
            ("P1", 2001, ["f", "a"]),
            ("P2", 2001, ["f"]),
        ]
        # bag {a}: N_1 = 1, gamma_1 = 1, while both citers count in c_1 = 2
        assert self.terms(records, 1) == [0.0, 1 * 2 / 1]


# small values repeat; the int32 extremes and wide int64 keys lie far
# outside the other side's range
SET_VALUES = st.one_of(st.integers(-20, 20), st.sampled_from([-(2**31), 2**31 - 1]))
SET_KEYS = st.one_of(st.integers(-20, 20), st.sampled_from([-(2**40), 2**40]))


class TestSortedSetHelpers:
    """The two set helpers against the numpy routines they replace."""

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.one_of(
            arrays(np.int32, st.integers(0, 30), elements=SET_VALUES),
            arrays(np.int64, st.integers(0, 30), elements=SET_KEYS),
        )
    )
    def test_sorted_unique_is_np_unique(self, keys):
        got, want = sorted_unique(keys), np.unique(keys)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        values=arrays(np.int32, st.integers(0, 30), elements=SET_VALUES),
        keys=st.one_of(
            arrays(np.int32, st.integers(0, 30), elements=SET_VALUES),
            arrays(np.int64, st.integers(0, 30), elements=SET_KEYS),
        ),
        as_int64=st.booleans(),
    )
    def test_sorted_member_is_np_isin(self, values, keys, as_int64):
        values = values.astype(np.int64) if as_int64 else values
        keys = np.sort(keys)  # repeated keys stay
        got, want = sorted_member(values, keys), np.isin(values, keys)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()

    def test_empty_and_list_inputs(self):
        assert sorted_member([], [1, 2]).tolist() == []
        assert sorted_member([3, 1], []).tolist() == [False, False]
        grid = np.array([[5, 2], [0, 9]])
        assert sorted_member(grid, [2, 9]).tolist() == [[False, True], [False, True]]
        assert sorted_unique(np.array([[3, 1], [1, 2]])).tolist() == [1, 2, 3]
        assert sorted_unique(np.empty(0, dtype=np.int32)).dtype == np.int32


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        records = random_citation_records(rng, 80)
        corpus = build(records)
        path = tmp_path / "corpus.snap"
        corpus.save_snapshot(path)
        loaded = CitationCorpus.load_snapshot(path)
        assert loaded.ids == corpus.ids
        assert loaded.n_edges == corpus.n_edges
        for i in range(corpus.n_works):
            assert loaded.pub_year_of(i) == corpus.pub_year_of(i)
            assert loaded.subfield_of(i) == corpus.subfield_of(i)
            assert loaded.countries_of(i) == corpus.countries_of(i)
            assert (loaded.references_idx(i) == corpus.references_idx(i)).all()
        resaved = tmp_path / "again.snap"
        loaded.save_snapshot(resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_metrics_identical_after_round_trip(self, tmp_path):
        # downstream stages may start from a snapshot instead of re-parsing;
        # scores must come out bit-identical either way
        from dataclasses import fields

        from scibreak.impact import cd_all, nbnc_all

        rng = np.random.default_rng(13)
        records = random_citation_records(rng, 120)
        corpus = build(records)
        path = tmp_path / "corpus.snap"
        corpus.save_snapshot(path)
        loaded = CitationCorpus.load_snapshot(path)
        for score_all in (nbnc_all, cd_all):
            before, after = score_all(corpus, 6), score_all(loaded, 6)
            for field in fields(before):
                name = field.name
                assert np.array_equal(getattr(before, name), getattr(after, name)), name

    def test_non_ascii_country_codes_counted_not_stored(self, tmp_path):
        # "ÉÉ" is two alphabetic characters but not ASCII; kept, it made
        # save_snapshot fail on its ASCII encode
        records = make_records(
            [("A", 2000, []), ("B", 2001, ["A"])],
            countries={"A": ["ÉÉ", "fr"], "B": ["ÅÄ"]},
        )
        corpus, report = ingest_works(records)
        assert report.invalid_countries == 2
        path = tmp_path / "c.snap"
        corpus.save_snapshot(path)
        loaded = CitationCorpus.load_snapshot(path)
        assert loaded.countries_of(loaded.work_index("A")) == ("FR",)
        assert loaded.countries_of(loaded.work_index("B")) == ()

    def test_corruption_detected(self, tmp_path):
        corpus = build(make_records([("A", 2000, [])]))
        path = tmp_path / "c.snap"
        corpus.save_snapshot(path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            CitationCorpus.load_snapshot(path)

    def test_version_one_file_names_its_version(self, tmp_path):
        corpus = build(make_records([("A", 2000, [])]))
        path = tmp_path / "c.snap"
        corpus.save_snapshot(path)
        body = bytearray(path.read_bytes()[:-32])
        body[8:12] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        with pytest.raises(SnapshotError, match="version 1"):
            CitationCorpus.load_snapshot(path)

    def test_empty_corpus_round_trip(self, tmp_path):
        corpus, _ = ingest_works([])
        path = tmp_path / "empty.snap"
        corpus.save_snapshot(path)
        loaded = CitationCorpus.load_snapshot(path)
        assert loaded.n_works == 0 and loaded.n_edges == 0
        assert loaded.ids == [] and loaded.country_table == ()
        assert loaded.year_min is None

    def test_non_ascii_ids_round_trip(self, tmp_path):
        # ids are stored as one utf-8 blob cut by byte lengths
        ids = ["Ω7", "é", "日本語", "W🎉", "plain"]
        corpus = build(
            make_records([(wid, 2000 + k, ids[:k]) for k, wid in enumerate(ids)])
        )
        path = tmp_path / "c.snap"
        corpus.save_snapshot(path)
        loaded = CitationCorpus.load_snapshot(path)
        assert loaded.ids == ids
        assert _columns(loaded) == _columns(corpus)
        assert loaded.work_index("W🎉") == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(SnapshotError):
            CitationCorpus.load_snapshot(path)

    # A0, B1 (no references), C2 -> [0, 1], D3 -> [0, 1, 2]; country table (DE, US)
    STRUCTURE = make_records(
        [("A", 2000, []), ("B", 2000, []), ("C", 2001, ["A", "B"]), ("D", 2002, ["A", "B", "C"])],
        countries={"A": ["US"], "B": ["DE"], "C": ["US", "DE"], "D": ["DE"]},
    )

    @staticmethod
    def save_with(path, corpus, **changes):
        """Save ``corpus`` with some of its arrays replaced after it was
        built, which the constructor would refuse.  The file is well formed
        and checksummed: save_snapshot checks nothing."""
        for name, values in changes.items():
            setattr(corpus, f"_{name}", np.asarray(values))
        corpus.save_snapshot(path)

    def test_crafted_arrays_reload_unchanged(self, tmp_path):
        corpus = build(self.STRUCTURE)
        assert corpus._out_indptr.tolist() == [0, 0, 0, 2, 5]
        assert corpus._out_indices.tolist() == [0, 1, 0, 1, 2]
        assert corpus._country_codes.tolist() == [1, 0, 1, 0, 0]
        # D's row starts below where C's ended: rows are ascending, not the whole array
        self.save_with(tmp_path / "c.snap", corpus)
        assert _columns(CitationCorpus.load_snapshot(tmp_path / "c.snap")) == _columns(corpus)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"out_indptr": [1, 1, 1, 3, 5]}, "offsets"),
            ({"out_indptr": [0, 0, 3, 2, 5]}, "offsets"),
            ({"out_indptr": [0, 0, 0, 2, 6]}, "offsets"),
            ({"out_indices": [0, 1, 0, 1, 4]}, "index"),
            ({"out_indices": [0, 1, 0, 2, 1]}, "ascending"),
            ({"out_indices": [1, 0, 0, 1, 2]}, "ascending"),
            ({"out_indices": [0, 1, 0, 0, 2]}, "ascending"),
            ({"country_codes": [1, 0, 2, 0, 0]}, "country"),
            # C's row read as int32 is [-2**31, 1]: ascending, but not a work
            ({"out_indices": [2**31, 1, 0, 1, 2]}, "index"),
        ],
    )
    def test_bad_structure_names_the_file(self, tmp_path, changes, message):
        # the checksum covers the bytes, not what they mean
        path = tmp_path / "crafted.snap"
        self.save_with(path, build(self.STRUCTURE), **changes)
        with pytest.raises(SnapshotError, match=message) as caught:
            CitationCorpus.load_snapshot(path)
        assert str(path) in str(caught.value)

    def test_work_count_past_the_file_is_truncation(self, tmp_path):
        corpus = build(self.STRUCTURE)
        path = tmp_path / "c.snap"
        corpus.save_snapshot(path)
        body = bytearray(path.read_bytes()[:-32])
        body[12:20] = (10**6).to_bytes(8, "little")
        path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        with pytest.raises(SnapshotError, match="truncated") as caught:
            CitationCorpus.load_snapshot(path)
        assert str(path) in str(caught.value)

    def test_metrics_refuse_a_reference_past_the_works(self, tmp_path, capsys):
        from scibreak.cli import main

        path = tmp_path / "crafted.snap"
        self.save_with(path, build(self.STRUCTURE), out_indices=[0, 1, 0, 1, 6])
        argv = ["metrics", "--snapshot", str(path), "--out-dir", str(tmp_path / "m")]
        assert main([*argv, "--start", "2000", "--end", "2002"]) == 2
        assert str(path) in capsys.readouterr().err


CUSTOM_MAP = FieldMap(
    work_id="meta.key",
    pub_year="yr",
    references="links.to",
    subfield="topic.sf",
    countries="people.affil.geo",
)
IDS = ["W1", "W2", "W3", "1", "Ω7", "é"]
COUNTRY_ITEMS = ["US", "us", "Us", "DE", "fr", "ÉÉ", "ßa", "USA", "X1", "", "E-", 7, None]
# a work under both schemas, for lines that differ from it only in padding
LINE = json.dumps(
    {"id": "W8", "meta": {"key": "W8"}, "publication_year": 1990, "yr": 1990,
     "referenced_works": ["W1"], "links": {"to": ["W1"]}}
)
JUNK_LINES = [
    "{not json", "[1, 2]", "3", "null", b"\x80{}", b'{"id": "W9"}',
    # JSON whitespace is space, tab, CR and LF only, and a line holds one value
    f" \t{LINE}\r\n", f"\u00a0{LINE}", f"\x0b{LINE}", f"{LINE} x", LINE + LINE,
    f"\ufeff{LINE}", "", "  ", "NaN",
]


def _put(record, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        record = record.setdefault(part, {})
    record[leaf] = value


@st.composite
def noisy_records(draw, schema):
    """Records and raw lines with every kind of noise that ingestion absorbs."""
    # 1, "1", 1.0 and True are four different reference ids
    ref = st.one_of(st.sampled_from(IDS + ["Z9", True, 1.0]), st.integers(1, 3), st.none())
    codes = st.lists(st.sampled_from(COUNTRY_ITEMS), max_size=3)
    # countries sit in a list of authorships, as in OpenAlex: the path's
    # last segment is read from each element of the list at its parent
    parent, leaf = schema.countries.rsplit(".", 1)
    authorship = st.fixed_dictionaries(
        {leaf: st.one_of(codes, st.sampled_from(COUNTRY_ITEMS))}
    )
    fields = {
        "work_id": st.sampled_from(IDS + [1, 2, 3, "", "  ", "B\tA", "b\ud800"]),
        # few years, so that references between works of one year are common
        "pub_year": st.one_of(
            st.integers(1988, 1992),
            st.integers(1988, 1992).map(str),
            st.sampled_from(
                [" 1991 ", "1990.0", "x", 1991.0, 1991.5, True, False, [1991], 2015,
                 2**31, 2**31 - 1, -(2**31), str(-(2**31) - 1)]
            ),
        ),
        "references": st.one_of(st.lists(ref, max_size=6), st.sampled_from(["W1", 5])),
        "subfield": st.one_of(
            st.integers(3100, 3103),
            st.sampled_from(
                ["https://openalex.org/subfields/3101", " sf 3102 ", "none", "",
                 3100.0, 3100.5, True, [], [3101, 3102], ["x"], {"id": 3}, 2**31,
                 "https://openalex.org/subfields/99999999999", -1, -7, False,
                 2**31 - 1, -(2**31), "https://openalex.org/subfields/" + "1" * 5000]
            ),
        ),
        "countries": st.one_of(
            authorship,
            st.lists(
                st.one_of(
                    authorship,
                    st.lists(authorship, max_size=2),
                    st.sampled_from(["US", 7, None]),  # not an authorship
                ),
                max_size=3,
            ),
        ),
    }
    out = []
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 9)) == 0:
            out.append(draw(st.sampled_from(JUNK_LINES)))
            continue
        record = {}
        for name, values in fields.items():
            if draw(st.integers(0, 5)):  # a field is missing one time in six
                path = parent if name == "countries" else getattr(schema, name)
                _put(record, path, draw(values))
        form = draw(st.sampled_from(["dict", "str", "bytes"]))
        if form == "dict":
            out.append(record)
        else:
            line = json.dumps(record)
            out.append(line if form == "str" else line.encode("utf-8"))
    return out


def _columns(corpus):
    n = corpus.n_works
    return (
        corpus.ids,
        corpus.pub_years.tolist(),
        corpus.subfields.tolist(),
        [corpus.countries_of(i) for i in range(n)],
        [corpus.references_idx(i).tolist() for i in range(n)],
        [corpus.citers_idx(i).tolist() for i in range(n)],
    )


class TestAgainstNaiveIngest:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        schema=st.sampled_from([FieldMap(), CUSTOM_MAP]),
        bounds=st.sampled_from([(None, None), (1990, 2010)]),
    )
    def test_equal_to_the_per_record_loop(self, data, schema, bounds):
        records = data.draw(noisy_records(schema))
        corpus, report = ingest_works(
            records, schema, year_min=bounds[0], year_max=bounds[1]
        )
        *expected, expected_report = naive_ingest(records, schema, *bounds)
        assert _columns(corpus) == tuple(expected)
        assert report.as_dict() == expected_report
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.snap"
            corpus.save_snapshot(path)
            loaded = CitationCorpus.load_snapshot(path)
        assert _columns(loaded) == tuple(expected)


class UnequalToAll:
    """A value whose == raises: a getter must tell None apart by identity."""

    def __eq__(self, other):
        raise AssertionError("compared with ==")

    __hash__ = object.__hash__


class ListSubclass(list):
    """Iterates in reverse, so a walk that reads the storage directly is told
    apart from one that iterates."""

    def __iter__(self):
        return reversed(self)


class DictSubclass(dict):
    pass


LEAF = UnequalToAll()
SHAPES = st.recursive(
    st.sampled_from([None, 1, "US", True, 2.5, LEAF]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(ListSubclass),
        st.dictionaries(st.sampled_from("abc"), inner, max_size=3),
        st.dictionaries(st.sampled_from("abc"), inner, max_size=3).map(DictSubclass),
        # the shape of OpenAlex authorships
        st.lists(st.dictionaries(st.sampled_from("abc"), inner, max_size=3), max_size=3),
    ),
    max_leaves=12,
)


class TestGetter:
    @settings(max_examples=400, deadline=None)
    @given(
        record=st.dictionaries(st.sampled_from("abc"), SHAPES, max_size=3),
        path=st.sampled_from(["a", "a.b", "a.b.c", "b.a"]),
    )
    @example(record={"a": [{"b": LEAF}, {"b": [LEAF, None]}]}, path="a.b")
    @example(record={"a": [{"b": ListSubclass([1, "US"])}]}, path="a.b")
    def test_equal_to_the_oracle_walk(self, record, path):
        got, expected = _getter(path)(record), _walk(record, path.split("."))
        assert type(got) is type(expected)
        if isinstance(expected, list):
            assert len(got) == len(expected)
            assert all(g is e for g, e in zip(got, expected))
        else:
            assert got is expected

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from scibreak.analysis import loglog_fit, spearman
from scibreak.clustering import (
    SimilarityMatrix,
    Trajectory,
    dtw_distance,
    leiden_clusters,
    similarity_matrix,
    DistanceMatrix,
)
from scibreak.complexity import BinaryAdjacency, binarize, genepy_scores, rca
from scibreak.config import PipelineConfig
from scibreak.corpus import ingest_works
from scibreak.impact import BreakthroughClass, cd_all, nbnc_all
from scibreak.panel import PanelMatrix, ScoredWorks, select_breakthroughs, subfield_series
from scibreak.pipeline import run_pipeline
from scibreak.synth import synthetic_records, write_jsonl

from conftest import (
    assignments_of,
    build,
    cd_row,
    make_records,
    members_of,
    nbnc_row,
    random_citation_records,
    ranking_rows,
)
from oracles import brute_cd, citation_graph, exhaustive_dtw, naive_nbnc


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_c01_nbnc_oracle_equivalence():
    with criterion("C1 NBNC oracle equivalence (50 corpora, exact)"):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(50):
            records = random_citation_records(
                rng, int(rng.integers(50, 501)), max_refs=5
            )
            corpus = build(records)
            batch = nbnc_all(corpus, 8)
            assert batch.works.tolist() == list(range(corpus.n_works))
            graph = citation_graph(records)
            for record in records:
                expected, terms = naive_nbnc(records, record["id"], 8, graph=graph)
                row = corpus.work_index(record["id"])
                assert batch.value[row] == expected
                assert tuple(batch.terms[row].tolist()) == tuple(terms)
        fixture = build(
            make_records(
                [
                    ("f", 2000, []),
                    ("a", 2000, []),
                    ("b", 2000, []),
                    ("P1", 2001, ["f", "a"]),
                    ("Q1", 2001, ["a"]),
                    ("P2", 2002, ["f", "b"]),
                ]
            )
        )
        assert nbnc_row(fixture, "f", 10).value == 1.5
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_c02_cd_oracle_equivalence_and_bounds():
    with criterion("C2 CD oracle equivalence, bounds, sign fixtures"):
        rng = np.random.default_rng(102)
        for _ in range(10):
            records = random_citation_records(rng, int(rng.integers(30, 201)))
            corpus = build(records)
            for record in records:
                mine = cd_row(corpus, record["id"], 10)
                expected, parts = brute_cd(records, record["id"], 10)
                assert mine.value == expected
                assert (mine.c_x, mine.c_y, mine.c_refs) == parts
                assert -1.0 <= mine.value <= 1.0
        disruptive = [("r", 1999, []), ("f", 2000, ["r"])] + [
            (f"c{i}", 2001, ["f"]) for i in range(7)
        ]
        assert cd_row(build(make_records(disruptive)), "f", 10).value == 1.0
        consolidating = [("r", 1999, []), ("f", 2000, ["r"])] + [
            (f"c{i}", 2001, ["f", "r"]) for i in range(7)
        ]
        assert cd_row(build(make_records(consolidating)), "f", 10).value == -1.0
        balanced = [
            ("r1", 1999, []),
            ("r2", 1999, []),
            ("f", 2000, ["r1", "r2"]),
            ("a", 2001, ["f"]),
            ("b", 2001, ["f", "r1"]),
            ("d", 2001, ["r2"]),
        ]
        assert cd_row(build(make_records(balanced)), "f", 10).value == 0.0


def test_c03_breakthrough_identity_and_selection_size():
    with criterion("C3 breakthrough identity and top-5% size rule"):
        rng = np.random.default_rng(103)
        records_in = random_citation_records(rng, 400)
        corpus = build(records_in)
        scores = nbnc_all(corpus, 6)
        cds = cd_all(corpus, 6)
        chosen = select_breakthroughs(
            corpus, ScoredWorks(scores.works, scores.value, cds.value), 0.05
        )

        pool: dict[int, int] = {}
        for idx in scores.works.tolist():
            year = corpus.pub_year_of(idx)
            pool[year] = pool.get(year, 0) + 1
        sizes: dict[int, int] = {}
        for idx in chosen.works.tolist():
            year = corpus.pub_year_of(idx)
            sizes[year] = sizes.get(year, 0) + 1
        for year, n_pool in pool.items():
            assert sizes[year] == max(1, math.ceil(0.05 * n_pool))

        series = subfield_series(corpus, chosen, range(1990, 2011))
        for bts, cns, dis in zip(series.n_bt, series.n_cn, series.n_di):
            for bt, cn, di in zip(bts.tolist(), cns.tolist(), dis.tolist()):
                assert bt == cn + di
        # every breakthrough of a grid year lands in one row or in unlabeled
        for j, year in enumerate(series.years.tolist()):
            assert int(series.n_bt[:, j].sum() + series.unlabeled[j]) == sizes.get(year, 0)


def test_c04_dtw_exhaustive_oracle():
    with criterion("C4 DTW equals exhaustive-path oracle (>=1000 pairs)"):
        rng = np.random.default_rng(104)
        pairs_checked = 0
        while pairs_checked < 1000:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            a = Trajectory(1, tuple(range(n)), rng.random((n, 2)))
            b = Trajectory(2, tuple(range(m)), rng.random((m, 2)))
            forward = dtw_distance(a, b)
            backward = dtw_distance(b, a)
            assert abs(forward - exhaustive_dtw(a.points, b.points)) <= 1e-12
            assert abs(forward - backward) <= 1e-12
            assert dtw_distance(a, a) == 0.0
            assert forward >= 0.0
            pairs_checked += 1


def test_c05_kernel_and_clustering():
    with criterion("C5 kernel bounds, planted blocks, seeded determinism"):
        rng = np.random.default_rng(105)
        raw = rng.random((9, 9)) * 3
        distances = DistanceMatrix(
            tuple(range(9)), np.abs(raw + raw.T) * (1 - np.eye(9))
        )
        similarity = similarity_matrix(distances, 1.3)
        assert np.allclose(np.diag(similarity.matrix), 1.0)
        assert (similarity.matrix > 0).all()
        assert (similarity.matrix <= 1.0).all()

        planted = np.full((8, 8), 0.01)
        planted[:4, :4] = 0.9
        planted[4:, 4:] = 0.9
        np.fill_diagonal(planted, 1.0)
        sim = SimilarityMatrix(tuple(range(8)), planted, 1.0)
        result = leiden_clusters(sim, seed=13)
        assert len(members_of(result)) == 2
        assert set(members_of(result)[1]) == {0, 1, 2, 3} or set(
            members_of(result)[1]
        ) == {4, 5, 6, 7}
        repeat = leiden_clusters(sim, seed=13)
        assert assignments_of(repeat) == assignments_of(result)
        assert repeat.quality == result.quality


def test_c06_rca_identity_and_scaling():
    with criterion("C6 RCA weighted-mean identity and scaling invariance"):
        rng = np.random.default_rng(106)
        for _ in range(100):
            X = rng.random((int(rng.integers(2, 12)), int(rng.integers(2, 12))))
            X = np.where(rng.random(X.shape) < 0.25, 0.0, X)
            if not (X > 0).any():
                continue
            panel = PanelMatrix(
                (2000, 2009),
                BreakthroughClass.DISRUPTIVE,
                X,
                tuple(f"C{i:02d}" for i in range(X.shape[0])),
                tuple(range(X.shape[1])),
            )
            values = rca(panel).values
            shares = X.sum(axis=1) / X.sum()
            for s in range(X.shape[1]):
                if X[:, s].sum() > 0:
                    assert abs(float(shares @ values[:, s]) - 1.0) <= 1e-12

        counts = rng.integers(1, 40, size=(7, 6))
        def chain(array):
            panel = PanelMatrix(
                (2000, 2009),
                BreakthroughClass.DISRUPTIVE,
                np.asarray(array),
                tuple(f"C{i:02d}" for i in range(7)),
                tuple(range(6)),
            )
            rca_matrix = rca(panel)
            adjacency = binarize(rca_matrix, 1.0)
            c_res, s_res = genepy_scores(adjacency)
            return rca_matrix.values, adjacency.matrix, c_res.scores, s_res.scores
        base_rca, base_m, base_c, base_s = chain(counts)
        for factor in (2.0, 0.5, 3.0, 7.5):
            f_rca, f_m, f_c, f_s = chain(counts * factor)
            assert np.allclose(f_rca, base_rca, rtol=1e-12)
            assert (f_m == base_m).all()
            assert np.allclose(f_c, base_c, rtol=1e-9)
            assert np.allclose(f_s, base_s, rtol=1e-9)


def test_c07_genepy_eigen_correctness():
    with criterion("C7 GENEPY eigenpairs vs dense oracle, equivariance, ties"):
        rng = np.random.default_rng(107)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 31))
            m = int(rng.integers(2, 31))
            M = (rng.random((n, m)) < rng.uniform(0.25, 0.75)).astype(np.int8)
            if (M.sum(axis=1) == 0).any() or (M.sum(axis=0) == 0).any():
                continue
            adjacency = BinaryAdjacency(
                (2000, 2009),
                BreakthroughClass.DISRUPTIVE,
                M,
                tuple(f"C{i:02d}" for i in range(n)),
                tuple(range(m)),
            )
            countries, subfields = genepy_scores(adjacency)
            k = M.sum(axis=1).astype(float)
            k_prime = (M / k[:, None]).sum(axis=0)
            A = M / (k[:, None] * k_prime[None, :])
            for side, result in (("U", countries), ("V", subfields)):
                S = A @ A.T if side == "U" else A.T @ A
                np.fill_diagonal(S, 0.0)
                expected = np.linalg.eigvalsh(S)[::-1]
                for got, want in zip(result.eigenvalues, expected):
                    assert abs(got - want) <= 1e-9
                assert max(result.residuals) <= 1e-9
            done += 1

        # permutation equivariance of country ranks
        M = (np.random.default_rng(1070).random((9, 7)) < 0.5).astype(np.int8)
        M[M.sum(axis=1) == 0, 0] = 1
        M[0, M.sum(axis=0) == 0] = 1
        labels = tuple(f"C{i:02d}" for i in range(9))
        base, _ = genepy_scores(
            BinaryAdjacency((0, 0), BreakthroughClass.DISRUPTIVE, M, labels, tuple(range(7)))
        )
        perm = np.random.default_rng(1071).permutation(9)
        permuted, _ = genepy_scores(
            BinaryAdjacency(
                (0, 0),
                BreakthroughClass.DISRUPTIVE,
                M[perm],
                tuple(labels[i] for i in perm),
                tuple(range(7)),
            )
        )
        assert {e.label: e.rank for e in ranking_rows(base)} == {
            e.label: e.rank for e in ranking_rows(permuted)
        }

        complete, _ = genepy_scores(
            BinaryAdjacency(
                (0, 0),
                BreakthroughClass.DISRUPTIVE,
                np.ones((6, 4), dtype=np.int8),
                tuple(f"C{i:02d}" for i in range(6)),
                tuple(range(4)),
            )
        )
        assert all(e.tie_rank == 1 for e in ranking_rows(complete))


def test_c08_statistics():
    with criterion("C8 Spearman exact half and power-law recovery"):
        assert spearman({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 3, "c": 2}) == 0.5
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        fit = loglog_fit(xs, [2.0 * x**1.5 for x in xs])
        assert abs(fit.exponent - 1.5) <= 1e-9
        assert abs(fit.prefactor - 2.0) <= 1e-9


def test_c09_end_to_end_determinism_and_scale(tmp_path):
    with criterion("C9 20k-work pipeline <60s, byte-identical reruns"):
        works = tmp_path / "works.jsonl"
        write_jsonl(synthetic_records(20_000, seed=7), works)

        # external indicators over the generator's country codes so the
        # correlations stage runs too
        codes = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(40)]
        comparator = tmp_path / "comparator.tsv"
        comparator.write_text(
            "country\tperiod\tvalue\n"
            + "".join(f"{c}\t2005\t{i + 1}\n" for i, c in enumerate(codes)),
            encoding="utf-8",
        )
        rd = tmp_path / "rd.tsv"
        gdp = tmp_path / "gdp.tsv"
        rd.write_text(
            "country\tperiod\tvalue\n"
            + "".join(
                f"{c}\t{y}\t{1.0 + 0.05 * i}\n"
                for i, c in enumerate(codes)
                for y in range(1995, 2005)
            ),
            encoding="utf-8",
        )
        gdp.write_text(
            "country\tperiod\tvalue\n"
            + "".join(
                f"{c}\t{y}\t{50.0 * (i + 1)}\n"
                for i, c in enumerate(codes)
                for y in range(1995, 2005)
            ),
            encoding="utf-8",
        )

        def run(out_root):
            config = PipelineConfig(
                corpus_path=str(works),
                out_root=str(out_root),
                analysis_start=1965,
                analysis_end=2004,
                leiden_seed=11,
                comparator_rank_path=str(comparator),
                rd_share_path=str(rd),
                gdp_path=str(gdp),
                gerd_window=(1995, 2004),
            )
            manifest = run_pipeline(config)
            return manifest, Path(out_root) / manifest["config_hash"]

        started = time.monotonic()
        manifest_a, dir_a = run(tmp_path / "run_a")
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s, budget 60s"
        statuses = {s["name"]: s["status"] for s in manifest_a["stages"]}
        assert all(status == "ok" for status in statuses.values()), statuses
        assert "analysis/spearman.tsv" in manifest_a["outputs"]

        manifest_b, dir_b = run(tmp_path / "run_b")
        assert manifest_a["outputs"] == manifest_b["outputs"]
        for rel in manifest_a["outputs"]:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel


def test_c10_ingestion_robustness():
    with criterion("C10 noisy OpenAlex-shaped ingest: counters and transpose"):
        rows = [
            json.dumps(
                {
                    "id": "W1",
                    "publication_year": 2000,
                    "referenced_works": [],
                    "primary_topic": {"subfield": {"id": 3101}},
                    "authorships": [{"countries": ["US"]}],
                }
            ),
            json.dumps(
                {
                    "id": "W2",
                    "publication_year": 2001,
                    "referenced_works": ["W1", "W404", "W1", "W2"],
                    "authorships": [{"countries": ["DE", "bad", "FR"]}],
                }
            ),
            json.dumps(
                {
                    "id": "W3",
                    "publication_year": 2002,
                    "referenced_works": ["W1", "W2"],
                }
            ),
            "{ truncated json",
            json.dumps({"publication_year": 2001}),
            json.dumps({"id": "W5", "publication_year": "soon"}),
            json.dumps({"id": "W6", "publication_year": 1600}),
            json.dumps({"id": "W2", "publication_year": 2003}),
        ]
        corpus, report = ingest_works(rows, year_min=1900, year_max=2023)
        assert report.works_ingested == 3
        assert report.dangling_refs == 1
        assert report.duplicate_refs == 1
        assert report.self_refs == 1
        assert report.invalid_countries == 1
        assert report.rejected["parse_error"] == 1
        assert report.rejected["missing_id"] == 1
        assert report.rejected["invalid_year"] == 1
        assert report.rejected["year_out_of_range"] == 1
        assert report.rejected["duplicate_id"] == 1

        forward = set()
        for u in range(corpus.n_works):
            for v in corpus.references_idx(u):
                forward.add((u, int(v)))
        backward = set()
        for v in range(corpus.n_works):
            for u in corpus.citers_idx(v):
                backward.add((int(u), v))
        assert forward == backward
        assert len(forward) == 3

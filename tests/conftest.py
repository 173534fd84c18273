"""Shared builders for corpora used across the suite."""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scibreak.clustering import Trajectory
from scibreak.complexity import GenepyResult, _rank_order
from scibreak.corpus import ingest_works
from scibreak.impact import cd_all, nbnc_all


def make_records(spec, subfields=None, countries=None):
    """Records from (id, year, refs) triples plus optional label maps."""
    subfields = subfields or {}
    countries = countries or {}
    records = []
    for wid, year, refs in spec:
        record = {
            "id": wid,
            "publication_year": year,
            "referenced_works": list(refs),
        }
        if wid in subfields:
            record["primary_topic"] = {"subfield": {"id": subfields[wid]}}
        if wid in countries:
            record["authorships"] = [{"countries": list(countries[wid])}]
        records.append(record)
    return records


def build(records, **kw):
    corpus, _ = ingest_works(records, **kw)
    return corpus


def table_row(table, row):
    """Row ``row`` of an NBNC or CD table as one Python value per field: the
    work index as ``works``, a 2-D field's row as a tuple."""
    values = {}
    for field in fields(table):
        column = getattr(table, field.name)
        if isinstance(column, np.ndarray):
            column = tuple(column[row].tolist()) if column.ndim == 2 else column[row].item()
        values[field.name] = column
    return SimpleNamespace(**values)


def _own_year_row(score_all, corpus, wid, horizon, **options):
    idx = corpus.work_index(wid)
    year = int(corpus.pub_years[idx])
    table = score_all(corpus, horizon, (year, year), **options)
    return table_row(table, int(np.flatnonzero(table.works == idx)[0]))


def nbnc_row(corpus, wid, horizon, **options):
    """Work ``wid``'s row of ``nbnc_all`` scored over its own publication year."""
    return _own_year_row(nbnc_all, corpus, wid, horizon, **options)


def cd_row(corpus, wid, horizon):
    """Work ``wid``'s row of ``cd_all`` scored over its own publication year."""
    return _own_year_row(cd_all, corpus, wid, horizon)


RankRow = namedtuple("RankRow", "label rank tie_rank score pruned")


def ranking_rows(result):
    """A GENEPY result's ranking as (label, rank, tie_rank, score, pruned)
    rows, best first and pruned entities last: its ranking table's columns
    as Python values."""
    rank, label, score, tie_rank, pruned = result.table()
    columns = (label, rank.tolist(), tie_rank.tolist(), score.tolist(), pruned.tolist())
    return [RankRow(*row) for row in zip(*columns)]


def scored(labels, scores, pruned=()):
    """A GENEPY result that ranks entities ``labels`` by composite
    ``scores`` and appends ``pruned``, as ``genepy_scores`` builds one;
    its eigenvalues and residuals are empty."""
    labels, scores = tuple(labels), np.asarray(scores, dtype=float)
    order, tie_rank = _rank_order(labels, scores)
    return GenepyResult("countries", labels, (), scores, order, tie_rank, tuple(sorted(pruned)), ())


def assignments_of(result):
    """A clustering result's partition as ``{label: cluster id}``, None for a
    singleton."""
    return {label: cid or None for label, cid in zip(result.labels.tolist(), result.cluster.tolist())}


def members_of(result):
    """A clustering result's clusters as ``{cluster id: member labels}``,
    labels ascending; singletons are in no cluster."""
    members = {}
    for label, cid in zip(result.labels.tolist(), result.cluster.tolist()):
        if cid:
            members.setdefault(cid, []).append(label)
    return {cid: tuple(labels) for cid, labels in sorted(members.items())}


def singletons_of(result):
    """The labels of a clustering result's singletons, ascending."""
    return tuple(result.labels[result.cluster == 0].tolist())


def means_of(years, means):
    """Cluster mean trajectories, as ``cluster_mean_trajectory`` gives them,
    as ``{cluster id: Trajectory}`` with the id as the trajectory's label."""
    grid = tuple(years.tolist())
    return {cid: Trajectory(cid, grid, row) for cid, row in enumerate(means, start=1)}


def random_citation_records(
    rng: np.random.Generator,
    n_works: int,
    *,
    year_lo: int = 1990,
    year_hi: int = 2010,
    max_refs: int = 6,
    n_subfields: int = 8,
    n_countries: int = 6,
    backward_edge_rate: float = 0.05,
):
    """Random corpus records with years, references, and labels.

    A small fraction of references point at works published later than the
    citer (corpus noise), exercising the noise-handling paths.
    """
    years = rng.integers(year_lo, year_hi + 1, size=n_works)
    ids = [f"W{i}" for i in range(n_works)]
    records = []
    for i in range(n_works):
        n_refs = int(rng.integers(0, max_refs + 1))
        refs: list[str] = []
        if n_works > 1 and n_refs:
            candidates = rng.choice(n_works, size=min(n_refs, n_works - 1), replace=False)
            for c in candidates:
                c = int(c)
                if c == i:
                    continue
                if years[c] <= years[i] or rng.random() < backward_edge_rate:
                    refs.append(ids[c])
        record = {
            "id": ids[i],
            "publication_year": int(years[i]),
            "referenced_works": refs,
            "primary_topic": {"subfield": {"id": 3100 + int(rng.integers(0, n_subfields))}},
            "authorships": [
                {
                    "countries": [
                        f"{chr(65 + int(c))}{chr(65 + int(c))}"
                        for c in rng.choice(
                            n_countries, size=int(rng.integers(1, 3)), replace=False
                        )
                    ]
                }
            ],
        }
        records.append(record)
    return records


@pytest.fixture
def six_work_corpus():
    """The hand-checked NBNC fixture: one focal, two co-cited, three citers."""
    return build(
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

"""Breakthrough selection and aggregation into series and country panels.

Breakthroughs are the works whose NBNC score ranks in the top fraction of
their publication year; each carries the sign class of its CD index.  Counts
are aggregated two ways: per-subfield yearly series (with totals taken from
the full corpus, enabling scaled shares), and country x subfield count
matrices over year windows using full counting — every listed country of a
record receives credit 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .corpus import CitationCorpus
from .impact import BreakthroughClass


@dataclass(frozen=True)
class BreakthroughRecord:
    work_id: str
    year: int
    subfield_id: int | None
    country_codes: tuple[str, ...]
    nbnc_value: float
    cd_value: float
    klass: BreakthroughClass


@dataclass(frozen=True)
class SubfieldSeries:
    """Yearly breakthrough counts of one subfield on a fixed year grid.

    ``n_total`` counts all corpus works of the subfield per year, not only
    breakthroughs.  The scaled shares are None until filled by
    :func:`scaled_counts`; years with a zero total are flagged there and
    their shares set to 0.
    """

    subfield_id: int
    years: tuple[int, ...]
    n_total: tuple[int, ...]
    n_bt: tuple[int, ...]
    n_cn: tuple[int, ...]
    n_di: tuple[int, ...]
    scaled_cn: tuple[float, ...] | None = None
    scaled_di: tuple[float, ...] | None = None
    zero_total_years: tuple[int, ...] = ()


@dataclass(frozen=True)
class SeriesResult:
    by_subfield: dict[int, SubfieldSeries]
    unlabeled: dict[int, int]  # year -> selected records lacking a subfield


@dataclass(frozen=True)
class PanelMatrix:
    """Country x subfield breakthrough counts for one window and class."""

    window: tuple[int, int]
    kind: BreakthroughClass
    counts: np.ndarray  # int64, rows = countries, cols = subfields
    countries: tuple[str, ...]
    subfields: tuple[int, ...]
    unattributed: int = 0  # in-window records with no country
    unlabeled: int = 0  # in-window records with no subfield


def select_breakthroughs(
    corpus: CitationCorpus,
    works: np.ndarray,
    nbnc: np.ndarray,
    cd: np.ndarray,
    top_fraction: float,
) -> list[BreakthroughRecord]:
    """Pick the top fraction of scored works per publication year.

    ``works`` holds the corpus indexes of the scored works and ``nbnc`` and
    ``cd`` their scores, row for row.  Each year contributes
    max(1, ceil(top_fraction * n_scored)) records, ordered by NBNC
    descending with ties broken by ascending work id.  Years without scored
    works simply contribute nothing.  The returned list is ordered by year,
    then rank.
    """
    if not (0.0 < top_fraction < 1.0):
        raise ValueError(f"top fraction must be in (0, 1), got {top_fraction}")
    ids = corpus.ids
    wids = [ids[idx] for idx in works.tolist()]
    id_rank = np.empty(len(wids), dtype=np.int64)
    id_rank[sorted(range(len(wids)), key=wids.__getitem__)] = np.arange(len(wids))
    years = corpus.pub_years[works]
    order = np.lexsort((id_rank, -nbnc, years))
    pools = np.split(order, np.flatnonzero(np.diff(years[order])) + 1)
    chosen = np.concatenate(
        [pool[: max(1, math.ceil(top_fraction * len(pool)))] for pool in pools]
    )
    return [
        BreakthroughRecord(
            work_id=ids[idx],
            year=year,
            subfield_id=corpus.subfield_of(idx),
            country_codes=corpus.countries_of(idx),
            nbnc_value=value,
            cd_value=cd_value,
            klass=BreakthroughClass.of(cd_value),
        )
        for idx, year, value, cd_value in zip(
            works[chosen].tolist(),
            years[chosen].tolist(),
            nbnc[chosen].tolist(),
            cd[chosen].tolist(),
        )
    ]


def subfield_series(
    records: Iterable[BreakthroughRecord],
    corpus: CitationCorpus,
    years: Sequence[int],
) -> SeriesResult:
    """Aggregate records into per-subfield yearly series over ``years``.

    The subfield universe is every labeled subfield in the corpus, so
    subfields without breakthroughs still get (all-zero) series.  Records
    lacking a subfield are tallied per year under ``unlabeled`` and excluded
    from the series.
    """
    years = tuple(int(y) for y in years)
    year_pos = {y: i for i, y in enumerate(years)}
    universe = corpus.subfield_universe()

    totals = {s: [0] * len(years) for s in universe}
    for idx in range(corpus.n_works):
        sub = corpus.subfield_of(idx)
        if sub is None:
            continue
        pos = year_pos.get(corpus.pub_year_of(idx))
        if pos is not None:
            totals[sub][pos] += 1

    cn = {s: [0] * len(years) for s in universe}
    di = {s: [0] * len(years) for s in universe}
    unlabeled: dict[int, int] = {}
    for record in records:
        pos = year_pos.get(record.year)
        if pos is None:
            continue
        if record.subfield_id is None or record.subfield_id not in totals:
            unlabeled[record.year] = unlabeled.get(record.year, 0) + 1
            continue
        target = di if record.klass is BreakthroughClass.DISRUPTIVE else cn
        target[record.subfield_id][pos] += 1

    by_subfield = {
        s: SubfieldSeries(
            subfield_id=s,
            years=years,
            n_total=tuple(totals[s]),
            n_bt=tuple(c + d for c, d in zip(cn[s], di[s])),
            n_cn=tuple(cn[s]),
            n_di=tuple(di[s]),
        )
        for s in universe
    }
    return SeriesResult(by_subfield=by_subfield, unlabeled=unlabeled)


def scaled_counts(series: SubfieldSeries) -> SubfieldSeries:
    """Fill scaled shares N_class / N_total; zero-total years flagged as 0."""
    scaled_cn: list[float] = []
    scaled_di: list[float] = []
    flagged: list[int] = []
    for year, total, n_cn, n_di in zip(
        series.years, series.n_total, series.n_cn, series.n_di
    ):
        if total == 0:
            scaled_cn.append(0.0)
            scaled_di.append(0.0)
            flagged.append(year)
        else:
            scaled_cn.append(n_cn / total)
            scaled_di.append(n_di / total)
    return replace(
        series,
        scaled_cn=tuple(scaled_cn),
        scaled_di=tuple(scaled_di),
        zero_total_years=tuple(flagged),
    )


def country_subfield_counts(
    records: Iterable[BreakthroughRecord],
    window: tuple[int, int],
    kind: BreakthroughClass,
) -> PanelMatrix:
    """Count records of one class in a window into a country x subfield matrix.

    Full counting: a record with k countries adds 1 to k cells of its
    subfield column.  Countryless records are tallied as unattributed and
    subfieldless ones as unlabeled; neither enters the matrix.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    cells: dict[tuple[str, int], int] = {}
    unattributed = 0
    unlabeled = 0
    for record in records:
        if record.klass is not kind or not lo <= record.year <= hi:
            continue
        if record.subfield_id is None:
            unlabeled += 1
            continue
        if not record.country_codes:
            unattributed += 1
            continue
        for code in record.country_codes:
            key = (code, record.subfield_id)
            cells[key] = cells.get(key, 0) + 1

    countries = tuple(sorted({c for c, _ in cells}))
    subfields = tuple(sorted({s for _, s in cells}))
    counts = np.zeros((len(countries), len(subfields)), dtype=np.int64)
    row = {c: i for i, c in enumerate(countries)}
    col = {s: j for j, s in enumerate(subfields)}
    for (code, sub), value in cells.items():
        counts[row[code], col[sub]] = value
    return PanelMatrix(
        window=(lo, hi),
        kind=kind,
        counts=counts,
        countries=countries,
        subfields=subfields,
        unattributed=unattributed,
        unlabeled=unlabeled,
    )


def decade_windows(
    start: int, end: int, width: int = 10
) -> list[tuple[int, int]]:
    """Consecutive [lo, hi] windows covering start..end; last may be short."""
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    windows = []
    lo = start
    while lo <= end:
        windows.append((lo, min(lo + width - 1, end)))
        lo += width
    return windows

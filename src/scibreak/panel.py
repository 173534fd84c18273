"""Breakthrough selection and aggregation into series and country panels.

Scores travel as :class:`ScoredWorks`, arrays of corpus indexes with their
NBNC and CD row for row.  Breakthroughs are the rows whose NBNC ranks in the
top fraction of their publication year; their year, subfield and countries
are read from the corpus by index and their class is the sign of CD
(:meth:`BreakthroughClass.holds`).  Counts are aggregated two ways: a
:class:`SeriesTable` of (subfield x year) count arrays, with totals taken
from the full corpus, enabling scaled shares; and country x subfield count
matrices over year windows using full counting — every listed country of a
breakthrough receives credit 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import CitationCorpus, sorted_unique
from .impact import BreakthroughClass


@dataclass(frozen=True, eq=False)
class ScoredWorks:
    """NBNC and CD of a set of works, one array row per work of ``works``."""

    works: np.ndarray  # corpus indexes
    nbnc: np.ndarray
    cd: np.ndarray

    def __len__(self) -> int:
        return len(self.works)

    def take(self, rows: np.ndarray) -> "ScoredWorks":
        """The rows picked by an index array or a boolean mask."""
        return ScoredWorks(self.works[rows], self.nbnc[rows], self.cd[rows])


@dataclass(frozen=True, eq=False)
class SeriesTable:
    """Yearly breakthrough counts of every subfield on one year grid.

    The count arrays are (subfield, year), rows in ``subfields`` order and
    columns in ``years`` order.  ``n_total`` counts all corpus works of the
    subfield per year, not only breakthroughs.  ``unlabeled`` counts, per
    year, the breakthroughs without a subfield, which no row holds.  The
    scaled shares are None until filled by :func:`scaled_counts`.
    """

    subfields: np.ndarray  # (S,) ascending
    years: np.ndarray  # (Y,) ascending
    n_total: np.ndarray
    n_bt: np.ndarray
    n_cn: np.ndarray
    n_di: np.ndarray
    unlabeled: np.ndarray  # (Y,)
    scaled_cn: np.ndarray | None = None
    scaled_di: np.ndarray | None = None


@dataclass(frozen=True)
class PanelMatrix:
    """Country x subfield breakthrough counts for one window and class."""

    window: tuple[int, int]
    kind: BreakthroughClass
    counts: np.ndarray  # int64, rows = countries, cols = subfields
    countries: tuple[str, ...]
    subfields: tuple[int, ...]
    unattributed: int = 0  # in-window breakthroughs with no country
    unlabeled: int = 0  # in-window breakthroughs with no subfield


def select_breakthroughs(
    corpus: CitationCorpus, scored: ScoredWorks, top_fraction: float
) -> ScoredWorks:
    """Pick the top fraction of scored works per publication year.

    Each year contributes max(1, ceil(top_fraction * n_scored)) rows, ordered
    by NBNC descending with ties broken by ascending work id.  Years without
    scored works simply contribute nothing.  The chosen rows are ordered by
    year, then rank.
    """
    if not (0.0 < top_fraction < 1.0):
        raise ValueError(f"top fraction must be in (0, 1), got {top_fraction}")
    years = corpus.pub_years[scored.works]
    order = np.lexsort((corpus.id_rank[scored.works], -scored.nbnc, years))
    pools = np.split(order, np.flatnonzero(np.diff(years[order])) + 1)
    return scored.take(
        np.concatenate(
            [pool[: max(1, math.ceil(top_fraction * len(pool)))] for pool in pools]
        )
    )


def _positions(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index of each value in the ascending ``grid``; ``len(grid)`` if absent."""
    pos = np.searchsorted(grid, values)
    found = pos < len(grid)
    found[found] = grid[pos[found]] == values[found]
    return np.where(found, pos, len(grid))


def _tally(corpus: CitationCorpus, works, subfields: np.ndarray, years: np.ndarray):
    """(S + 1, Y + 1) counts of ``works`` by subfield and publication year;
    the last row and column collect works off the subfields and year grid."""
    rows = _positions(corpus.subfields[works], subfields)
    cols = _positions(corpus.pub_years[works], years)
    shape = (len(subfields) + 1, len(years) + 1)
    flat = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return flat.reshape(shape)


def subfield_series(
    corpus: CitationCorpus, chosen: ScoredWorks, years: Sequence[int]
) -> SeriesTable:
    """Count the breakthroughs ``chosen`` into subfield series over ``years``.

    The subfield universe is every labeled subfield in the corpus, so
    subfields without breakthroughs still get (all-zero) rows.
    Breakthroughs lacking a subfield are tallied per year under
    ``unlabeled``; those of years off the grid count nowhere.
    """
    subfields = np.asarray(corpus.subfield_universe(), dtype=np.int64)
    grid = np.asarray(years, dtype=np.int64)
    disruptive = BreakthroughClass.DISRUPTIVE.holds(chosen.cd)
    rows = (slice(None), chosen.works, chosen.works[~disruptive], chosen.works[disruptive])
    total, bt, cn, di = (_tally(corpus, works, subfields, grid) for works in rows)
    return SeriesTable(
        subfields=subfields,
        years=grid,
        n_total=total[:-1, :-1],
        n_bt=bt[:-1, :-1],
        n_cn=cn[:-1, :-1],
        n_di=di[:-1, :-1],
        unlabeled=bt[-1, :-1],
    )


def scaled_counts(series: SeriesTable) -> SeriesTable:
    """Fill scaled shares N_class / N_total; zero-total cells get 0."""
    total = series.n_total

    def share(counts: np.ndarray) -> np.ndarray:
        return np.divide(counts, total, out=np.zeros(total.shape), where=total > 0)

    return replace(series, scaled_cn=share(series.n_cn), scaled_di=share(series.n_di))


def _in_window(
    corpus: CitationCorpus,
    chosen: ScoredWorks,
    window: tuple[int, int],
    kind: BreakthroughClass,
) -> np.ndarray:
    """Corpus indexes of the ``kind`` breakthroughs published in ``window``."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    years = corpus.pub_years[chosen.works]
    return chosen.works[kind.holds(chosen.cd) & (lo <= years) & (years <= hi)]


def country_subfield_counts(
    corpus: CitationCorpus,
    chosen: ScoredWorks,
    window: tuple[int, int],
    kind: BreakthroughClass,
) -> PanelMatrix:
    """Count breakthroughs of one class in a window into a country x subfield matrix.

    Full counting: a breakthrough with k countries adds 1 to k cells of its
    subfield column.  Countryless breakthroughs are tallied as unattributed
    and subfieldless ones as unlabeled; neither enters the matrix.
    """
    works = _in_window(corpus, chosen, window, kind)
    subs = corpus.subfields[works]
    labeled = works[subs >= 0]
    owners, codes = corpus.country_pairs(labeled)
    countries, rows = np.unique(codes, return_inverse=True)
    subfields, cols = np.unique(subs[subs >= 0][owners], return_inverse=True)
    shape = (len(countries), len(subfields))
    cells = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1])
    return PanelMatrix(
        window=tuple(window),
        kind=kind,
        counts=cells.reshape(shape),
        countries=tuple(corpus.country_table[c] for c in countries.tolist()),
        subfields=tuple(subfields.tolist()),
        unattributed=len(labeled) - len(sorted_unique(owners)),
        unlabeled=len(works) - len(labeled),
    )


def country_counts(
    corpus: CitationCorpus,
    chosen: ScoredWorks,
    window: tuple[int, int],
    kind: BreakthroughClass,
) -> dict[str, int]:
    """Full count per country of the ``kind`` breakthroughs in ``window``,
    which unlike the panels counts breakthroughs without a subfield too."""
    _, codes = corpus.country_pairs(_in_window(corpus, chosen, window, kind))
    countries, counts = np.unique(codes, return_counts=True)
    return {corpus.country_table[c]: n for c, n in zip(countries.tolist(), counts.tolist())}


def decade_windows(
    start: int, end: int, width: int = 10
) -> list[tuple[int, int]]:
    """Consecutive [lo, hi] windows covering start..end; last may be short."""
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    if start > end:
        raise ValueError(f"start {start} after end {end}")
    return [(lo, min(lo + width - 1, end)) for lo in range(start, end + 1, width)]

"""Impact metrics over a citation corpus, computed for many works at once.

Both scores of a focal work f at an integer horizon T are built from its
in-window citing edges c -> f, those with 0 <= year(c) - year(f) <= T.
Citing works dated before the focal year are corpus noise and never count.

* NBNC — the network-based normalized citation score (Ke, Gates & Barabási
  2023).  At each offset t in 0..T the c_t citations f receives are
  normalized by the citations of the works co-cited with it:

      term_t = N_t * c_t / sum_{j in B_t} gamma_t(j)

  The co-cited bag B_t holds, for each citer c at offset t, every reference
  r != f of c: once per (c, r) pair under ``multiset`` semantics, once per
  distinct r under ``set``; N_t = |B_t|.  gamma_t(j) is j's citation count
  in calendar year year(j) + t (``own_age``) or year(f) + t
  (``focal_calendar``, 0 before j is published).  The kernel expands the
  in-window edges into (f, t, r) triples, reads each gamma from a table of
  citation counts and sums bag sizes and denominators per (f, t) cell.  The
  table holds every work's citations by age 0..T (``own_age``, one
  ``np.bincount`` per call) or is a ring of T + 1 rows of citations by
  calendar year, one row per year mod T + 1 (``focal_calendar``): from one
  publication year to the next only the years that enter the window
  year(f)..year(f) + T are counted, one ``np.bincount`` each.  Offsets with no
  citations or no co-citation evidence contribute exactly 0.  NBNC adds
  the yearly terms left to right, as ``sum`` does.

* CD — the disruption index (Funk & Owen-Smith 2017).  With
  k(c, f) = |refs(c) ∩ refs(f)| over the in-window citers c of f:

      C_y    = #{c : k(c, f) > 0},   C_x = #{c : k(c, f) = 0}
      C_refs = sum_{r in refs(f)} N_r[year(f), year(f) + T]
               - |refs(f)| - sum_c k(c, f)

  where N_r[a, b] counts the citations r receives from works published in
  a..b.  The two subtractions remove f's own citations of its references
  and those made by f's citers, leaving the works that cite f's references
  but not f.  CD = (C_x - C_y) / (C_x + C_y + C_refs) lies in [-1, 1]; a
  zero denominator yields 0 with a flag.  N_r[year(f), year(f) + T] of every
  work r is one count vector, slid from one publication year to the next:
  each citer year's citations enter it once and leave it once.  The kernel
  finds k(c, f) by a binary search of each (f, reference of c) key into the
  focal works' (f, reference of f) keys.  Those are ascending without a
  sort because each reference row of the corpus is strictly ascending, the
  CSR order that ingest builds and ``load_snapshot`` checks.

:func:`nbnc_all` and :func:`cd_all` score the works of a year range in
blocks of one publication year, so the expanded edges of only one year are
held at a time.  Results are tables of arrays with one row per focal work,
in the order of ``works``; there is no one-work call, and one work's scores
are its row in any range that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import CitationCorpus, sorted_member, sorted_unique

# the allowed values of the two NBNC options
COCITED_SEMANTICS = ("multiset", "set")
GAMMA_CONVENTIONS = ("own_age", "focal_calendar")


class BreakthroughClass(Enum):
    DISRUPTIVE = "DI"
    CONSOLIDATING = "CN"

    def holds(self, cd: np.ndarray | float) -> np.ndarray:
        """Whether each CD value is of this class: disruptive iff CD > 0, so
        zero (including flagged zeros) consolidates."""
        return (np.asarray(cd) > 0) == (self is BreakthroughClass.DISRUPTIVE)


@dataclass(frozen=True, eq=False)
class NbncTable:
    """NBNC of a set of works, one array row per work of ``works``.

    ``terms`` is (works, horizon + 1) and ``value`` adds each row's terms
    left to right.  ``truncated`` is the ``truncated_horizon`` flag: the
    horizon extends past the corpus's last publication year, so late years
    are structurally empty.
    """

    works: np.ndarray
    horizon: int
    terms: np.ndarray
    value: np.ndarray
    truncated: np.ndarray

    def __len__(self) -> int:
        return len(self.works)


@dataclass(frozen=True, eq=False)
class CdTable:
    """CD of a set of works with its integer components, one row per work.

    ``zero_denominator`` marks works with no citation evidence at all; their
    value is 0.
    """

    works: np.ndarray
    horizon: int
    c_x: np.ndarray
    c_y: np.ndarray
    c_refs: np.ndarray
    value: np.ndarray
    zero_denominator: np.ndarray

    def __len__(self) -> int:
        return len(self.works)


def nbnc_all(
    corpus: CitationCorpus,
    horizon: int,
    year_range: tuple[int, int] | None = None,
    *,
    cocited_semantics: str = "multiset",
    gamma_convention: str = "own_age",
) -> NbncTable:
    """NBNC for every work published in ``year_range`` (whole corpus if None).

    Rows are in work-index order, so the result is deterministic however the
    corpus was built up; a work's row is the same in any range that holds it.
    """
    _check_horizon(horizon)
    if cocited_semantics not in COCITED_SEMANTICS:
        raise ValueError(f"unknown co-citation semantics: {cocited_semantics!r}")
    if gamma_convention not in GAMMA_CONVENTIONS:
        raise ValueError(f"unknown gamma convention: {gamma_convention!r}")
    works = _works_in_range(corpus, year_range)
    terms = np.zeros((len(works), horizon + 1))
    own_age = gamma_convention == "own_age"
    if own_age:  # j's citations at age t are counts[j, t]
        counts = corpus.citations_by_age(horizon)
    else:  # j's citations in calendar year y are counts[y % (horizon + 1), j]
        counts = np.zeros((horizon + 1, corpus.n_works), dtype=np.int64)
        filled = (corpus.year_min or 0) - 1  # the last year the ring holds
    for year, rows in _year_blocks(corpus, works):
        if not own_age:  # the years that enter the window, across any gap
            for calendar in range(max(filled + 1, year), year + horizon + 1):
                column = corpus.citations_by_year(calendar, calendar)[:, 0]
                counts[calendar % (horizon + 1)] = column
            filled = year + horizon
        terms[rows] = _nbnc_terms(
            corpus, works[rows], year, horizon, cocited_semantics, own_age, counts
        )
    value = sum(terms.T)  # left to right, as the oracle's sum() adds the terms
    truncated = corpus.pub_years[works] + horizon > (corpus.year_max or 0)
    return NbncTable(works, horizon, terms, value, truncated)


def cd_all(
    corpus: CitationCorpus,
    horizon: int,
    year_range: tuple[int, int] | None = None,
) -> CdTable:
    """CD index for every work published in ``year_range``, rows as in
    :func:`nbnc_all`."""
    _check_horizon(horizon)
    works = _works_in_range(corpus, year_range)
    parts = np.zeros((3, len(works)), dtype=np.int64)
    # N_r[year, year + horizon] of every work r, slid from block to block:
    # each citer year enters the window once and leaves it once
    window = np.zeros(corpus.n_works, dtype=np.int64)
    end = (corpus.year_min or 0) - 1
    start = end + 1  # the window counts citer years start..end
    for year, rows in _year_blocks(corpus, works):
        np.subtract.at(window, corpus.cited_in_years(start, min(end, year - 1)), 1)
        np.add.at(window, corpus.cited_in_years(max(end + 1, year), year + horizon), 1)
        start, end = year, year + horizon
        parts[:, rows] = _cd_parts(corpus, works[rows], year, horizon, window)
    c_x, c_y, c_refs = parts
    denom = c_x + c_y + c_refs
    value = np.divide(c_x - c_y, denom, out=np.zeros(len(works)), where=denom > 0)
    return CdTable(works, horizon, c_x, c_y, c_refs, value, denom == 0)


# -- kernels -------------------------------------------------------------------


def _works_in_range(
    corpus: CitationCorpus, year_range: tuple[int, int] | None
) -> np.ndarray:
    years = corpus.pub_years
    if year_range is None:
        return np.arange(len(years))
    lo, hi = year_range
    return np.nonzero((lo <= years) & (years <= hi))[0]


def _check_horizon(horizon: int) -> None:
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")


def _year_blocks(corpus: CitationCorpus, works: np.ndarray):
    """Yield (year, rows of ``works`` published that year), year by year."""
    if not len(works):
        return
    years = corpus.pub_years[works]
    order = np.argsort(years, kind="stable")
    bounds = np.flatnonzero(np.diff(years[order])) + 1
    for rows in np.split(order, bounds):
        yield int(years[rows[0]]), rows


def _window_edges(
    corpus: CitationCorpus, works: np.ndarray, year: int, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-window citing edges of ``works`` (all published in ``year``).

    Returns (position in ``works``, citer, offset) per edge.
    """
    owner, citer = corpus.citer_pairs(works)
    offset = corpus.pub_years[citer] - year
    keep = (offset >= 0) & (offset <= horizon)
    return owner[keep], citer[keep], offset[keep]


def _nbnc_terms(
    corpus: CitationCorpus,
    works: np.ndarray,
    year: int,
    horizon: int,
    semantics: str,
    own_age: bool,
    counts: np.ndarray,
) -> np.ndarray:
    """Yearly NBNC terms of ``works``, all published in ``year``; ``counts``
    holds gamma_t(j) at ``[j, t]`` (``own_age``) or ``[(year + t) %
    (horizon + 1), j]`` (``focal_calendar``)."""
    n_cells = len(works) * (horizon + 1)
    owner, citer, offset = _window_edges(corpus, works, year, horizon)
    cell = owner * (horizon + 1) + offset
    cites = np.bincount(cell, minlength=n_cells)

    edge, member = corpus.reference_pairs(citer)
    bagged = member != works[owner[edge]]
    member_cell = cell[edge[bagged]]
    member = member[bagged]
    if semantics == "set":
        unique = sorted_unique(member_cell * corpus.n_works + member)
        member_cell, member = np.divmod(unique, corpus.n_works)
    member_year = corpus.pub_years[member]
    offset = member_cell % (horizon + 1)
    if own_age:
        gamma = counts[member, offset]
    else:
        gamma = counts[(year + offset) % (horizon + 1), member]
    calendar = (member_year if own_age else year) + offset
    gamma[calendar < member_year] = 0  # focal_calendar before j's publication
    size = np.bincount(member_cell, minlength=n_cells)
    # integer sums below 2**53 are exact in float64
    denom = np.bincount(member_cell, weights=gamma, minlength=n_cells)
    terms = np.divide(size * cites, denom, out=np.zeros(n_cells), where=denom > 0)
    return terms.reshape(len(works), horizon + 1)


def _cd_parts(
    corpus: CitationCorpus,
    works: np.ndarray,
    year: int,
    horizon: int,
    window: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C_x, C_y, C_refs) of ``works``, all published in ``year``; ``window``
    holds N_r[year, year + horizon] of every work r."""
    n = len(works)
    owner, citer, _ = _window_edges(corpus, works, year, horizon)
    ref_owner, ref = corpus.reference_pairs(works)
    edge, member = corpus.reference_pairs(citer)
    # the (citer, reference) pairs where the focal work cites that reference
    # too; rows in order, each strictly ascending, make the keys ascending
    shared = edge[
        sorted_member(
            owner[edge] * corpus.n_works + member, ref_owner * corpus.n_works + ref
        )
    ]
    coupled = np.zeros(len(citer), dtype=bool)
    coupled[shared] = True

    c_total = np.bincount(owner, minlength=n)
    c_y = np.bincount(owner[coupled], minlength=n)
    ref_cites = window[ref]
    c_refs = (
        np.bincount(ref_owner, weights=ref_cites, minlength=n).astype(np.int64)
        - np.bincount(ref_owner, minlength=n)
        - np.bincount(owner[shared], minlength=n)
    )
    return c_total - c_y, c_y, c_refs

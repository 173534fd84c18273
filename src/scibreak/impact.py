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
  in-window edges into (f, t, r) triples, looks each gamma up in the
  corpus's citation-year key and sums bag sizes and denominators per (f, t)
  cell.  Offsets with no citations or no co-citation evidence contribute
  exactly 0.  NBNC adds the yearly terms left to right, as ``sum`` does.

* CD — the disruption index (Funk & Owen-Smith 2017).  With
  k(c, f) = |refs(c) ∩ refs(f)| over the in-window citers c of f:

      C_y    = #{c : k(c, f) > 0},   C_x = #{c : k(c, f) = 0}
      C_refs = sum_{r in refs(f)} N_r[year(f), year(f) + T]
               - |refs(f)| - sum_c k(c, f)

  where N_r[a, b] counts the citations r receives from works published in
  a..b.  The two subtractions remove f's own citations of its references
  and those made by f's citers, leaving the works that cite f's references
  but not f.  CD = (C_x - C_y) / (C_x + C_y + C_refs) lies in [-1, 1]; a
  zero denominator yields 0 with a flag.  The kernel finds k(c, f) by a
  binary search of each (f, reference of c) key into the focal works'
  (f, reference of f) keys.  Those are ascending without a sort because
  each reference row of the corpus is strictly ascending, the CSR order
  that ingest builds and ``load_snapshot`` checks.

Both kernels take an array of focal works and process it in blocks of one
publication year, so the expanded edges of only one year are held at a
time.  Results are tables of arrays with one row per focal work, in the
order of ``works``; the one-work calls :func:`nbnc` and :func:`cd_index`
read row 0 of a one-work table into a score object.
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

    @classmethod
    def of(cls, cd_value: float) -> "BreakthroughClass":
        """The class of one CD value, by the rule of :meth:`holds`."""
        return cls.DISRUPTIVE if cls.DISRUPTIVE.holds(cd_value) else cls.CONSOLIDATING

    def holds(self, cd: np.ndarray | float) -> np.ndarray:
        """Whether each CD value is of this class: disruptive iff CD > 0, so
        zero (including flagged zeros) consolidates."""
        return (np.asarray(cd) > 0) == (self is BreakthroughClass.DISRUPTIVE)


@dataclass(frozen=True)
class NbncScore:
    """NBNC value of one work plus its per-year terms.

    ``truncated_horizon`` flags works whose horizon extends past the last
    publication year in the corpus, so late years are structurally empty.
    """

    work_id: str
    horizon: int
    value: float
    yearly_terms: tuple[float, ...]
    truncated_horizon: bool


@dataclass(frozen=True)
class CdScore:
    """CD index of one work with its integer components.

    ``c_total`` is always ``c_x + c_y``.  ``zero_denominator`` marks works
    where no citation evidence exists at all; their value is 0.
    """

    work_id: str
    horizon: int
    value: float
    c_x: int
    c_y: int
    c_total: int
    c_refs: int
    zero_denominator: bool


@dataclass(frozen=True, eq=False)
class NbncTable:
    """NBNC of a set of works, one array row per work of ``works``.

    ``terms`` is (works, horizon + 1) and ``value`` adds each row's terms
    left to right; ``truncated`` is the ``truncated_horizon`` flag.
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
    """CD of a set of works with its integer components, one row per work."""

    works: np.ndarray
    horizon: int
    c_x: np.ndarray
    c_y: np.ndarray
    c_refs: np.ndarray
    value: np.ndarray
    zero_denominator: np.ndarray

    def __len__(self) -> int:
        return len(self.works)


def nbnc(
    corpus: CitationCorpus,
    work_id: str,
    horizon: int,
    *,
    cocited_semantics: str = "multiset",
    gamma_convention: str = "own_age",
) -> NbncScore:
    """Normalized citation score of one work at the given horizon.

    ``gamma_convention`` selects how a co-cited work j is aged in the
    denominator: ``own_age`` reads its citations at offset t from j's own
    publication year; ``focal_calendar`` reads them in the calendar year the
    focal work turns t.
    """
    works = np.array([corpus.work_index(work_id)])
    table = _nbnc_table(corpus, works, horizon, cocited_semantics, gamma_convention)
    return NbncScore(
        work_id,
        horizon,
        table.value.item(0),
        tuple(table.terms[0].tolist()),
        table.truncated.item(0),
    )


def nbnc_all(
    corpus: CitationCorpus,
    horizon: int,
    year_range: tuple[int, int] | None = None,
    *,
    cocited_semantics: str = "multiset",
    gamma_convention: str = "own_age",
) -> NbncTable:
    """NBNC for every work published in ``year_range`` (whole corpus if None).

    Row i equals calling :func:`nbnc` on ``works[i]``; rows are in work-index
    order, so the result is deterministic however the corpus was built up.
    """
    return _nbnc_table(
        corpus,
        _works_in_range(corpus, year_range),
        horizon,
        cocited_semantics,
        gamma_convention,
    )


def cd_index(corpus: CitationCorpus, work_id: str, horizon: int) -> CdScore:
    """Disruption index of one work over citers within the horizon window.

    The window covers citing works published between the focal year and
    focal year + horizon inclusive; earlier citing works are corpus noise
    and ignored.  Reference citations are counted per citing edge.
    """
    works = np.array([corpus.work_index(work_id)])
    table = _cd_table(corpus, works, horizon)
    c_x, c_y = table.c_x.item(0), table.c_y.item(0)
    return CdScore(
        work_id,
        horizon,
        table.value.item(0),
        c_x,
        c_y,
        c_x + c_y,
        table.c_refs.item(0),
        table.zero_denominator.item(0),
    )


def cd_all(
    corpus: CitationCorpus,
    horizon: int,
    year_range: tuple[int, int] | None = None,
) -> CdTable:
    """CD index for every work published in ``year_range``."""
    return _cd_table(corpus, _works_in_range(corpus, year_range), horizon)


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


def _nbnc_table(
    corpus: CitationCorpus,
    works: np.ndarray,
    horizon: int,
    semantics: str,
    convention: str,
) -> NbncTable:
    _check_horizon(horizon)
    if semantics not in COCITED_SEMANTICS:
        raise ValueError(f"unknown co-citation semantics: {semantics!r}")
    if convention not in GAMMA_CONVENTIONS:
        raise ValueError(f"unknown gamma convention: {convention!r}")
    terms = np.zeros((len(works), horizon + 1))
    for year, rows in _year_blocks(corpus, works):
        terms[rows] = _nbnc_terms(
            corpus, works[rows], year, horizon, semantics, convention
        )
    value = sum(terms.T)  # left to right, as the oracle's sum() adds the terms
    truncated = corpus.pub_years[works] + horizon > (corpus.year_max or 0)
    return NbncTable(works, horizon, terms, value, truncated)


def _nbnc_terms(
    corpus: CitationCorpus,
    works: np.ndarray,
    year: int,
    horizon: int,
    semantics: str,
    convention: str,
) -> np.ndarray:
    """Yearly NBNC terms of ``works``, all published in ``year``."""
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
    calendar = (member_year if convention == "own_age" else year) + (
        member_cell % (horizon + 1)
    )
    gamma = corpus.citations_in_years(member, calendar, calendar)
    gamma[calendar < member_year] = 0  # focal_calendar before j's publication
    size = np.bincount(member_cell, minlength=n_cells)
    # integer sums below 2**53 are exact in float64
    denom = np.bincount(member_cell, weights=gamma, minlength=n_cells)
    terms = np.divide(size * cites, denom, out=np.zeros(n_cells), where=denom > 0)
    return terms.reshape(len(works), horizon + 1)


def _cd_table(corpus: CitationCorpus, works: np.ndarray, horizon: int) -> CdTable:
    _check_horizon(horizon)
    parts = np.zeros((3, len(works)), dtype=np.int64)
    for year, rows in _year_blocks(corpus, works):
        parts[:, rows] = _cd_parts(corpus, works[rows], year, horizon)
    c_x, c_y, c_refs = parts
    denom = c_x + c_y + c_refs
    value = np.divide(c_x - c_y, denom, out=np.zeros(len(works)), where=denom > 0)
    return CdTable(works, horizon, c_x, c_y, c_refs, value, denom == 0)


def _cd_parts(
    corpus: CitationCorpus, works: np.ndarray, year: int, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C_x, C_y, C_refs) of ``works``, all published in ``year``."""
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
    ref_cites = corpus.citations_in_years(ref, year, year + horizon)
    c_refs = (
        np.bincount(ref_owner, weights=ref_cites, minlength=n).astype(np.int64)
        - np.bincount(ref_owner, minlength=n)
        - np.bincount(owner[shared], minlength=n)
    )
    return c_total - c_y, c_y, c_refs

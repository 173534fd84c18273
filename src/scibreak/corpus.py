"""Citation corpus: ingestion, temporal citation queries, and snapshots.

The corpus is an immutable, index-based citation graph.  Works are kept in
stream order; reference adjacency is stored in compressed sparse rows sorted
by work index, and the citing adjacency is its exact transpose, built on
first use.  Citation counts by citer year or by age come from ``np.bincount``
over edges grouped by the citer's publication year, with no search per
count.  All query operations are pure, so a corpus can be shared freely
across concurrent readers once built.

Input lines are decoded as UTF-8; a line that is not valid UTF-8 is a parse
error.

Input records are newline-delimited JSON objects.  The field mapping defaults
to the layout of OpenAlex works exports and can be remapped through
:class:`FieldMap`.  Gzip-compressed inputs are detected by magic bytes.
Several input files are read as one stream, in the order given.

Ingestion keeps one id table for works and references alike: each id is
interned to an int key in first-seen order, and the table records which
work, if any, claimed that key.  The same table answers the duplicate-id
check and resolves references, which are kept as key lists and turned
into the reference CSR by array passes after the last record.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from json.scanner import make_scanner
from operator import is_not
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

SNAPSHOT_MAGIC = b"SCBKSNP1"
SNAPSHOT_VERSION = 2

_TRAILING_DIGITS = re.compile(r"(\d+)\s*$")
# a tab, CR or LF would split an id's TSV row, and a lone surrogate has no
# UTF-8 encoding for the snapshot
_BAD_ID_CHAR = re.compile("[\t\n\r\ud800-\udfff]")
# the C scanner behind json.loads, called without json.loads' wrapper
_SCAN = make_scanner(json.JSONDecoder())
_PARSE_ERROR = object()
_NOT_NONE = partial(is_not, None)  # by identity: no __eq__ is called
# a byte that is not UTF-8 decodes to U+DC80..U+DCFF under "surrogateescape"
_UNDECODED = re.compile("[\udc80-\udcff]")


class _Interner(dict):
    """Key -> 0, 1, 2, ... in first-seen order, for exact ``str`` keys only.

    ``work[key]`` is the index of the work whose id the key is, -1 until a
    record claims it.  A lookup of any other key raises ``TypeError``: a
    missing one here, an unhashable one in the lookup itself.
    """

    __slots__ = ("work",)

    def __init__(self) -> None:
        super().__init__()
        self.work: list[int] = []

    def __missing__(self, key: Any) -> int:
        if type(key) is not str:
            raise TypeError(f"not an exact str: {type(key).__name__}")
        self[key] = value = len(self)
        self.work.append(-1)
        return value


class _CountryKeys(dict):
    """Raw country entry -> key of its upper-cased code, codes keyed 0, 1,
    2, ... in first-seen order; -1 for an entry that is not two ASCII
    letters.  Each distinct entry meets that rule once.  ``codes`` maps each
    code to its key.  An unhashable entry raises ``TypeError``.
    """

    __slots__ = ("codes",)

    def __init__(self) -> None:
        super().__init__()
        self.codes: dict[str, int] = {}

    def __missing__(self, item: Any) -> int:
        if isinstance(item, str) and len(item) == 2 and item.isascii() and item.isalpha():
            key = self.codes.setdefault(item.upper(), len(self.codes))
        else:
            key = -1
        self[item] = key
        return key


class UnknownWorkError(KeyError):
    """Raised when a work id is not present in the corpus."""


class SnapshotError(ValueError):
    """Raised when a snapshot file is malformed or fails its checksum."""


@dataclass(frozen=True)
class FieldMap:
    """Dotted-path mapping from source record fields to work fields.

    When a path segment is applied to a list it is mapped over the elements
    and the results are flattened, so the default ``authorships.countries``
    collects the country lists of every authorship in one pass.
    """

    work_id: str = "id"
    pub_year: str = "publication_year"
    references: str = "referenced_works"
    subfield: str = "primary_topic.subfield.id"
    countries: str = "authorships.countries"


@dataclass
class IngestReport:
    """Counters describing what happened during one ingestion run."""

    records_seen: int = 0
    works_ingested: int = 0
    rejected: Counter = field(default_factory=Counter)
    dangling_refs: int = 0
    self_refs: int = 0
    duplicate_refs: int = 0
    backward_edges: int = 0
    invalid_subfields: int = 0
    invalid_countries: int = 0

    def as_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["rejected"] = dict(sorted(self.rejected.items()))
        return out


def _extract(value: Any, parts: Sequence[str]) -> Any:
    """Walk dotted-path ``parts`` through nested dicts, mapping over lists.

    Over a list each element is walked on and list results are flattened,
    with their None entries dropped (by identity: no ``__eq__`` is called).
    """
    for part in parts:
        if isinstance(value, dict):
            value = value.get(part)
        elif isinstance(value, list):
            collected: list[Any] = []
            for element in value:
                if isinstance(element, dict):
                    got = element.get(part)
                else:
                    got = _extract(element, (part,))
                if isinstance(got, list):
                    collected += got
                elif got is not None:
                    collected.append(got)
            if not all(map(_NOT_NONE, collected)):
                collected = list(filter(_NOT_NONE, collected))
            value = collected
        else:
            return None
    return value


def _getter(path: str) -> Callable[[dict], Any]:
    """``_extract`` of a dotted ``path`` from a dict record, split once; a
    one-segment path is a single lookup."""
    parts = tuple(path.split("."))
    if len(parts) == 1:
        key = parts[0]
        return lambda record: record.get(key)
    return lambda record: _extract(record, parts)


def _decode(raw: str | bytes) -> Any:
    """The JSON value of one line, or ``_PARSE_ERROR``.

    ``json.loads`` rules: exactly one value, with JSON whitespace only (space,
    tab, CR, LF) around it.  An exact ``str`` goes to the scanner directly.
    Nesting too deep and integers too long for ``int`` are parse errors too.
    """
    try:
        if type(raw) is not str:
            return json.loads(raw)
        text = raw.strip(" \t\n\r")
        value, end = _SCAN(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return _PARSE_ERROR
    return value if end == len(text) else _PARSE_ERROR


def _as_int(raw: Any) -> int | None:
    """An int, or an integral float as an int; bools and the rest are None."""
    if isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    return None


def _int32(value: int | None) -> int | None:
    """``value`` if the int32 year and subfield columns can hold it."""
    return value if value is not None and -(2**31) <= value < 2**31 else None


def _parse_year(raw: Any) -> int | None:
    if type(raw) is not int:  # an exact int, the common case, needs no conversion
        if isinstance(raw, str):
            try:
                raw = int(raw.strip())
            except ValueError:
                return None
        raw = _as_int(raw)
    return _int32(raw)


def _parse_subfield(raw: Any) -> int | None:
    """Accept non-negative integers or ids with a trailing number (OpenAlex
    URLs); -1 marks a missing subfield in the column, so no id is negative."""
    if type(raw) is not int:  # an exact int, the common case, needs no conversion
        if isinstance(raw, list):
            raw = raw[0] if raw else None
        if isinstance(raw, str):
            match = _TRAILING_DIGITS.search(raw.strip())
            try:
                raw = int(match.group(1)) if match else None
            except ValueError:  # more digits than int() converts
                return None
        raw = _as_int(raw)
    value = _int32(raw)
    return value if value is not None and value >= 0 else None


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` ascending, as ``np.unique`` gives them,
    from one sort and a neighbour mask.

    ``np.unique`` is far slower on large integer arrays, and a plain call
    (no ``return_*``) reads ``np.ma``, which imports ``numpy.ma`` on first
    use (numpy 2.4.6): 12-20 ms of every fresh process.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def sorted_member(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` occurs in the ascending ``keys``, as
    ``np.isin`` tells it, by one binary search per value.

    ``keys`` is not sorted or checked here.  ``np.isin`` hashes or sorts
    its test values again on every call, and its sort path reaches a plain
    ``np.unique`` and so imports ``numpy.ma`` (see :func:`sorted_unique`).
    """
    values, keys = np.asarray(values), np.asarray(keys)
    if not len(keys):
        return np.zeros(values.shape, dtype=bool)
    at = np.searchsorted(keys, values)
    return keys[np.minimum(at, len(keys) - 1)] == values


def _offsets_rise(indptr: np.ndarray, n: int, total: int) -> bool:
    """Whether ``indptr`` holds the ``n + 1`` offsets of a CSR with ``n``
    rows and ``total`` entries: from 0 to ``total``, never decreasing."""
    bounded = len(indptr) == n + 1 and indptr[0] == 0 and indptr[-1] == total
    return bool(bounded and (indptr[1:] >= indptr[:-1]).all())


def _reference_fault(indptr: np.ndarray, indices: np.ndarray, n: int) -> str | None:
    """What breaks the reference CSR of ``n`` works, or None.

    The offsets must rise (see :func:`_offsets_rise`), every index must be
    a work, and every row strictly ascending.
    """
    if not _offsets_rise(indptr, n, len(indices)):
        return "reference offsets not rising from 0 to the edge count"
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        return "reference index beyond the works"
    rising = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < len(indices))] - 1] = True  # across rows
    return None if rising.all() else "reference row not strictly ascending"


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR rows ``rows`` as (position in ``rows``, entry) pairs."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), lengths)
    first = np.cumsum(lengths) - lengths
    positions = np.arange(len(owner)) + np.repeat(starts - first, lengths)
    return owner, indices[positions]


class CitationCorpus:
    """Immutable citation graph with per-work year, subfield, country labels.

    Adjacency rows are strictly ascending by work index, as the CD kernel
    needs; ``citers_idx`` is the exact transpose of ``references_idx``.
    Countries are a CSR too: row ``i`` holds indexes into the ascending
    ``country_table``, in the order the codes were first seen in work ``i``'s
    record.  The constructor refuses a column without one entry per id, or
    a CSR or country code that breaks this, with a ``ValueError``.
    Construction is single-writer.  The citing transpose, the id lookup
    behind :meth:`work_index` and the edges grouped by citer year behind
    :meth:`cited_in_years` and :meth:`citations_by_year` are built on first
    use, so that a corpus that is only ingested and saved, or never scored,
    does not pay for them.
    """

    def __init__(
        self,
        ids: Sequence[str],
        pub_year: np.ndarray,
        subfield: np.ndarray,
        country_table: Sequence[str],
        country_indptr: np.ndarray,
        country_codes: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
    ):
        self._ids = list(ids)
        self._pub_year = np.asarray(pub_year, dtype=np.int32)
        self._subfield = np.asarray(subfield, dtype=np.int32)
        self._country_table = tuple(country_table)
        self._country_indptr = np.asarray(country_indptr, dtype=np.int64)
        self._country_codes = np.asarray(country_codes, dtype=np.uint16)
        self._out_indptr = np.asarray(out_indptr, dtype=np.int64)
        self._out_indices = np.asarray(out_indices, dtype=np.int32)
        n, codes = len(self._ids), self._country_codes
        if len(self._pub_year) != n or len(self._subfield) != n:
            raise ValueError(f"{n} ids need {n} publication years and subfields")
        if not _offsets_rise(self._country_indptr, n, len(codes)):
            raise ValueError("country offsets not rising from 0 to the code count")
        fault = _reference_fault(self._out_indptr, self._out_indices, n)
        if fault or (len(codes) and codes.max() >= len(self._country_table)):
            raise ValueError(fault or "country code beyond the country table")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {wid: i for i, wid in enumerate(self._ids)}

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Read-only rank of each work's id in ascending ``str`` order, built
        on first use.  Ids are unique, so it orders any subset of works by id.
        Python sorts the ids: a numpy string array drops trailing NULs."""
        rank = np.argsort(sorted(range(len(self._ids)), key=self._ids.__getitem__))
        rank.flags.writeable = False
        return rank

    @cached_property
    def _in_indices(self) -> np.ndarray:
        n = len(self._ids)
        # one sort of target * n + source orders by target, then source
        key = self._out_indices.astype(np.int64)
        key *= n
        key += _owners(np.diff(self._out_indptr))
        key.sort()
        return (key % max(n, 1)).astype(np.int32)

    @cached_property
    def _in_indptr(self) -> np.ndarray:
        return _indptr(self._out_indices, len(self._ids))

    # -- basic accessors ---------------------------------------------------

    @property
    def n_works(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[str]:
        return self._ids

    @property
    def n_edges(self) -> int:
        return len(self._out_indices)

    def work_index(self, work_id: str) -> int:
        try:
            return self._index[work_id]
        except KeyError:
            raise UnknownWorkError(work_id) from None

    def pub_year_of(self, idx: int) -> int:
        return int(self._pub_year[idx])

    def subfield_of(self, idx: int) -> int | None:
        value = int(self._subfield[idx])
        return None if value < 0 else value

    def countries_of(self, idx: int) -> tuple[str, ...]:
        row = self._country_codes[self._country_indptr[idx] : self._country_indptr[idx + 1]]
        return tuple(self._country_table[c] for c in row.tolist())

    @property
    def country_table(self) -> tuple[str, ...]:
        """Every country code of the corpus, ascending."""
        return self._country_table

    def references_idx(self, idx: int) -> np.ndarray:
        return self._out_indices[self._out_indptr[idx] : self._out_indptr[idx + 1]]

    def citers_idx(self, idx: int) -> np.ndarray:
        return self._in_indices[self._in_indptr[idx] : self._in_indptr[idx + 1]]

    @property
    def year_min(self) -> int | None:
        return int(self._pub_year.min()) if len(self._ids) else None

    @property
    def year_max(self) -> int | None:
        return int(self._pub_year.max()) if len(self._ids) else None

    def subfield_universe(self) -> list[int]:
        """Distinct subfield ids present, ascending."""
        present = sorted_unique(self._subfield)
        return [int(s) for s in present if s >= 0]

    @property
    def pub_years(self) -> np.ndarray:
        """Publication year of every work, by work index (read-only view)."""
        view = self._pub_year.view()
        view.flags.writeable = False
        return view

    @property
    def subfields(self) -> np.ndarray:
        """Subfield of every work, -1 where absent (read-only view)."""
        view = self._subfield.view()
        view.flags.writeable = False
        return view

    def reference_pairs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every reference of the works ``rows``, row by row.

        Returns (position in ``rows``, referenced work index) as two arrays;
        within a row the references keep their ascending work-index order.
        """
        return _gather_rows(self._out_indptr, self._out_indices, rows)

    def citer_pairs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every citer of the works ``rows`` as (position in ``rows``, citer)."""
        return _gather_rows(self._in_indptr, self._in_indices, rows)

    def country_pairs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every country of the works ``rows`` as (position in ``rows``,
        index into :attr:`country_table`)."""
        return _gather_rows(self._country_indptr, self._country_codes, rows)

    @cached_property
    def _cited_by_citer_year(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(citer years, offsets, cited), built on first use: the works cited
        by works published in ``years[k]`` are ``cited[offsets[k]:offsets[k + 1]]``,
        and ``years`` holds each publication year once, ascending."""
        by_year = np.argsort(self._pub_year, kind="stable")
        _, cited = _gather_rows(self._out_indptr, self._out_indices, by_year)
        years = self._pub_year[by_year]
        last = np.flatnonzero(np.diff(years, append=np.inf))  # each year's last work
        ends = np.cumsum(np.diff(self._out_indptr)[by_year])[last]
        cited.flags.writeable = False  # cited_in_years hands out slices
        return years[last], np.concatenate(([0], ends)), cited

    def _citer_years(self, first: int, last: int) -> tuple[int, int]:
        """The indexes lo..hi - 1 of the citer years in ``first..last``."""
        years = self._cited_by_citer_year[0]
        lo = int(np.searchsorted(years, first))
        return lo, max(int(np.searchsorted(years, last, "right")), lo)

    def cited_in_years(self, first: int, last: int) -> np.ndarray:
        """The cited work of every edge whose citer was published in
        ``first..last`` inclusive, grouped by the citer's year: one slice."""
        _, offsets, cited = self._cited_by_citer_year
        lo, hi = self._citer_years(first, last)
        return cited[offsets[lo] : offsets[hi]]

    def citations_by_year(self, first: int, last: int) -> np.ndarray:
        """Citations every work receives from works published in each year of
        ``first..last``: a (works, years) table, no column if ``last < first``."""
        years, offsets, cited = self._cited_by_citer_year
        lo, hi = self._citer_years(first, last)
        width = max(last - first + 1, 0)
        spans = np.diff(offsets[lo : hi + 1])
        column = np.repeat(years[lo:hi].astype(np.int64) - first, spans)
        cells = cited[offsets[lo] : offsets[hi]].astype(np.int64) * width + column
        return np.bincount(cells, minlength=self.n_works * width).reshape(self.n_works, width)

    def citations_by_age(self, horizon: int) -> np.ndarray:
        """Citations every work receives from works published ``age`` years
        after it, for ages 0..``horizon``: a (works, horizon + 1) table."""
        years = self._pub_year.astype(np.int64)
        age = years[_owners(np.diff(self._out_indptr))] - years[self._out_indices]
        kept = (age >= 0) & (age <= horizon)
        cells = self._out_indices[kept].astype(np.int64) * (horizon + 1) + age[kept]
        return np.bincount(cells, minlength=self.n_works * (horizon + 1)).reshape(
            self.n_works, horizon + 1
        )

    # -- snapshot persistence ----------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        """Write a versioned binary snapshot (little-endian, checksummed).

        Layout (version 2): magic(8) | version u32 | n_works u64 |
        year_min i32 | year_max i32 | id byte lengths u32[n] | ids, utf-8,
        concatenated | pub_year i32[n] | subfield i32[n] (-1 = missing) |
        country table size u16 | country table (2 ascii bytes each,
        ascending) | country counts u16[n] | country codes u16[k] (table
        indexes, each work's in first-seen order) | out_indptr u64[n+1] |
        out_indices u32[m] | sha256(32).
        """
        encoded = [wid.encode("utf-8") for wid in self._ids]
        y_lo = self.year_min if self.year_min is not None else 0
        y_hi = self.year_max if self.year_max is not None else -1
        parts = [
            SNAPSHOT_MAGIC,
            struct.pack("<IQii", SNAPSHOT_VERSION, self.n_works, y_lo, y_hi),
            np.array([len(raw) for raw in encoded], dtype="<u4").tobytes(),
            b"".join(encoded),
            self._pub_year.astype("<i4").tobytes(),
            self._subfield.astype("<i4").tobytes(),
            struct.pack("<H", len(self._country_table)),
            "".join(self._country_table).encode("ascii"),
            np.diff(self._country_indptr).astype("<u2").tobytes(),
            self._country_codes.astype("<u2").tobytes(),
            self._out_indptr.astype("<u8").tobytes(),
            self._out_indices.astype("<u4").tobytes(),
        ]
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            for part in parts:
                digest.update(part)
                fh.write(part)
            fh.write(digest.digest())

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "CitationCorpus":
        raw = Path(path).read_bytes()
        if len(raw) < len(SNAPSHOT_MAGIC) + 12 + 8 + 32:
            raise SnapshotError(f"snapshot too short: {path}")
        body, digest = memoryview(raw)[:-32], raw[-32:]
        if hashlib.sha256(body).digest() != digest:
            raise SnapshotError(f"snapshot checksum mismatch: {path}")
        if body[:8] != SNAPSHOT_MAGIC:
            raise SnapshotError(f"bad snapshot magic: {path}")
        version, n = struct.unpack_from("<IQ", body, 8)
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}: {path}")
        pos = 8 + 12 + 8  # the observed year range is derivable from pub_year

        def take(dtype: str, count: int) -> np.ndarray:
            nonlocal pos
            if pos + count * np.dtype(dtype).itemsize > len(body):
                raise SnapshotError(f"truncated snapshot: {path}")
            values = np.frombuffer(body, dtype=dtype, count=count, offset=pos)
            pos += values.nbytes
            return values

        id_ends = np.cumsum(take("<u4", n), dtype=np.int64)
        blob = take("u1", int(id_ends[-1]) if n else 0)
        # a byte offset less the continuation bytes before it is a char offset
        continuation = np.concatenate(([0], np.cumsum((blob & 0xC0) == 0x80)))
        bounds = [0, *(id_ends - continuation[id_ends]).tolist()]
        text = blob.tobytes().decode("utf-8")
        ids = [text[a:b] for a, b in zip(bounds, bounds[1:])]
        pub_year = take("<i4", n)
        subfield = take("<i4", n)
        (n_codes,) = take("<u2", 1)
        table = take("u1", 2 * int(n_codes)).tobytes().decode("ascii")
        country_indptr = np.concatenate(([0], np.cumsum(take("<u2", n))))
        country_codes = take("<u2", int(country_indptr[-1]))
        out_indptr = take("<u8", n + 1).astype(np.int64)
        out_indices = take("<u4", (len(body) - pos) // 4)
        if pos != len(body):
            raise SnapshotError(f"trailing bytes in snapshot: {path}")
        table = [table[k : k + 2] for k in range(0, len(table), 2)]
        csr = (country_indptr, country_codes, out_indptr, out_indices)
        try:  # the checksum covers the bytes, not what they mean
            return cls(ids, pub_year, subfield, table, *csr)
        except ValueError as exc:
            raise SnapshotError(f"{exc} in snapshot: {path}") from None


def ingest_works(
    records: Iterable[Any],
    schema: FieldMap = FieldMap(),
    *,
    year_min: int | None = None,
    year_max: int | None = None,
) -> tuple[CitationCorpus, IngestReport]:
    """Build a corpus from raw records, dropping whatever cannot be kept.

    ``records`` yields dicts or raw JSON strings/bytes.  A string or bytes
    record must hold exactly one JSON value, as ``json.loads`` reads it;
    any other, nesting too deep or an integer too long to convert is a
    parse error.  A record needs at least a work id that the output tables
    can hold (no tab, CR, LF or lone surrogate) and a parseable year;
    everything else degrades softly
    (missing subfield -> unlabeled, bad country entries -> dropped).  Years
    and subfields beyond int32 count as invalid.
    References to ids absent from the stream are dropped and counted, as are
    self references and per-record duplicate references.  Edges whose citer
    predates the cited work stay in the graph but are tallied as noise.

    One pass over the records keeps per-work columns.  Work ids and
    reference ids share one table that interns each id to an int key, in
    first-seen order, and keeps the index of the work that claimed it (-1
    for none yet), which is also the duplicate check; references resolve and
    deduplicate afterwards in array passes over the keys.  A reference list
    of strings costs one dict lookup per reference; a list with any other
    entry drops the keys it added and interns ``str`` of each entry that is
    not None instead.  Country entries go through a second table, which
    checks each distinct raw entry once.
    """
    report = IngestReport()
    rejected = report.rejected
    get_id, get_year, get_refs, get_subfield, get_countries = map(
        _getter,
        (schema.work_id, schema.pub_year, schema.references, schema.subfield,
         schema.countries),
    )
    ids = _Interner()  # work or reference id -> key, in first-seen order
    intern, work_of = ids.__getitem__, ids.work
    work_ids: list[str] = []  # in stream order
    years = array("i")
    subfields = array("i")
    ref_keys: list[int] = []
    ref_counts: list[int] = []
    countries = _CountryKeys()
    country_key = countries.__getitem__
    code_keys: list[int] = []  # -1 for an invalid entry
    code_counts: list[int] = []
    seen = 0

    for raw in records:
        seen += 1
        record = _decode(raw) if isinstance(raw, (str, bytes)) else raw
        if record is _PARSE_ERROR:
            rejected["parse_error"] += 1
            continue
        if not isinstance(record, dict):
            rejected["not_object"] += 1
            continue

        wid = get_id(record)
        if wid is None or (isinstance(wid, str) and not wid.strip()):
            rejected["missing_id"] += 1
            continue
        # a printable ASCII str holds no tab, CR, LF or surrogate
        if type(wid) is not str or not (wid.isascii() and wid.isprintable()):
            wid = str(wid)
            if _BAD_ID_CHAR.search(wid):
                rejected["invalid_id"] += 1
                continue

        year = get_year(record)
        # an exact int inside int32, the common case, needs no parsing
        if type(year) is not int or not -2147483648 <= year <= 2147483647:
            if year is None:
                rejected["missing_year"] += 1
                continue
            year = _parse_year(year)
            if year is None:
                rejected["invalid_year"] += 1
                continue
        if (year_min is not None and year < year_min) or (
            year_max is not None and year > year_max
        ):
            rejected["year_out_of_range"] += 1
            continue

        key = intern(wid)
        if work_of[key] >= 0:
            rejected["duplicate_id"] += 1
            continue

        sub = get_subfield(record)
        if type(sub) is not int or not 0 <= sub <= 2147483647:
            parsed = _parse_subfield(sub)
            if parsed is None and sub is not None:
                report.invalid_subfields += 1
            sub = -1 if parsed is None else parsed

        listed = get_countries(record)
        before = len(code_keys)
        if listed is not None:
            listed = listed if isinstance(listed, list) else (listed,)
            try:
                code_keys.extend(map(country_key, listed))
            except TypeError:  # an unhashable entry: never two ASCII letters
                del code_keys[before:]
                code_keys.extend(
                    country_key(item) if isinstance(item, str) else -1 for item in listed
                )
        code_counts.append(len(code_keys) - before)

        listed = get_refs(record)
        before = len(ref_keys)
        if isinstance(listed, list):
            try:
                ref_keys.extend(map(intern, listed))
            except TypeError:  # an entry that is not a str: drop this list's keys
                del ref_keys[before:]
                ref_keys.extend(map(intern, map(str, filter(_NOT_NONE, listed))))
        ref_counts.append(len(ref_keys) - before)

        work_of[key] = len(work_ids)
        work_ids.append(wid)
        years.append(year)
        subfields.append(sub)

    report.records_seen = seen
    # the key lists go before the array passes build their temporaries
    code_keys = np.array(code_keys, dtype=np.int64)
    ref_keys = np.array(ref_keys, dtype=np.int64)
    year_of = np.asarray(years, dtype=np.int32)
    table, country_indptr, country_codes = _country_csr(
        countries.codes, code_keys, code_counts, report
    )
    del code_keys
    corpus = CitationCorpus(
        work_ids,
        year_of,
        np.asarray(subfields, dtype=np.int32),
        table,
        country_indptr,
        country_codes,
        *_reference_csr(
            np.array(work_of, dtype=np.int64), ref_keys, ref_counts, year_of, report
        ),
    )
    report.works_ingested = corpus.n_works
    return corpus, report


def _owners(counts: Sequence[int]) -> np.ndarray:
    """The row of each entry of a CSR whose rows hold ``counts`` entries."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """The row pointer of an ``n``-row CSR whose entries are in rows ``rows``."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _reference_csr(
    work_of: np.ndarray,
    keys: np.ndarray,
    counts: Sequence[int],
    years: np.ndarray,
    report: IngestReport,
) -> tuple[np.ndarray, np.ndarray]:
    """The reference CSR from each work's interned reference keys.

    ``work_of[key]`` is the work an id key names, or -1; the function
    overwrites both arrays.  A key maps to its work index, or to ``n + key``
    for an id that is not a work, so one sort of ``owner * (n + K) +
    target`` puts per-record duplicates side by side and leaves every row
    ascending.  The pairs are sorted and split in place, so besides ``keys``
    about two more arrays of its size are live at once.  Fills the report's
    reference tallies.
    """
    n = len(years)
    stride = n + len(work_of)
    absent = np.flatnonzero(work_of < 0)
    work_of[absent] = n + absent
    keys[:] = work_of[keys]
    owner = _owners(counts)
    owner *= stride
    keys += owner
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    # owners rise row by row, so they are already those of the sorted pairs
    owner //= stride
    target = np.remainder(keys, stride, out=keys)
    dangling = first & (target >= n)
    self_ref = first & (target == owner)
    report.duplicate_refs = len(keys) - int(np.count_nonzero(first))
    report.dangling_refs = int(np.count_nonzero(dangling))
    report.self_refs = int(np.count_nonzero(self_ref))
    first &= ~(dangling | self_ref)
    owner = owner[first]
    target = target[first].astype(np.int32)
    report.backward_edges = int((years[owner] < years[target]).sum())
    return _indptr(owner, n), target


def _country_csr(
    codes: dict[str, int], keys: np.ndarray, counts: Sequence[int], report: IngestReport
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(ascending code table, indptr, table indexes) of the works' countries,
    from each work's country entry keys, -1 for an invalid entry, which the
    report counts; a code repeated within a work keeps only its first place."""
    valid = keys >= 0
    report.invalid_countries = len(keys) - int(np.count_nonzero(valid))
    owner, keys = _owners(counts)[valid], keys[valid]
    # np.unique's indexes are those of each distinct pair's first occurrence
    kept = np.sort(np.unique(owner * len(codes) + keys, return_index=True)[1])
    table = sorted(codes)
    rank = np.empty(len(codes), dtype=np.int64)
    rank[[codes[code] for code in table]] = np.arange(len(table))
    return table, _indptr(owner[kept], len(counts)), rank[keys[kept]]


def iter_json_lines(path: str | Path) -> Iterable[Any]:
    """Yield non-blank lines from a plain or gzip-compressed text file; a
    UTF-8 byte order mark at its start is not data.

    A line that is not valid UTF-8 comes as ``_PARSE_ERROR``, which
    :func:`ingest_works` counts; only a line with a non-ASCII character is
    searched for the bytes that did not decode.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(2)
    opener = gzip.open if head == b"\x1f\x8b" else open
    with opener(  # type: ignore[arg-type]
        path, "rt", encoding="utf-8-sig", errors="surrogateescape"
    ) as fh:
        for line in fh:
            if not line.isascii() and _UNDECODED.search(line):
                yield _PARSE_ERROR
            elif not line.isspace():  # a line from a file is never empty
                yield line


def ingest_files(
    paths: Sequence[str | Path] | str | Path,
    schema: FieldMap = FieldMap(),
    *,
    year_min: int | None = None,
    year_max: int | None = None,
) -> tuple[CitationCorpus, IngestReport]:
    """Ingest one or more newline-delimited JSON files (optionally gzipped)."""
    if isinstance(paths, (str, Path)):
        paths = [paths]

    def lines() -> Iterable[str]:
        for path in paths:
            yield from iter_json_lines(path)

    return ingest_works(lines(), schema, year_min=year_min, year_max=year_max)


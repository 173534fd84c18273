"""Citation corpus: ingestion, temporal citation queries, and snapshots.

The corpus is an immutable, index-based citation graph.  Works are kept in
stream order; reference adjacency is stored in compressed sparse rows sorted
by work index, and the citing adjacency is maintained as its exact transpose.
All query operations are pure, so a corpus can be shared freely across
concurrent readers once built.

Input records are newline-delimited JSON objects.  The field mapping defaults
to the layout of OpenAlex works exports and can be remapped through
:class:`FieldMap`.  Gzip-compressed inputs are detected by magic bytes.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

SNAPSHOT_MAGIC = b"SCBKSNP1"
SNAPSHOT_VERSION = 1

_TRAILING_DIGITS = re.compile(r"(\d+)\s*$")


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
        return {
            "records_seen": self.records_seen,
            "works_ingested": self.works_ingested,
            "rejected": dict(sorted(self.rejected.items())),
            "dangling_refs": self.dangling_refs,
            "self_refs": self.self_refs,
            "duplicate_refs": self.duplicate_refs,
            "backward_edges": self.backward_edges,
            "invalid_subfields": self.invalid_subfields,
            "invalid_countries": self.invalid_countries,
        }


@dataclass(frozen=True)
class YearlyCitationSeries:
    """Citations received at each year offset 0..horizon after publication.

    ``noise_citations`` counts citing works dated before the focal year;
    those never contribute to any offset.
    """

    work_id: str
    horizon: int
    gamma: tuple[int, ...]
    noise_citations: int


@dataclass(frozen=True)
class CocitedBag:
    """Works co-cited with a focal work by citers at one year offset.

    ``member_ids`` is ordered by work index; under multiset semantics a work
    repeats once per citer whose reference list contains it.
    """

    focal_id: str
    offset: int
    member_ids: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.member_ids)


def _extract(value: Any, path: str) -> Any:
    """Walk a dotted path through nested dicts, mapping over lists."""
    for part in path.split("."):
        if value is None:
            return None
        if isinstance(value, list):
            collected: list[Any] = []
            for element in value:
                got = _extract(element, part)
                if isinstance(got, list):
                    collected.extend(g for g in got if g is not None)
                elif got is not None:
                    collected.append(got)
            value = collected
        elif isinstance(value, dict):
            value = value.get(part)
        else:
            return None
    return value


def _parse_year(raw: Any) -> int | None:
    if isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, str):
        try:
            return int(raw.strip())
        except ValueError:
            return None
    return None


def _parse_subfield(raw: Any) -> int | None:
    """Accept plain integers or ids with a trailing number (OpenAlex URLs)."""
    if isinstance(raw, list):
        raw = raw[0] if raw else None
    if raw is None or isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, str):
        match = _TRAILING_DIGITS.search(raw.strip())
        if match:
            return int(match.group(1))
    return None


def _parse_countries(raw: Any) -> tuple[tuple[str, ...], int]:
    """Normalize to unique upper-case ASCII alpha-2 codes, first-seen order."""
    if raw is None:
        return (), 0
    if not isinstance(raw, list):
        raw = [raw]
    seen: list[str] = []
    invalid = 0
    for item in raw:
        if (
            isinstance(item, str)
            and len(item) == 2
            and item.isascii()
            and item.isalpha()
        ):
            code = item.upper()
            if code not in seen:
                seen.append(code)
        else:
            invalid += 1
    return tuple(seen), invalid


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

    Adjacency rows are sorted by work index; ``citers_idx`` is the exact
    transpose of ``references_idx``.  Construction is single-writer.  The
    only state built after construction is the sorted citation-year key
    behind :meth:`citations_in_years`, made on first use so that corpora
    that are never scored do not pay for it.
    """

    def __init__(
        self,
        ids: Sequence[str],
        pub_year: np.ndarray,
        subfield: np.ndarray,
        countries: Sequence[tuple[str, ...]],
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
    ):
        self._ids = list(ids)
        self._index = {wid: i for i, wid in enumerate(self._ids)}
        self._pub_year = np.asarray(pub_year, dtype=np.int32)
        self._subfield = np.asarray(subfield, dtype=np.int32)
        self._countries = [tuple(c) for c in countries]
        self._out_indptr = np.asarray(out_indptr, dtype=np.int64)
        self._out_indices = np.asarray(out_indices, dtype=np.int32)
        self._build_transpose()

    def _build_transpose(self) -> None:
        n = len(self._ids)
        sources = np.repeat(
            np.arange(n, dtype=np.int32), np.diff(self._out_indptr)
        )
        # stable sort by target keeps sources ascending within each row
        order = np.argsort(self._out_indices, kind="stable")
        self._in_indices = sources[order]
        counts = np.bincount(self._out_indices, minlength=n)
        self._in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._in_indptr[1:])

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

    def work_id(self, idx: int) -> str:
        return self._ids[idx]

    def pub_year_of(self, idx: int) -> int:
        return int(self._pub_year[idx])

    def subfield_of(self, idx: int) -> int | None:
        value = int(self._subfield[idx])
        return None if value < 0 else value

    def countries_of(self, idx: int) -> tuple[str, ...]:
        return self._countries[idx]

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
        present = np.unique(self._subfield)
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

    @cached_property
    def _citation_year_key(self) -> np.ndarray:
        """Sorted ``cited * stride + (citing year - year_min)``, one per edge.

        The stride is the number of publication years, so each cited work owns
        one contiguous run of keys ordered by citing year.
        """
        if not self._ids:
            return np.empty(0, dtype=np.int64)
        stride = self.year_max - self.year_min + 1
        cited = np.repeat(
            np.arange(self.n_works, dtype=np.int64), np.diff(self._in_indptr)
        )
        citing_year = self._pub_year[self._in_indices].astype(np.int64)
        return np.sort(cited * stride + (citing_year - self.year_min))

    def citations_in_years(
        self, cited: np.ndarray, first: np.ndarray | int, last: np.ndarray | int
    ) -> np.ndarray:
        """Citations each work in ``cited`` receives from works published in
        ``first..last`` inclusive; the bounds broadcast against ``cited``."""
        cited = np.asarray(cited, dtype=np.int64)
        if not self._ids:
            return np.zeros(cited.shape, dtype=np.int64)
        key = self._citation_year_key
        stride = self.year_max - self.year_min + 1
        # bounds clipped to the corpus years never reach another work's keys
        lo = np.clip(np.asarray(first) - self.year_min, 0, stride)
        hi = np.clip(np.asarray(last) - self.year_min, -1, stride - 1)
        base = cited * stride
        count = np.searchsorted(key, base + hi, "right") - np.searchsorted(
            key, base + lo, "left"
        )
        return np.maximum(count, 0)

    # -- snapshot persistence ----------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        """Write a versioned binary snapshot (little-endian, checksummed).

        Layout: magic(8) | version u32 | n_works u64 | year_min i32 |
        year_max i32 | ids (u32 length + utf-8 each) | pub_year i32[n] |
        subfield i32[n] (-1 = missing) | countries (u8 count + 2 ascii bytes
        each) | out_indptr u64[n+1] | out_indices u32[m] | sha256(32).
        """
        buf = bytearray()
        buf += SNAPSHOT_MAGIC
        buf += struct.pack("<IQ", SNAPSHOT_VERSION, self.n_works)
        y_lo = self.year_min if self.year_min is not None else 0
        y_hi = self.year_max if self.year_max is not None else -1
        buf += struct.pack("<ii", y_lo, y_hi)
        for wid in self._ids:
            raw = wid.encode("utf-8")
            buf += struct.pack("<I", len(raw))
            buf += raw
        buf += self._pub_year.astype("<i4").tobytes()
        buf += self._subfield.astype("<i4").tobytes()
        for codes in self._countries:
            buf += struct.pack("<B", len(codes))
            for code in codes:
                buf += code.encode("ascii")
        buf += self._out_indptr.astype("<u8").tobytes()
        buf += self._out_indices.astype("<u4").tobytes()
        buf += hashlib.sha256(buf).digest()
        Path(path).write_bytes(bytes(buf))

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "CitationCorpus":
        raw = Path(path).read_bytes()
        if len(raw) < len(SNAPSHOT_MAGIC) + 12 + 8 + 32:
            raise SnapshotError(f"snapshot too short: {path}")
        body, digest = raw[:-32], raw[-32:]
        if hashlib.sha256(body).digest() != digest:
            raise SnapshotError(f"snapshot checksum mismatch: {path}")
        if body[:8] != SNAPSHOT_MAGIC:
            raise SnapshotError(f"bad snapshot magic: {path}")
        pos = 8
        version, n = struct.unpack_from("<IQ", body, pos)
        pos += 12
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        pos += 8  # observed year range, derivable from pub_year
        ids: list[str] = []
        for _ in range(n):
            (length,) = struct.unpack_from("<I", body, pos)
            pos += 4
            ids.append(body[pos : pos + length].decode("utf-8"))
            pos += length
        pub_year = np.frombuffer(body, dtype="<i4", count=n, offset=pos).astype(
            np.int32
        )
        pos += 4 * n
        subfield = np.frombuffer(body, dtype="<i4", count=n, offset=pos).astype(
            np.int32
        )
        pos += 4 * n
        countries: list[tuple[str, ...]] = []
        for _ in range(n):
            count = body[pos]
            pos += 1
            codes = tuple(
                body[pos + 2 * k : pos + 2 * k + 2].decode("ascii")
                for k in range(count)
            )
            pos += 2 * count
            countries.append(codes)
        out_indptr = np.frombuffer(body, dtype="<u8", count=n + 1, offset=pos).astype(
            np.int64
        )
        pos += 8 * (n + 1)
        m = int(out_indptr[-1])
        out_indices = np.frombuffer(body, dtype="<u4", count=m, offset=pos).astype(
            np.int32
        )
        pos += 4 * m
        if pos != len(body):
            raise SnapshotError(f"trailing bytes in snapshot: {path}")
        return cls(ids, pub_year, subfield, countries, out_indptr, out_indices)


def ingest_works(
    records: Iterable[Any],
    schema: FieldMap = FieldMap(),
    *,
    year_min: int | None = None,
    year_max: int | None = None,
) -> tuple[CitationCorpus, IngestReport]:
    """Build a corpus from raw records, dropping whatever cannot be kept.

    ``records`` yields dicts or raw JSON strings/bytes.  A record needs at
    least a work id and a parseable year; everything else degrades softly
    (missing subfield -> unlabeled, bad country entries -> dropped).
    References to ids absent from the stream are dropped and counted, as are
    self references and per-record duplicate references.  Edges whose citer
    predates the cited work stay in the graph but are tallied as noise.
    """
    report = IngestReport()
    ids: list[str] = []
    years: list[int] = []
    subfields: list[int] = []
    countries: list[tuple[str, ...]] = []
    raw_refs: list[tuple[str, ...]] = []
    index: dict[str, int] = {}

    for raw in records:
        report.records_seen += 1
        if isinstance(raw, (str, bytes)):
            try:
                record = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                report.rejected["parse_error"] += 1
                continue
        else:
            record = raw
        if not isinstance(record, dict):
            report.rejected["not_object"] += 1
            continue

        wid_raw = _extract(record, schema.work_id)
        if wid_raw is None or (isinstance(wid_raw, str) and not wid_raw.strip()):
            report.rejected["missing_id"] += 1
            continue
        wid = str(wid_raw)

        year_raw = _extract(record, schema.pub_year)
        if year_raw is None:
            report.rejected["missing_year"] += 1
            continue
        year = _parse_year(year_raw)
        if year is None:
            report.rejected["invalid_year"] += 1
            continue
        if (year_min is not None and year < year_min) or (
            year_max is not None and year > year_max
        ):
            report.rejected["year_out_of_range"] += 1
            continue

        if wid in index:
            report.rejected["duplicate_id"] += 1
            continue

        sub_raw = _extract(record, schema.subfield)
        sub = _parse_subfield(sub_raw)
        if sub is None and sub_raw is not None:
            report.invalid_subfields += 1

        codes, bad_codes = _parse_countries(_extract(record, schema.countries))
        report.invalid_countries += bad_codes

        refs_raw = _extract(record, schema.references)
        refs: list[str] = []
        if isinstance(refs_raw, list):
            seen: set[str] = set()
            for ref in refs_raw:
                if ref is None:
                    continue
                ref_id = str(ref)
                if ref_id in seen:
                    report.duplicate_refs += 1
                else:
                    seen.add(ref_id)
                    refs.append(ref_id)

        index[wid] = len(ids)
        ids.append(wid)
        years.append(year)
        subfields.append(-1 if sub is None else sub)
        countries.append(codes)
        raw_refs.append(tuple(refs))

    indptr = [0]
    indices: list[int] = []
    for i, refs in enumerate(raw_refs):
        row: list[int] = []
        for ref_id in refs:
            j = index.get(ref_id)
            if j is None:
                report.dangling_refs += 1
            elif j == i:
                report.self_refs += 1
            else:
                row.append(j)
                if years[i] < years[j]:
                    report.backward_edges += 1
        row.sort()
        indices.extend(row)
        indptr.append(len(indices))

    corpus = CitationCorpus(
        ids,
        np.array(years, dtype=np.int32),
        np.array(subfields, dtype=np.int32),
        countries,
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int32),
    )
    report.works_ingested = corpus.n_works
    return corpus, report


def iter_json_lines(path: str | Path) -> Iterable[str]:
    """Yield non-blank lines from a plain or gzip-compressed text file."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(2)
    opener = gzip.open if head == b"\x1f\x8b" else open
    with opener(path, "rt", encoding="utf-8") as fh:  # type: ignore[arg-type]
        for line in fh:
            if line.strip():
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


def yearly_citation_series(
    corpus: CitationCorpus, work_id: str, horizon: int
) -> YearlyCitationSeries:
    """Count citations at each year offset 0..horizon after publication."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    focal = corpus.work_index(work_id)
    year = corpus.pub_year_of(focal)
    calendar = year + np.arange(horizon + 1)
    gamma = corpus.citations_in_years(focal, calendar, calendar)
    noise = corpus.citations_in_years(focal, corpus.year_min, year - 1)
    return YearlyCitationSeries(work_id, horizon, tuple(gamma.tolist()), int(noise))


def cocited_bag(
    corpus: CitationCorpus,
    focal_id: str,
    offset: int,
    *,
    semantics: str = "multiset",
) -> CocitedBag:
    """Collect the co-cited bag of a focal work at one year offset.

    Multiset semantics repeats a member once per citing reference list that
    contains it; set semantics keeps each member once.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    focal = corpus.work_index(focal_id)
    if semantics not in ("multiset", "set"):
        raise ValueError(f"unknown co-citation semantics: {semantics!r}")
    _, citers = corpus.citer_pairs(np.array([focal]))
    citers = citers[corpus.pub_years[citers] == corpus.pub_year_of(focal) + offset]
    _, members = corpus.reference_pairs(citers)
    members = members[members != focal]
    members = np.unique(members) if semantics == "set" else np.sort(members)
    return CocitedBag(focal_id, offset, tuple(map(corpus.work_id, members.tolist())))

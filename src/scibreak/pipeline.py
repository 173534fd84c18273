"""End-to-end pipeline: ingest, metrics, selection, panels, clusters, ranks.

Each stage is one public function from explicit inputs to its result, and
both :func:`run_pipeline` and the CLI subcommands call it.  Every stage
writes delimited text (or JSON for reports) under a run directory named by
the config hash.  Identical config and inputs reproduce identical bytes for
every output table; the manifest additionally records a checksum per output
so two runs can be compared at a glance.  Stage timings in the manifest are
informational and excluded from that contract.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import analysis as stats
from .clustering import (
    ClusteringResult,
    DistanceMatrix,
    SimilarityMatrix,
    default_sigma,
    distance_matrix,
    leiden_clusters,
    similarity_matrix,
    trajectories_from_series,
    with_mean_trajectories,
)
from .complexity import BinaryAdjacency, GenepyResult, RcaMatrix, binarize, genepy_scores, rca
from .config import PipelineConfig
from .corpus import CitationCorpus, FieldMap, ingest_files, sorted_member, sorted_unique
from .impact import BreakthroughClass, CdTable, NbncTable, cd_all, nbnc_all
from .panel import (
    PanelMatrix,
    ScoredWorks,
    SeriesTable,
    country_counts,
    country_subfield_counts,
    decade_windows,
    scaled_counts,
    select_breakthroughs,
    subfield_series,
)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and original cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class StageOutcome:
    name: str
    status: str  # ok | skipped | error
    seconds: float
    detail: str = ""


def _write_lines(path: Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """Write a tab-separated table whose cells are already strings."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


_FORMATS = {"f": repr, "i": str, "u": str, "b": ("false", "true").__getitem__}


def _cell_text(values) -> list:
    """Cell text of a column (1-D) or of a matrix's rows (2-D): ``repr`` of
    each float (as float64), ``str`` of each integer, ``true``/``false`` of
    each bool, each distinct value formatted once (one sort, then a binary
    search per cell).  Floats are keyed by their bit pattern, so -0.0, 0.0
    and NaN payloads keep their own text.  A list is text already and passes
    through; ids and labels come as one (numpy strings drop trailing NULs).
    """
    if isinstance(values, list):
        return values
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind not in _FORMATS:
        raise TypeError(f"no cell text for a {values.dtype} column")
    keys = values.astype(np.float64, copy=False).view(np.uint64) if kind == "f" else values
    distinct = sorted_unique(keys)
    shown = distinct.view(np.float64) if kind == "f" else distinct
    text = np.array(list(map(_FORMATS[kind], shown.tolist())), dtype=object)
    return text[np.searchsorted(distinct, keys)].tolist()


def _write_table(path: Path, header: Iterable[str], columns: Iterable) -> None:
    """Write a table from row-aligned columns, each cell by :func:`_cell_text`."""
    _write_lines(path, header, zip(*map(_cell_text, columns)))


def _write_matrix(
    path: Path, corner: str, col_labels: Iterable[object], row_labels: Iterable[object], matrix: np.ndarray
) -> None:
    header = [corner] + [str(c) for c in col_labels]
    rows = ([str(label), *cells] for label, cells in zip(row_labels, _cell_text(matrix)))
    _write_lines(path, header, rows)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- stage writers -----------------------------------------------------------


def _write_yearly(
    directory: Path, stem: str, header: Iterable[str], years: np.ndarray, columns: list
) -> None:
    """One table per year, ``directory/{stem}_{year}.tsv``, from row-aligned
    ``columns`` whose rows are already in year order."""
    text = [_cell_text(column) for column in columns]
    starts = np.unique(years, return_index=True)[1].tolist()
    for start, end in zip(starts, starts[1:] + [len(years)]):
        path = directory / f"{stem}_{years[start]}.tsv"
        _write_table(path, header, [cells[start:end] for cells in text])


_METRIC_FLAGS = np.array(  # indexed by truncated_horizon + 2 * cd_zero_denominator
    ["-", "truncated_horizon", "cd_zero_denominator", "truncated_horizon,cd_zero_denominator"]
)


def write_metrics_tables(
    run_dir: Path, corpus: CitationCorpus, scores: NbncTable, cds: CdTable
) -> None:
    """One columnar file per publication year: work_id, nbnc, cd, flags.

    ``scores`` and ``cds`` must cover the same works; rows within a year are
    ordered by work id.
    """
    if not np.array_equal(scores.works, cds.works):
        raise ValueError("NBNC and CD scores cover different works")
    years = corpus.pub_years[scores.works]
    order = np.lexsort((corpus.id_rank[scores.works], years))
    flags = _METRIC_FLAGS[scores.truncated[order] + 2 * cds.zero_denominator[order]].tolist()
    ids = corpus.ids
    wids = [ids[idx] for idx in scores.works[order].tolist()]
    columns = [wids, scores.value[order], cds.value[order], flags]
    header = ("work_id", "nbnc", "cd", "flags")
    _write_yearly(run_dir / "metrics", "metrics", header, years[order], columns)


def write_breakthrough_tables(
    run_dir: Path, corpus: CitationCorpus, chosen: ScoredWorks
) -> None:
    """One file per publication year of the breakthroughs, in their order,
    which is year order."""
    works = chosen.works.tolist()
    years = corpus.pub_years[chosen.works]
    subfields = corpus.subfields[chosen.works]
    columns = [
        [corpus.ids[idx] for idx in works],
        years,
        np.where(subfields < 0, "-", _cell_text(subfields)).tolist(),
        [",".join(corpus.countries_of(idx)) or "-" for idx in works],
        chosen.nbnc,
        chosen.cd,
        np.where(
            BreakthroughClass.DISRUPTIVE.holds(chosen.cd),
            BreakthroughClass.DISRUPTIVE.value,
            BreakthroughClass.CONSOLIDATING.value,
        ).tolist(),
    ]
    header = ("work_id", "year", "subfield", "countries", "nbnc", "cd", "class")
    _write_yearly(run_dir / "breakthroughs", "breakthroughs", header, years, columns)


def read_scored_tables(
    directory: Path, pattern: str, corpus: CitationCorpus
) -> ScoredWorks:
    """Every row of the ``pattern`` tables of ``directory``, in name order.

    Only the ``work_id``, ``nbnc`` and ``cd`` columns are read, found by
    header name; ids resolve to corpus indexes through ``corpus``.  A
    missing directory or one without a match is an input error, not an
    empty table: a mistyped path must not read as "no rows".  A row whose
    field count differs from the header's, a score that is not a float64,
    or a work id already read in this or an earlier file is a
    ``ValueError`` naming the file and line.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such directory: {directory}")
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise FileNotFoundError(f"no {pattern} files in {directory}")
    works: list[int] = []
    scores = []
    first_read: dict[str, tuple[Path, int]] = {}
    for path in paths:
        header, lines = _read_table(path)
        try:
            wid_col, *score_cols = (header.index(name) for name in ("work_id", "nbnc", "cd"))
        except ValueError:
            raise ValueError(f"{path}: header lacks work_id, nbnc or cd") from None
        scores.append(_parse_cells(path, lines, score_cols, np.float64))
        for number, line in enumerate(lines, start=2):
            wid = line.split("\t")[wid_col]
            if wid in first_read:
                seen, seen_number = first_read[wid]
                raise ValueError(
                    f"{path}, line {number}: work {wid} already read at "
                    f"{seen}, line {seen_number}"
                )
            first_read[wid] = (path, number)
            works.append(corpus.work_index(wid))
    nbnc, cd = np.concatenate(scores).T
    return ScoredWorks(np.array(works, dtype=np.int64), nbnc, cd)


_SERIES_COLUMNS = (
    "subfield", "year", "n_total", "n_bt", "n_cn", "n_di", "scaled_cn", "scaled_di", "flags"
)


def write_series_table(run_dir: Path, series: SeriesTable) -> None:
    """One row per subfield and grid year, subfields first; needs scaled shares."""
    if series.scaled_cn is None or series.scaled_di is None:
        raise ValueError("series lacks scaled counts")
    values = (series.n_total, series.n_bt, series.n_cn, series.n_di)
    columns = [
        np.repeat(series.subfields, len(series.years)),
        np.tile(series.years, len(series.subfields)),
        *(array.ravel() for array in values + (series.scaled_cn, series.scaled_di)),
        np.where(series.n_total.ravel() == 0, "zero_total", "-").tolist(),
    ]
    _write_table(run_dir / "series" / "subfield_series.tsv", _SERIES_COLUMNS, columns)


def read_series_table(path: Path) -> SeriesTable:
    """Rebuild a series table from a subfield_series.tsv file.

    Rows are placed on the grid of the subfields and years the file holds;
    a grid cell without a row reads as zero.  The header must list the
    columns that :func:`write_series_table` writes, in its order; an empty
    file reads as no rows.  Every count must be an ASCII decimal int64 and
    every share a float64; a bad header, a row without 9 fields, a bad cell
    or a subfield/year pair given twice (at its second row) is a
    ``ValueError`` naming the file and line.
    """
    _, lines = _read_table(path, _SERIES_COLUMNS)
    keys = _parse_cells(path, lines, range(6), np.int64)
    shares = _parse_cells(path, lines, range(6, 8), np.float64)
    subfields, years = sorted_unique(keys[:, 0]), sorted_unique(keys[:, 1])
    cells = np.searchsorted(subfields, keys[:, 0]) * len(years)
    cells += np.searchsorted(years, keys[:, 1])
    if (row := _first_repeat(cells.tolist())) is not None:
        sub, year = keys[row, :2].tolist()
        raise ValueError(f"{path}, line {row + 2}: subfield {sub}, year {year} is given twice")

    def grid(values: np.ndarray) -> np.ndarray:
        """(column, subfield, year) array of the table columns ``values``."""
        out = np.zeros((len(subfields) * len(years), values.shape[1]), dtype=values.dtype)
        out[cells] = values
        return out.T.reshape(values.shape[1], len(subfields), len(years))

    n_total, n_bt, n_cn, n_di = grid(keys[:, 2:])
    scaled_cn, scaled_di = grid(shares)
    unlabeled = np.zeros(len(years), dtype=np.int64)  # the file does not keep it
    return SeriesTable(
        subfields, years, n_total, n_bt, n_cn, n_di, unlabeled, scaled_cn, scaled_di
    )


def _panel_stem(kind: BreakthroughClass, window: tuple[int, int]) -> str:
    return f"{kind.value}_{window[0]}-{window[1]}"


def write_panel(run_dir: Path, panel: PanelMatrix) -> None:
    """The count matrix and its row and column label files."""
    stem = _panel_stem(panel.kind, panel.window)
    base = run_dir / "panels"
    _write_matrix(base / f"{stem}.tsv", "country", panel.subfields, panel.countries, panel.counts)
    (base / f"{stem}.rows.txt").write_text(
        "".join(f"{c}\n" for c in panel.countries), encoding="utf-8"
    )
    (base / f"{stem}.cols.txt").write_text(
        "".join(f"{s}\n" for s in panel.subfields), encoding="utf-8"
    )


def _load_cells(lines: list[str], columns: Sequence[int], dtype: type) -> np.ndarray:
    """The fields ``columns`` of each tab-separated line, as ``dtype``."""
    with warnings.catch_warnings():
        # numpy releases that only deprecate it read "1.5" as 1 with a warning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(
            lines, dtype=dtype, delimiter="\t", usecols=columns, ndmin=2, comments=None
        )


_REFUSED = (ValueError, OverflowError, DeprecationWarning)


def _refusal(cell: str, dtype: type) -> str | None:
    """Why ``cell`` is refused as ``dtype``, or None: it does not parse, or
    it is a float that is not finite."""
    try:
        value = _load_cells([f"-\t{cell}"], range(1, 2), dtype)
    except _REFUSED:
        return f"{cell!r} is not {'a decimal int64' if dtype is np.int64 else 'a float64'}"
    return None if np.isfinite(value).all() else f"{cell!r} is not finite"


def _read_table(path: Path, names: Sequence[str] = ()) -> tuple[list[str], list[str]]:
    """The header fields and the data lines of a tab-separated table.

    With ``names``, the header must list them, in order, unless the file is
    empty; it is checked before any line.  A line, numbered from 2, that has
    not as many fields as the header is a ``ValueError``.
    """
    with open(path, encoding="utf-8-sig") as fh:
        head, *lines = fh.read().removesuffix("\n").split("\n")
    expected = "\t".join(names)
    if names and head != expected and (head or lines):
        raise ValueError(f"{path}, line 1: header {head!r}, expected {expected!r}")
    header = head.split("\t")
    for number, line in enumerate(lines, start=2):
        fields = line.count("\t") + 1
        if fields != len(header):
            raise ValueError(f"{path}, line {number}: {fields} fields, expected {len(header)}")
    return header, lines


def _parse_cells(
    path: Path, lines: list[str], columns: Sequence[int], dtype: type
) -> np.ndarray:
    """:func:`_load_cells` of lines whose field counts are checked; a cell
    it refuses, or a float that is not finite, is a ``ValueError`` naming the
    file, line and field.  No line or no column gives an empty array, where
    loadtxt would warn."""
    if not lines or not columns:
        return np.zeros((len(lines), len(columns)), dtype=dtype)
    try:
        cells = _load_cells(lines, columns, dtype)
        if np.isfinite(cells).all():
            return cells
    except _REFUSED:
        pass
    # the field counts are right, so some cell is refused on its own
    number, field, refusal = next(
        (number, field + 1, refusal)
        for number, line in enumerate(lines, start=2)
        for field, cell in enumerate(line.split("\t"))
        if field in columns and (refusal := _refusal(cell, dtype))
    )
    raise ValueError(f"{path}, line {number}, field {field}: {refusal}")


def read_panel(matrix_path: Path) -> PanelMatrix:
    """Read a panel matrix written by :func:`write_panel`.

    The window and class come from the file name, e.g. ``DI_1950-1959.tsv``.
    Every count must be an ASCII decimal int64.  A bad name is a
    ``ValueError`` naming the file; a bad or repeated label (subfield ids
    compared as integers), a row with the wrong number of fields or a bad
    count is one naming the file and line.
    """
    matrix_path = Path(matrix_path)
    kind_token, _, span = matrix_path.stem.partition("_")
    lo, _, hi = span.partition("-")
    try:
        window, kind = (int(lo), int(hi)), BreakthroughClass(kind_token)
    except ValueError:
        raise ValueError(f"{matrix_path}: name is not <CN|DI>_<first>-<last>.tsv") from None
    header, lines = _read_table(matrix_path)
    try:
        subfields = tuple(int(s) for s in header[1:])
    except ValueError as exc:
        raise ValueError(f"{matrix_path}, line 1: {exc}") from None
    if (field := _first_repeat(subfields)) is not None:
        raise ValueError(f"{matrix_path}, line 1: subfield {subfields[field]} repeats")
    countries = tuple(line.partition("\t")[0] for line in lines)
    if (row := _first_repeat(countries)) is not None:
        raise ValueError(f"{matrix_path}, line {row + 2}: country {countries[row]!r} repeats")
    counts = _parse_cells(matrix_path, lines, range(1, len(subfields) + 1), np.int64)
    return PanelMatrix(
        window=window, kind=kind, counts=counts, countries=countries, subfields=subfields
    )


def _first_repeat(labels: Sequence) -> int | None:
    """Index of the first of ``labels`` that equals an earlier one, or None."""
    first: dict = {}
    return next((i for i, label in enumerate(labels) if first.setdefault(label, i) != i), None)


def write_cluster_outputs(
    run_dir: Path,
    distances: DistanceMatrix,
    similarity: SimilarityMatrix,
    result: ClusteringResult,
) -> None:
    """The distance and similarity matrices, the cluster id of each label
    and the result's mean trajectories, one row per cluster and year."""
    base = run_dir / "cluster"
    for name, pairs in (("dtw_distance", distances), ("similarity", similarity)):
        _write_matrix(base / f"{name}.tsv", "subfield", pairs.labels, pairs.labels, pairs.matrix)
    cluster = result.cluster
    columns = (result.labels, np.where(cluster > 0, _cell_text(cluster), "-").tolist(), cluster == 0)
    _write_table(base / "assignments.tsv", ("subfield", "cluster", "singleton"), columns)
    clusters, years = result.means.shape[:2]
    ids = np.repeat(np.arange(1, clusters + 1), years)
    columns = (ids, np.tile(result.years, clusters), *result.means.reshape(-1, 2).T)
    header = ("cluster", "year", "mean_scaled_cn", "mean_scaled_di")
    _write_table(base / "mean_trajectories.tsv", header, columns)


def write_rank_outputs(
    run_dir: Path,
    rca_matrix: RcaMatrix,
    adjacency: BinaryAdjacency,
    countries: GenepyResult,
    subfields: GenepyResult,
) -> None:
    stem = _panel_stem(adjacency.kind, adjacency.window)
    base = run_dir / "ranks"
    _write_matrix(
        base / f"{stem}_rca.tsv", "country", rca_matrix.subfields, rca_matrix.countries,
        rca_matrix.values,
    )
    _write_matrix(
        base / f"{stem}_adjacency.tsv", "country", adjacency.subfields, adjacency.countries,
        adjacency.matrix,
    )
    header = ("rank", "label", "score", "tie_rank", "pruned")
    for result in (countries, subfields):
        _write_table(base / f"{stem}_{result.side}.tsv", header, result.table())
    _write_json(
        base / f"{stem}_diagnostics.json",
        {
            "window": list(adjacency.window),
            "kind": adjacency.kind.value,
            "pruned_countries": list(adjacency.pruned_countries),
            "pruned_subfields": [str(s) for s in adjacency.pruned_subfields],
            "eigenvalues_countries": list(countries.eigenvalues),
            "eigenvalues_subfields": list(subfields.eigenvalues),
            "residuals_countries": list(countries.residuals),
            "residuals_subfields": list(subfields.residuals),
        },
    )


# -- stages ------------------------------------------------------------------
# Each stage takes explicit inputs, writes its tables under ``out_dir`` and
# returns (result, manifest detail, skipped).  ``run_pipeline`` and the CLI
# subcommands call the same functions.


def ingest_stage(
    paths: str | Iterable[str],
    schema: FieldMap,
    year_min: int,
    year_max: int,
    snapshot: str | Path,
    report: str | Path | None,
) -> tuple[CitationCorpus, str, bool]:
    """Parse works into a corpus; write its snapshot and, if asked, the report."""
    if year_min > year_max:
        raise ValueError(f"year_min {year_min} exceeds year_max {year_max}")
    corpus, ingest_report = ingest_files(
        paths, schema, year_min=year_min, year_max=year_max
    )
    corpus.save_snapshot(snapshot)
    if report:
        _write_json(Path(report), ingest_report.as_dict())
    return corpus, f"{corpus.n_works} works, {corpus.n_edges} edges", False


def metrics_stage(
    corpus: CitationCorpus,
    horizon: int,
    year_range: tuple[int, int],
    cocited_semantics: str,
    gamma_convention: str,
    out_dir: Path,
) -> tuple[ScoredWorks, str, bool]:
    """NBNC and CD of every work in ``year_range``."""
    if year_range[0] > year_range[1]:
        raise ValueError(f"first year {year_range[0]} exceeds last year {year_range[1]}")
    scores = nbnc_all(
        corpus,
        horizon,
        year_range,
        cocited_semantics=cocited_semantics,
        gamma_convention=gamma_convention,
    )
    cds = cd_all(corpus, horizon, year_range)
    write_metrics_tables(out_dir, corpus, scores, cds)
    scored = ScoredWorks(scores.works, scores.value, cds.value)
    return scored, f"{len(scores)} works scored", False


def select_stage(
    corpus: CitationCorpus,
    scored: ScoredWorks,
    top_fraction: float,
    years: Iterable[int],
    out_dir: Path,
) -> tuple[ScoredWorks, str, bool]:
    """Top-fraction breakthroughs per year; the detail counts ``years`` unscored."""
    chosen = select_breakthroughs(corpus, scored, top_fraction)
    write_breakthrough_tables(out_dir, corpus, chosen)
    years = sorted_unique(list(years))
    missing = np.count_nonzero(~sorted_member(years, np.sort(corpus.pub_years[scored.works])))
    detail = f"{len(chosen)} breakthroughs"
    if missing:
        detail += f"; years without scored works: {missing}"
    return chosen, detail, False


def panel_stage(
    corpus: CitationCorpus,
    chosen: ScoredWorks,
    start: int,
    end: int,
    window_width: int,
    allowlist: Iterable[int] | None,
    out_dir: Path,
) -> tuple[tuple[SeriesTable, list[PanelMatrix]], str, bool]:
    """Scaled subfield series over start..end and a panel per window and class.

    ``allowlist``, when given, restricts the panels (not the series) to
    those subfields.
    """
    windows = decade_windows(start, end, window_width)
    series = scaled_counts(subfield_series(corpus, chosen, range(start, end + 1)))
    write_series_table(out_dir, series)
    if allowlist is not None:
        allowed = np.sort(list(allowlist))
        chosen = chosen.take(sorted_member(corpus.subfields[chosen.works], allowed))
    panels: list[PanelMatrix] = []
    for window in windows:
        for kind in (BreakthroughClass.CONSOLIDATING, BreakthroughClass.DISRUPTIVE):
            panel = country_subfield_counts(corpus, chosen, window, kind)
            write_panel(out_dir, panel)
            panels.append(panel)
    detail = f"{len(series.subfields)} subfields, {len(panels)} panels"
    return (series, panels), detail, False


def cluster_stage(
    series: SeriesTable,
    per_component: bool,
    sigma: float | None,
    resolution: float,
    seed: int,
    out_dir: Path,
) -> tuple[ClusteringResult | None, str, bool]:
    """Cluster the subfield trajectories on the series' year grid.

    With fewer than two subfields nothing is written and the stage is
    skipped.  ``sigma`` None picks the kernel width from the distances.
    """
    trajectories = trajectories_from_series(series)
    if len(trajectories) < 2:
        return None, "fewer than 2 subfields; clustering skipped", True
    distances = distance_matrix(trajectories, per_component=per_component)
    sigma = sigma if sigma is not None else default_sigma(distances)
    similarity = similarity_matrix(distances, sigma)
    result = with_mean_trajectories(
        leiden_clusters(similarity, resolution=resolution, seed=seed), trajectories
    )
    write_cluster_outputs(out_dir, distances, similarity, result)
    detail = f"{result.cluster.max()} clusters, {(result.cluster == 0).sum()} singletons"
    return result, detail, False


def rank_stage(
    panels: Iterable[PanelMatrix], rca_threshold: float, eigen_count: int, out_dir: Path
) -> tuple[dict, str, bool]:
    """RCA-filter and GENEPY-rank every panel with a positive count whose
    RCA reaches ``rca_threshold`` somewhere.

    Returns {(kind, window): (countries result, subfields result)}; the
    stage is skipped when no panel was ranked.
    """
    rankings = {}
    empty, below = [], []
    for panel in panels:
        stem = _panel_stem(panel.kind, panel.window)
        if panel.counts.size == 0 or not (panel.counts > 0).any():
            empty.append(stem)
            continue
        rca_matrix = rca(panel)
        adjacency = binarize(rca_matrix, rca_threshold)
        if adjacency.matrix.size == 0:
            below.append(stem)
            continue
        results = genepy_scores(adjacency, eigen_count)
        write_rank_outputs(out_dir, rca_matrix, adjacency, *results)
        rankings[(panel.kind, panel.window)] = results
    detail = f"{len(rankings)} window/kind rankings"
    if empty:
        detail += f"; empty panels skipped: {','.join(empty)}"
    if below:
        detail += f"; panels below the RCA threshold skipped: {','.join(below)}"
    return rankings, detail, not rankings


# -- the orchestrator --------------------------------------------------------


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and return the manifest (also written to disk).

    Any stage failure aborts the run with :class:`StageError`; the manifest
    is still written with the failed stage marked and ``complete: false``.
    """
    config.validate()
    run_dir = Path(config.out_root) / config.config_hash()
    # the directory is named by the config alone, so files of an earlier run
    # on a since-changed corpus must go before the manifest checksums them
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    stages: list[StageOutcome] = []

    def stage(name: str, runner, *args):
        started = time.monotonic()
        try:
            result, detail, skipped = runner(*args)
        except Exception as exc:
            stages.append(
                StageOutcome(name, "error", time.monotonic() - started, str(exc))
            )
            _write_manifest(config, run_dir, stages, complete=False)
            raise StageError(name, exc) from exc
        status = "skipped" if skipped else "ok"
        stages.append(StageOutcome(name, status, time.monotonic() - started, detail))
        return result

    start, end = config.analysis_start, config.analysis_end
    corpus = stage(
        "ingest", ingest_stage, config.corpus_path, config.field_map(),
        config.year_min, config.year_max, run_dir / "corpus.snap",
        run_dir / "ingest_report.json",
    )
    scored = stage(
        "metrics", metrics_stage, corpus, config.horizon, (start, end),
        config.cocited_semantics, config.gamma_convention, run_dir,
    )
    chosen = stage(
        "select", select_stage, corpus, scored, config.top_fraction,
        range(start, end + 1), run_dir,
    )
    series, panels = stage(
        "panel", panel_stage, corpus, chosen, start, end, config.window_width,
        config.subfield_allowlist or None, run_dir,
    )
    stage(
        "cluster", cluster_stage, series, config.dtw_per_component,
        config.sigma, config.leiden_resolution, config.leiden_seed, run_dir,
    )
    rankings = stage(
        "rank", rank_stage, panels, config.rca_threshold, config.eigen_count, run_dir
    )
    stage("analyses", _analyses_stage, config, corpus, chosen, rankings, run_dir)
    return _write_manifest(config, run_dir, stages, complete=True)


def _country_ranks(rankings: dict, key: tuple) -> dict[str, float]:
    """Tie rank of every unpruned country in the countries ranking under
    ``key``, so countries whose scores tie share a rank whatever their codes."""
    countries = rankings[key][0]
    labels = [countries.labels[i] for i in countries.order.tolist()]
    return dict(zip(labels, countries.tie_rank.astype(float).tolist()))


def _analyses_stage(
    config: PipelineConfig,
    corpus: CitationCorpus,
    chosen: ScoredWorks,
    rankings: dict,
    run_dir: Path,
) -> tuple[None, str, bool]:
    comparator = config.comparator_rank_path
    gerd_inputs = config.rd_share_path and config.gdp_path
    if not comparator and not gerd_inputs:
        return None, "no external indicators configured", True
    tables = []  # (file, header, rows, note when there are no rows)

    if comparator and rankings:
        by_period: dict[int, dict[str, float]] = {}
        for (country, period), value in stats.read_indicator_file(comparator).items():
            by_period.setdefault(period, {})[country] = value
        rows = []
        for kind in (BreakthroughClass.DISRUPTIVE, BreakthroughClass.CONSOLIDATING):
            windows = sorted(w for k, w in rankings if k is kind)
            if not windows:
                continue
            last = windows[-1]
            ours = _country_ranks(rankings, (kind, last))
            for period in sorted(by_period):
                try:
                    rho = stats.spearman(ours, by_period[period])
                except stats.InsufficientDataError:
                    continue
                common = len(set(ours) & set(by_period[period]))
                rows.append(
                    (kind.value, f"{last[0]}-{last[1]}", period, common, rho)
                )
        tables.append((
            "spearman.tsv",
            ("kind", "window", "period", "n_common", "spearman"),
            rows,
            "comparator given but no comparable periods",
        ))
    elif comparator:
        tables.append(("spearman.tsv", (), [], "comparator given but no rankings to compare"))

    if gerd_inputs:
        rd = stats.read_indicator_file(config.rd_share_path)
        gdp = stats.read_indicator_file(config.gdp_path)
        gerd = stats.gerd_means(rd, gdp, config.gerd_window)
        lo, hi = config.gerd_window
        rows = []
        for kind in (BreakthroughClass.CONSOLIDATING, BreakthroughClass.DISRUPTIVE):
            counts = country_counts(corpus, chosen, (lo, hi), kind)
            targets = [("counts", counts)]
            covering = [
                w for k, w in rankings if k is kind and w[0] <= lo and hi <= w[1]
            ]
            if covering:
                targets.append(("rank", _country_ranks(rankings, (kind, covering[0]))))
            # counts and ranks are >= 1, so only the GERD side can be non-positive
            for target, values in targets:
                pairs = [
                    (gerd[country], values[country])
                    for country in sorted(values)
                    if country in gerd and gerd[country] > 0
                ]
                if len(pairs) < 3:
                    continue
                try:
                    fit = stats.loglog_fit(*zip(*pairs))
                except stats.InsufficientDataError:
                    continue
                cells = (fit.exponent, fit.prefactor, fit.residual)
                rows.append((kind.value, target, len(pairs), *cells))
        tables.append((
            "gerd_fit.tsv",
            ("kind", "target", "n", "exponent", "prefactor", "residual"),
            rows,
            "GERD inputs given but too few overlapping countries",
        ))

    notes = []
    for name, header, rows, note in tables:
        if rows:
            kinds, labels, *numbers = zip(*rows)
            _write_table(
                run_dir / "analysis" / name, header, (list(kinds), list(labels), *numbers)
            )
        else:
            notes.append(note)
    return None, "; ".join(notes) or "analyses written", len(notes) == len(tables)


def _write_manifest(
    config: PipelineConfig,
    run_dir: Path,
    stages: list[StageOutcome],
    complete: bool,
) -> dict:
    outputs = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            rel = path.relative_to(run_dir).as_posix()
            outputs[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = {
        "schema": 1,
        "complete": complete,
        "config_hash": config.config_hash(),
        "config": {k: v for k, v in config.canonical_items()},
        "stages": [
            {
                "name": s.name,
                "status": s.status,
                "seconds": round(s.seconds, 6),
                "detail": s.detail,
            }
            for s in stages
        ],
        "outputs": outputs,
    }
    _write_json(run_dir / "manifest.json", manifest)
    return manifest

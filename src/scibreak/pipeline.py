"""End-to-end pipeline: ingest, metrics, selection, panels, clusters, ranks.

Every stage writes delimited text (or JSON for reports) under a run
directory named by the config hash.  Identical config and inputs reproduce
identical bytes for every output table; the manifest additionally records a
checksum per output so two runs can be compared at a glance.  Stage timings
in the manifest are informational and excluded from that contract.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import analysis as stats
from .clustering import (
    ClusteringResult,
    DistanceMatrix,
    SimilarityMatrix,
    Trajectory,
    default_sigma,
    distance_matrix,
    leiden_clusters,
    similarity_matrix,
    trajectories_from_series,
    with_mean_trajectories,
)
from .complexity import BinaryAdjacency, binarize, genepy_scores, rca, rank_table
from .config import PipelineConfig
from .corpus import CitationCorpus, ingest_files
from .impact import (
    BreakthroughClass,
    CdScore,
    CdTable,
    NbncScore,
    NbncTable,
    cd_all,
    nbnc_all,
)
from .panel import (
    BreakthroughRecord,
    PanelMatrix,
    SeriesResult,
    SubfieldSeries,
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


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_lines(path: Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """Write a tab-separated table whose cells are already strings."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _write_tsv(path: Path, header: Iterable[str], rows: Iterable[Iterable[object]]) -> None:
    _write_lines(path, header, (map(_fmt, row) for row in rows))


def _write_matrix(
    path: Path, corner: str, col_labels: Iterable[object], row_labels: Iterable[object], matrix: np.ndarray
) -> None:
    header = [corner] + [str(c) for c in col_labels]
    rows = (
        [str(label), *map(_fmt, row)]
        for label, row in zip(row_labels, matrix.tolist())
    )
    _write_lines(path, header, rows)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _flags(*pairs: tuple[str, bool]) -> str:
    tokens = [name for name, on in pairs if on]
    return ",".join(tokens) if tokens else "-"


# -- stage writers -----------------------------------------------------------


def write_metrics_tables(
    run_dir: Path, corpus: CitationCorpus, scores: NbncTable, cds: CdTable
) -> list[Path]:
    """One columnar file per publication year: work_id, nbnc, cd, flags.

    ``scores`` and ``cds`` must cover the same works; rows within a year are
    ordered by work id.
    """
    if not np.array_equal(scores.works, cds.works):
        raise ValueError("NBNC and CD scores cover different works")
    ids = corpus.ids
    nbnc_values = scores.value.tolist()
    cd_values = cds.value.tolist()
    flags = [
        _flags(("truncated_horizon", truncated), ("cd_zero_denominator", zero))
        for truncated, zero in zip(
            scores.truncated.tolist(), cds.zero_denominator.tolist()
        )
    ]
    by_year: dict[int, list[tuple[str, int]]] = {}
    works = scores.works.tolist()
    years = corpus.pub_years[scores.works].tolist()
    for row, (idx, year) in enumerate(zip(works, years)):
        by_year.setdefault(year, []).append((ids[idx], row))
    written = []
    for year in sorted(by_year):
        path = run_dir / "metrics" / f"metrics_{year}.tsv"
        _write_tsv(
            path,
            ("work_id", "nbnc", "cd", "flags"),
            (
                (wid, nbnc_values[row], cd_values[row], flags[row])
                for wid, row in sorted(by_year[year])
            ),
        )
        written.append(path)
    return written


def read_metrics_dir(metrics_dir: Path) -> tuple[dict[str, NbncScore], dict[str, CdScore]]:
    """Rebuild minimal score objects from metrics tables (for stage reuse)."""
    scores: dict[str, NbncScore] = {}
    cds: dict[str, CdScore] = {}
    for path in sorted(Path(metrics_dir).glob("metrics_*.tsv")):
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                wid, nbnc_s, cd_s, flags = line.rstrip("\n").split("\t")
                flagset = set(flags.split(",")) if flags != "-" else set()
                scores[wid] = NbncScore(
                    wid, -1, float(nbnc_s), (), "truncated_horizon" in flagset
                )
                cds[wid] = CdScore(
                    wid,
                    -1,
                    float(cd_s),
                    0,
                    0,
                    0,
                    0,
                    "cd_zero_denominator" in flagset,
                )
    return scores, cds


def write_breakthrough_tables(
    run_dir: Path, records: list[BreakthroughRecord]
) -> list[Path]:
    header = ("work_id", "year", "subfield", "countries", "nbnc", "cd", "class")
    by_year: dict[int, list[BreakthroughRecord]] = {}
    for record in records:
        by_year.setdefault(record.year, []).append(record)
    written = []
    for year in sorted(by_year):
        rows = [
            (
                r.work_id,
                r.year,
                "-" if r.subfield_id is None else r.subfield_id,
                ",".join(r.country_codes) if r.country_codes else "-",
                r.nbnc_value,
                r.cd_value,
                r.klass.value,
            )
            for r in by_year[year]
        ]
        path = run_dir / "breakthroughs" / f"breakthroughs_{year}.tsv"
        _write_tsv(path, header, rows)
        written.append(path)
    return written


def read_breakthrough_tables(directory: Path) -> list[BreakthroughRecord]:
    records: list[BreakthroughRecord] = []
    for path in sorted(Path(directory).glob("breakthroughs_*.tsv")):
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                wid, year, sub, countries, nbnc_s, cd_s, klass = line.rstrip(
                    "\n"
                ).split("\t")
                records.append(
                    BreakthroughRecord(
                        work_id=wid,
                        year=int(year),
                        subfield_id=None if sub == "-" else int(sub),
                        country_codes=()
                        if countries == "-"
                        else tuple(countries.split(",")),
                        nbnc_value=float(nbnc_s),
                        cd_value=float(cd_s),
                        klass=BreakthroughClass(klass),
                    )
                )
    return records


def write_series_table(run_dir: Path, series: SeriesResult) -> Path:
    header = (
        "subfield",
        "year",
        "n_total",
        "n_bt",
        "n_cn",
        "n_di",
        "scaled_cn",
        "scaled_di",
        "flags",
    )
    rows = []
    for sub in sorted(series.by_subfield):
        s = series.by_subfield[sub]
        zero_years = set(s.zero_total_years)
        for i, year in enumerate(s.years):
            rows.append(
                (
                    sub,
                    year,
                    s.n_total[i],
                    s.n_bt[i],
                    s.n_cn[i],
                    s.n_di[i],
                    s.scaled_cn[i] if s.scaled_cn else 0.0,
                    s.scaled_di[i] if s.scaled_di else 0.0,
                    _flags(("zero_total", year in zero_years)),
                )
            )
    path = run_dir / "series" / "subfield_series.tsv"
    _write_tsv(path, header, rows)
    return path


def read_series_table(path: Path) -> SeriesResult:
    """Rebuild per-subfield series from a subfield_series.tsv file."""
    rows_by_subfield: dict[int, list[tuple]] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            sub = int(cells[0])
            rows_by_subfield.setdefault(sub, []).append(
                (
                    int(cells[1]),  # year
                    int(cells[2]),  # n_total
                    int(cells[3]),  # n_bt
                    int(cells[4]),  # n_cn
                    int(cells[5]),  # n_di
                    float(cells[6]),
                    float(cells[7]),
                    cells[8] != "-",
                )
            )
    by_subfield = {}
    for sub, rows in rows_by_subfield.items():
        rows.sort(key=lambda r: r[0])
        by_subfield[sub] = SubfieldSeries(
            subfield_id=sub,
            years=tuple(r[0] for r in rows),
            n_total=tuple(r[1] for r in rows),
            n_bt=tuple(r[2] for r in rows),
            n_cn=tuple(r[3] for r in rows),
            n_di=tuple(r[4] for r in rows),
            scaled_cn=tuple(r[5] for r in rows),
            scaled_di=tuple(r[6] for r in rows),
            zero_total_years=tuple(r[0] for r in rows if r[7]),
        )
    return SeriesResult(by_subfield=by_subfield, unlabeled={})


def _panel_stem(kind: BreakthroughClass, window: tuple[int, int]) -> str:
    return f"{kind.value}_{window[0]}-{window[1]}"


def write_panel(run_dir: Path, panel: PanelMatrix) -> list[Path]:
    stem = _panel_stem(panel.kind, panel.window)
    base = run_dir / "panels"
    matrix_path = base / f"{stem}.tsv"
    _write_matrix(matrix_path, "country", panel.subfields, panel.countries, panel.counts)
    rows_path = base / f"{stem}.rows.txt"
    cols_path = base / f"{stem}.cols.txt"
    rows_path.parent.mkdir(parents=True, exist_ok=True)
    rows_path.write_text(
        "".join(f"{c}\n" for c in panel.countries), encoding="utf-8"
    )
    cols_path.write_text(
        "".join(f"{s}\n" for s in panel.subfields), encoding="utf-8"
    )
    return [matrix_path, rows_path, cols_path]


def read_panel(matrix_path: Path) -> PanelMatrix:
    """Read a panel matrix written by :func:`write_panel`."""
    matrix_path = Path(matrix_path)
    stem = matrix_path.stem  # e.g. DI_1950-1959
    kind_token, _, span = stem.partition("_")
    lo, _, hi = span.partition("-")
    with open(matrix_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        subfields = tuple(int(s) for s in header[1:])
        countries = []
        values = []
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            countries.append(cells[0])
            values.append([int(v) for v in cells[1:]])
    return PanelMatrix(
        window=(int(lo), int(hi)),
        kind=BreakthroughClass(kind_token),
        counts=np.array(values, dtype=np.int64).reshape(len(countries), len(subfields)),
        countries=tuple(countries),
        subfields=subfields,
    )


def write_cluster_outputs(
    run_dir: Path,
    distances: DistanceMatrix,
    similarity: SimilarityMatrix,
    result: ClusteringResult,
    means: dict[int, Trajectory],
) -> list[Path]:
    base = run_dir / "cluster"
    d_path = base / "dtw_distance.tsv"
    s_path = base / "similarity.tsv"
    _write_matrix(d_path, "subfield", distances.labels, distances.labels, distances.matrix)
    _write_matrix(s_path, "subfield", similarity.labels, similarity.labels, similarity.matrix)
    a_path = base / "assignments.tsv"
    _write_tsv(
        a_path,
        ("subfield", "cluster", "singleton"),
        (
            (
                label,
                "-" if result.assignments[label] is None else result.assignments[label],
                result.assignments[label] is None,
            )
            for label in sorted(result.assignments)
        ),
    )
    m_path = base / "mean_trajectories.tsv"
    rows = []
    for cid in sorted(means):
        mean = means[cid]
        for year, (cn, di) in zip(mean.years, mean.points):
            rows.append((cid, year, float(cn), float(di)))
    _write_tsv(m_path, ("cluster", "year", "mean_scaled_cn", "mean_scaled_di"), rows)
    return [d_path, s_path, a_path, m_path]


def write_rank_outputs(
    run_dir: Path,
    adjacency: BinaryAdjacency,
    rca_values: np.ndarray,
    rca_countries: tuple[str, ...],
    rca_subfields: tuple[int, ...],
    countries_result,
    subfields_result,
) -> list[Path]:
    stem = _panel_stem(adjacency.kind, adjacency.window)
    base = run_dir / "ranks"
    written = []
    rca_path = base / f"{stem}_rca.tsv"
    _write_matrix(rca_path, "country", rca_subfields, rca_countries, rca_values)
    written.append(rca_path)
    m_path = base / f"{stem}_adjacency.tsv"
    _write_matrix(
        m_path, "country", adjacency.subfields, adjacency.countries, adjacency.matrix
    )
    written.append(m_path)
    for result in (countries_result, subfields_result):
        table_path = base / f"{stem}_{result.side}.tsv"
        _write_tsv(
            table_path,
            ("rank", "label", "score", "tie_rank", "pruned"),
            (
                (r["rank"], r["label"], r["score"], r["tie_rank"], r["pruned"])
                for r in rank_table(result)
            ),
        )
        written.append(table_path)
    diag_path = base / f"{stem}_diagnostics.json"
    _write_json(
        diag_path,
        {
            "window": list(adjacency.window),
            "kind": adjacency.kind.value,
            "pruned_countries": list(adjacency.pruned_countries),
            "pruned_subfields": [str(s) for s in adjacency.pruned_subfields],
            "eigenvalues_countries": list(countries_result.eigenvalues),
            "eigenvalues_subfields": list(subfields_result.eigenvalues),
            "residuals_countries": list(countries_result.residuals),
            "residuals_subfields": list(subfields_result.residuals),
        },
    )
    written.append(diag_path)
    return written


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
    state: dict[str, object] = {}

    plan = (
        ("ingest", _stage_ingest),
        ("metrics", _stage_metrics),
        ("select", _stage_select),
        ("panel", _stage_panel),
        ("cluster", _stage_cluster),
        ("rank", _stage_rank),
        ("analyses", _stage_analyses),
    )
    for name, runner in plan:
        started = time.monotonic()
        try:
            detail, skipped = runner(config, run_dir, state)
        except Exception as exc:
            stages.append(
                StageOutcome(name, "error", time.monotonic() - started, str(exc))
            )
            _write_manifest(config, run_dir, stages, complete=False)
            raise StageError(name, exc) from exc
        stages.append(
            StageOutcome(
                name,
                "skipped" if skipped else "ok",
                time.monotonic() - started,
                detail,
            )
        )
    return _write_manifest(config, run_dir, stages, complete=True)


def _stage_ingest(
    config: PipelineConfig, run_dir: Path, state: dict
) -> tuple[str, bool]:
    corpus, report = ingest_files(
        config.corpus_path,
        config.field_map(),
        year_min=config.year_min,
        year_max=config.year_max,
    )
    corpus.save_snapshot(run_dir / "corpus.snap")
    _write_json(run_dir / "ingest_report.json", report.as_dict())
    state["corpus"] = corpus
    state["report"] = report
    return f"{corpus.n_works} works, {corpus.n_edges} edges", False


def _stage_metrics(
    config: PipelineConfig, run_dir: Path, state: dict
) -> tuple[str, bool]:
    corpus: CitationCorpus = state["corpus"]
    year_range = (config.analysis_start, config.analysis_end)
    scores = nbnc_all(
        corpus,
        config.horizon,
        year_range,
        cocited_semantics=config.cocited_semantics,
        gamma_convention=config.gamma_convention,
    )
    cds = cd_all(corpus, config.horizon, year_range)
    write_metrics_tables(run_dir, corpus, scores, cds)
    state["scores"] = scores
    state["cds"] = cds
    return f"{len(scores)} works scored", False


def _stage_select(
    config: PipelineConfig, run_dir: Path, state: dict
) -> tuple[str, bool]:
    corpus: CitationCorpus = state["corpus"]
    records = select_breakthroughs(
        corpus, state["scores"], state["cds"], config.top_fraction
    )
    write_breakthrough_tables(run_dir, records)
    state["records"] = records
    scored_years = {
        corpus.pub_year_of(corpus.work_index(w)) for w in state["scores"]
    }
    missing = [
        y
        for y in range(config.analysis_start, config.analysis_end + 1)
        if y not in scored_years
    ]
    detail = f"{len(records)} breakthroughs"
    if missing:
        detail += f"; years without scored works: {len(missing)}"
    return detail, False


def _stage_panel(
    config: PipelineConfig, run_dir: Path, state: dict
) -> tuple[str, bool]:
    corpus: CitationCorpus = state["corpus"]
    records: list[BreakthroughRecord] = state["records"]
    years = range(config.analysis_start, config.analysis_end + 1)
    series = subfield_series(records, corpus, years)
    series = SeriesResult(
        by_subfield={
            sub: scaled_counts(s) for sub, s in series.by_subfield.items()
        },
        unlabeled=series.unlabeled,
    )
    write_series_table(run_dir, series)
    state["series"] = series

    allow = (
        set(config.subfield_allowlist) if config.subfield_allowlist else None
    )
    panel_records = (
        records
        if allow is None
        else [r for r in records if r.subfield_id in allow]
    )
    windows = decade_windows(
        config.analysis_start, config.analysis_end, config.window_width
    )
    panels: list[PanelMatrix] = []
    for window in windows:
        for kind in (BreakthroughClass.CONSOLIDATING, BreakthroughClass.DISRUPTIVE):
            panel = country_subfield_counts(panel_records, window, kind)
            write_panel(run_dir, panel)
            panels.append(panel)
    state["panels"] = panels
    return f"{len(series.by_subfield)} subfields, {len(panels)} panels", False


def _stage_cluster(
    config: PipelineConfig, run_dir: Path, state: dict
) -> tuple[str, bool]:
    series: SeriesResult = state["series"]
    years = range(config.analysis_start, config.analysis_end + 1)
    trajectories = trajectories_from_series(series.by_subfield, years)
    if len(trajectories) < 2:
        return "fewer than 2 subfields; clustering skipped", True
    distances = distance_matrix(
        trajectories, per_component=config.dtw_per_component
    )
    sigma = config.sigma if config.sigma is not None else default_sigma(distances)
    similarity = similarity_matrix(distances, sigma)
    result = with_mean_trajectories(
        leiden_clusters(
            similarity, resolution=config.leiden_resolution, seed=config.leiden_seed
        ),
        trajectories,
    )
    write_cluster_outputs(
        run_dir, distances, similarity, result, result.mean_trajectories
    )
    state["clusters"] = result
    return (
        f"{len(result.cluster_members)} clusters, "
        f"{len(result.singletons)} singletons"
    ), False


def _stage_rank(
    config: PipelineConfig, run_dir: Path, state: dict
) -> tuple[str, bool]:
    panels: list[PanelMatrix] = state["panels"]
    rankings = {}
    skipped = []
    for panel in panels:
        key = (panel.kind, panel.window)
        if panel.counts.size == 0 or not (panel.counts > 0).any():
            skipped.append(_panel_stem(panel.kind, panel.window))
            continue
        rca_matrix = rca(panel)
        adjacency = binarize(rca_matrix, config.rca_threshold)
        countries_result, subfields_result = genepy_scores(
            adjacency, config.eigen_count
        )
        write_rank_outputs(
            run_dir,
            adjacency,
            rca_matrix.values,
            rca_matrix.countries,
            rca_matrix.subfields,
            countries_result,
            subfields_result,
        )
        rankings[key] = (countries_result, subfields_result)
    state["rankings"] = rankings
    detail = f"{len(rankings)} window/kind rankings"
    if skipped:
        detail += f"; empty panels skipped: {','.join(skipped)}"
    return detail, not rankings


def _stage_analyses(
    config: PipelineConfig, run_dir: Path, state: dict
) -> tuple[str, bool]:
    rankings = state.get("rankings") or {}
    notes = []
    wrote_any = False

    if config.comparator_rank_path and rankings:
        comparator = stats.read_indicator_file(config.comparator_rank_path)
        by_period: dict[int, dict[str, float]] = {}
        for row in comparator:
            by_period.setdefault(row.period, {})[row.country] = row.value
        rows = []
        for kind in (BreakthroughClass.DISRUPTIVE, BreakthroughClass.CONSOLIDATING):
            windows = sorted(w for k, w in rankings if k is kind)
            if not windows:
                continue
            last = windows[-1]
            ours = {
                e.label: float(e.rank)
                for e in rankings[(kind, last)][0].ranking
                if not e.pruned
            }
            for period in sorted(by_period):
                try:
                    rho = stats.spearman(ours, by_period[period])
                except stats.InsufficientDataError:
                    continue
                common = len(set(ours) & set(by_period[period]))
                rows.append(
                    (kind.value, f"{last[0]}-{last[1]}", period, common, rho)
                )
        if rows:
            _write_tsv(
                run_dir / "analysis" / "spearman.tsv",
                ("kind", "window", "period", "n_common", "spearman"),
                rows,
            )
            wrote_any = True
        else:
            notes.append("comparator given but no comparable periods")
    elif config.comparator_rank_path:
        notes.append("comparator given but no rankings to compare")

    if config.rd_share_path and config.gdp_path:
        rd = stats.read_indicator_file(config.rd_share_path)
        gdp = stats.read_indicator_file(config.gdp_path)
        gerd = stats.gerd_means(rd, gdp, config.gerd_window)
        records: list[BreakthroughRecord] = state["records"]
        lo, hi = config.gerd_window
        rows = []
        for kind in (BreakthroughClass.CONSOLIDATING, BreakthroughClass.DISRUPTIVE):
            counts: dict[str, int] = {}
            for record in records:
                if record.klass is kind and lo <= record.year <= hi:
                    for code in record.country_codes:
                        counts[code] = counts.get(code, 0) + 1
            xs = []
            ys = []
            for country in sorted(counts):
                if country in gerd and counts[country] > 0 and gerd[country].value > 0:
                    xs.append(gerd[country].value)
                    ys.append(float(counts[country]))
            if len(xs) >= 3:
                fit = stats.loglog_fit(xs, ys)
                rows.append(
                    (
                        kind.value,
                        "counts",
                        len(xs),
                        fit.exponent,
                        fit.prefactor,
                        fit.residual,
                    )
                )
            window_key = next(
                (
                    (kind, w)
                    for k, w in rankings
                    if k is kind and w[0] <= lo and hi <= w[1]
                ),
                None,
            )
            if window_key in rankings:
                ranks = {
                    e.label: float(e.rank)
                    for e in rankings[window_key][0].ranking
                    if not e.pruned
                }
                xs = []
                ys = []
                for country in sorted(ranks):
                    if country in gerd and gerd[country].value > 0:
                        xs.append(gerd[country].value)
                        ys.append(ranks[country])
                if len(xs) >= 3:
                    fit = stats.loglog_fit(xs, ys)
                    rows.append(
                        (
                            kind.value,
                            "rank",
                            len(xs),
                            fit.exponent,
                            fit.prefactor,
                            fit.residual,
                        )
                    )
        if rows:
            _write_tsv(
                run_dir / "analysis" / "gerd_fit.tsv",
                ("kind", "target", "n", "exponent", "prefactor", "residual"),
                rows,
            )
            wrote_any = True
        else:
            notes.append("GERD inputs given but too few overlapping countries")

    if not config.comparator_rank_path and not (
        config.rd_share_path and config.gdp_path
    ):
        return "no external indicators configured", True
    return "; ".join(notes) if notes else "analyses written", not wrote_any


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

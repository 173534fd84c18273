"""Command-line interface for the breakthrough analytics pipeline.

Each stage subcommand reads the artifacts of the previous stage, calls the
stage function of :mod:`scibreak.pipeline` that ``run`` also calls, and
prints the detail that ``run`` records in its manifest; a skipped stage
writes nothing and exits 1.  ``run`` executes everything from a config
file.  A stage flag left out takes the default of its config key.  See the
README for the config schema and output layout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis as stats
from .config import ConfigError, PipelineConfig, with_overrides
from .corpus import CitationCorpus, FieldMap, UnknownWorkError
from .impact import COCITED_SEMANTICS, GAMMA_CONVENTIONS
from .pipeline import (
    StageError,
    cluster_stage,
    ingest_stage,
    metrics_stage,
    panel_stage,
    rank_stage,
    read_panel,
    read_scored_tables,
    read_series_table,
    run_pipeline,
    select_stage,
)

# not called here; bench/tracing.py wraps these names on this module
from .clustering import cluster_mean_trajectory, default_sigma  # noqa: F401
from .clustering import distance_matrix, leiden_clusters, similarity_matrix  # noqa: F401
from .complexity import binarize, genepy_scores, rca  # noqa: F401
from .corpus import ingest_files  # noqa: F401
from .pipeline import write_cluster_outputs, write_rank_outputs  # noqa: F401


def _report(detail: str, skipped: bool, out: str) -> int:
    """Print a stage's detail; a skipped stage exits 1."""
    if skipped:
        print(detail, file=sys.stderr)
        return 1
    print(f"{detail} -> {out}")
    return 0


def _add_ingest(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("ingest", help="parse JSON-lines works into a snapshot")
    p.add_argument("--input", required=True, nargs="+", help="JSONL file(s), .gz ok")
    p.add_argument("--snapshot", required=True, help="output snapshot path")
    p.add_argument("--report", help="optional ingest report JSON path")
    p.add_argument("--year-min", type=int, default=PipelineConfig.year_min)
    p.add_argument("--year-max", type=int, default=PipelineConfig.year_max)
    p.add_argument("--map-id", default=FieldMap.work_id)
    p.add_argument("--map-year", default=FieldMap.pub_year)
    p.add_argument("--map-references", default=FieldMap.references)
    p.add_argument("--map-subfield", default=FieldMap.subfield)
    p.add_argument("--map-countries", default=FieldMap.countries)
    p.set_defaults(handler=_cmd_ingest)


def _cmd_ingest(args: argparse.Namespace) -> int:
    schema = FieldMap(
        work_id=args.map_id,
        pub_year=args.map_year,
        references=args.map_references,
        subfield=args.map_subfield,
        countries=args.map_countries,
    )
    _, detail, skipped = ingest_stage(
        args.input, schema, args.year_min, args.year_max, args.snapshot, args.report
    )
    return _report(detail, skipped, args.snapshot)


def _add_metrics(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("metrics", help="compute NBNC and CD per work")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--horizon", type=int, default=PipelineConfig.horizon)
    p.add_argument("--start", type=int, required=True, help="first pub year scored")
    p.add_argument("--end", type=int, required=True, help="last pub year scored")
    p.add_argument(
        "--cocited-semantics",
        choices=COCITED_SEMANTICS,
        default=PipelineConfig.cocited_semantics,
    )
    p.add_argument(
        "--gamma-convention",
        choices=GAMMA_CONVENTIONS,
        default=PipelineConfig.gamma_convention,
    )
    p.set_defaults(handler=_cmd_metrics)


def _cmd_metrics(args: argparse.Namespace) -> int:
    corpus = CitationCorpus.load_snapshot(args.snapshot)
    _, detail, skipped = metrics_stage(
        corpus,
        args.horizon,
        (args.start, args.end),
        args.cocited_semantics,
        args.gamma_convention,
        Path(args.out_dir),
    )
    return _report(detail, skipped, args.out_dir)


def _add_select(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("select", help="pick top-fraction breakthroughs per year")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--metrics-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--top-fraction", type=float, default=PipelineConfig.top_fraction)
    p.set_defaults(handler=_cmd_select)


def _cmd_select(args: argparse.Namespace) -> int:
    corpus = CitationCorpus.load_snapshot(args.snapshot)
    scored = read_scored_tables(Path(args.metrics_dir), "metrics_*.tsv", corpus)
    # the tables carry no analysis range: look for gaps between their years
    found = corpus.pub_years[scored.works]
    years = range(found.min(), found.max() + 1) if len(found) else ()
    _, detail, skipped = select_stage(
        corpus, scored, args.top_fraction, years, Path(args.out_dir)
    )
    return _report(detail, skipped, args.out_dir)


def _subfield_ids(text: str) -> set[int]:
    """``--allowlist`` value: comma-separated subfield ids."""
    try:
        return {int(s) for s in text.split(",") if s.strip()}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_panel(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("panel", help="build subfield series and country panels")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--breakthroughs-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--end", type=int, required=True)
    p.add_argument("--window-width", type=int, default=PipelineConfig.window_width)
    p.add_argument(
        "--allowlist",
        type=_subfield_ids,
        help="comma-separated subfield ids admitted to panels",
    )
    p.set_defaults(handler=_cmd_panel)


def _cmd_panel(args: argparse.Namespace) -> int:
    corpus = CitationCorpus.load_snapshot(args.snapshot)
    # year, subfield and countries of each breakthrough come from the snapshot
    chosen = read_scored_tables(Path(args.breakthroughs_dir), "breakthroughs_*.tsv", corpus)
    _, detail, skipped = panel_stage(
        corpus, chosen, args.start, args.end, args.window_width, args.allowlist or None,
        Path(args.out_dir),
    )
    return _report(detail, skipped, args.out_dir)


def _add_cluster(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("cluster", help="cluster subfield growth trajectories")
    p.add_argument("--series", required=True, help="subfield_series.tsv path")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--resolution", type=float, default=PipelineConfig.leiden_resolution)
    p.add_argument("--sigma", type=float, help="kernel width (default: auto)")
    p.add_argument("--per-component", action="store_true")
    p.set_defaults(handler=_cmd_cluster)


def _cmd_cluster(args: argparse.Namespace) -> int:
    series = read_series_table(Path(args.series))
    _, detail, skipped = cluster_stage(
        series, args.per_component, args.sigma, args.resolution, args.seed, Path(args.out_dir)
    )
    return _report(detail, skipped, args.out_dir)


def _add_rank(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("rank", help="RCA-filter panels and rank via GENEPY")
    p.add_argument(
        "--panel", required=True, nargs="+", help="panel matrix .tsv path(s)"
    )
    p.add_argument("--out-dir", required=True)
    p.add_argument("--rca-threshold", type=float, default=PipelineConfig.rca_threshold)
    p.add_argument("--eigen-count", type=int, default=PipelineConfig.eigen_count)
    p.set_defaults(handler=_cmd_rank)


def _cmd_rank(args: argparse.Namespace) -> int:
    panels = (read_panel(Path(path)) for path in args.panel)
    _, detail, skipped = rank_stage(
        panels, args.rca_threshold, args.eigen_count, Path(args.out_dir)
    )
    return _report(detail, skipped, args.out_dir)


def _column_pair(text: str) -> tuple[str, str]:
    """``--a-cols``/``--b-cols`` value: the label and value column names."""
    names = [name.strip() for name in text.split(",")]
    if len(names) != 2:
        raise argparse.ArgumentTypeError(f"need label,value column names, got {text!r}")
    return names[0], names[1]


def _add_correlate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("correlate", help="Spearman correlation of two rankings")
    p.add_argument("file_a")
    p.add_argument("file_b")
    for side in "ab":
        p.add_argument(
            f"--{side}-cols", type=_column_pair, default="label,rank",
            help=f"label,value columns of {side.upper()}",
        )
    p.set_defaults(handler=_cmd_correlate)


def _cmd_correlate(args: argparse.Namespace) -> int:
    (a_label, a_value), (b_label, b_value) = args.a_cols, args.b_cols
    number = stats.finite_float
    rank_a = dict(stats.read_columns(args.file_a, (a_label, str), (a_value, number)))
    rank_b = dict(stats.read_columns(args.file_b, (b_label, str), (b_value, number)))
    rho = stats.spearman(rank_a, rank_b)
    common = len(set(rank_a) & set(rank_b))
    print(f"spearman={rho!r} n_common={common}")
    return 0


def _add_fit(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("fit", help="power-law fit of two positive columns")
    p.add_argument("data", help="delimited file with a header row")
    p.add_argument("--x-col", required=True)
    p.add_argument("--y-col", required=True)
    p.set_defaults(handler=_cmd_fit)


def _cmd_fit(args: argparse.Namespace) -> int:
    columns = ((args.x_col, stats.finite_float), (args.y_col, stats.finite_float))
    points = stats.read_columns(args.data, *columns)
    fit = stats.loglog_fit([x for x, _ in points], [y for _, y in points])
    print(
        f"exponent={fit.exponent!r} prefactor={fit.prefactor!r} "
        f"residual={fit.residual!r} n={len(points)}"
    )
    return 0


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-root", help="override the config's output root")
    p.set_defaults(handler=_cmd_run)


def _cmd_run(args: argparse.Namespace) -> int:
    config = PipelineConfig.from_file(args.config)
    if args.out_root:
        config = with_overrides(config, out_root=args.out_root)
    manifest = run_pipeline(config)
    run_dir = Path(config.out_root) / manifest["config_hash"]
    for stage in manifest["stages"]:
        print(f"{stage['name']:<10} {stage['status']:<8} {stage['detail']}")
    print(f"run directory: {run_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scibreak",
        description=(
            "Breakthrough analytics over citation graphs: normalized citation "
            "scores, disruption indices, growth clustering, complexity ranks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (
        _add_ingest, _add_metrics, _add_select, _add_panel, _add_cluster,
        _add_rank, _add_correlate, _add_fit, _add_run,
    ):
        add(sub)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnknownWorkError as exc:
        print(f"error: unknown work id {exc}", file=sys.stderr)
        return 2
    except (ConfigError, StageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

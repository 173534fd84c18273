"""Config handling, stage artifacts, CLI subcommands, and pipeline runs."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import per_cell_matrix_text, per_cell_table_text
from scibreak import cli
from scibreak.cli import main as cli_main
from scibreak.config import ConfigError, PipelineConfig, _render
from scibreak.corpus import CitationCorpus, FieldMap
from scibreak.impact import BreakthroughClass
from scibreak.panel import PanelMatrix
from scibreak.pipeline import (
    StageError,
    _write_matrix,
    _write_table,
    read_panel,
    read_scored_tables,
    read_series_table,
    run_pipeline,
    write_panel,
)
from scibreak.synth import synthetic_records, write_jsonl


SERIES_HEADER = "subfield\tyear\tn_total\tn_bt\tn_cn\tn_di\tscaled_cn\tscaled_di\tflags\n"


def small_config(tmp_path, n_works=200, seed=5, **overrides) -> PipelineConfig:
    corpus_path = tmp_path / "works.jsonl"
    if not corpus_path.exists():
        write_jsonl(
            synthetic_records(n_works, seed=seed, year_start=1970, year_end=2005),
            corpus_path,
        )
    values = dict(
        corpus_path=str(corpus_path),
        out_root=str(tmp_path / "runs"),
        analysis_start=1975,
        analysis_end=2000,
        leiden_seed=9,
    )
    values.update(overrides)
    return PipelineConfig(**values)


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        text = """
        # analysis setup
        corpus_path = data/works.jsonl
        horizon = 8
        top_fraction = 0.1
        subfield_allowlist = 3101, 3105,3200
        sigma =
        leiden_seed = 42
        gerd_window = 1990,1999
        dtw_per_component = true
        """
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(line.strip() for line in text.splitlines()))
        config = PipelineConfig.from_file(path)
        assert config.horizon == 8
        assert config.subfield_allowlist == (3101, 3105, 3200)
        assert config.sigma is None
        assert config.leiden_seed == 42
        assert config.gerd_window == (1990, 1999)
        assert config.dtw_per_component is True

    def test_every_key_round_trips(self, tmp_path):
        changed = dict(
            corpus_path="data/works.jsonl",
            out_root="elsewhere",
            year_min=1901,
            year_max=2020,
            horizon=8,
            top_fraction=0.1,
            analysis_start=1960,
            analysis_end=2010,
            window_width=5,
            subfield_allowlist=(3101, 3105),
            sigma=0.25,
            leiden_seed=42,
            leiden_resolution=0.5,
            rca_threshold=1.5,
            eigen_count=3,
            cocited_semantics="set",
            gamma_convention="focal_calendar",
            dtw_per_component=True,
            map_id="work.id",
            map_year="year",
            map_references="refs",
            map_subfield="topic.subfield",
            map_countries="countries",
            comparator_rank_path="comparator.tsv",
            rd_share_path="rd.tsv",
            gdp_path="gdp.tsv",
            gerd_window=(1990, 1999),
        )
        assert set(changed) == {field.name for field in fields(PipelineConfig)}
        default = PipelineConfig()
        for key, value in changed.items():
            assert value != getattr(default, key), key
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {_render(value)}\n" for key, value in changed.items()))
        assert PipelineConfig.from_file(path) == PipelineConfig(**changed)

    def test_blank_unsets_each_optional_key(self, tmp_path):
        optional = [
            "subfield_allowlist", "sigma", "leiden_seed",
            "comparator_rank_path", "rd_share_path", "gdp_path",
        ]
        assert optional == [f.name for f in fields(PipelineConfig) if f.default is None]
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} =\n" for key in optional))
        config = PipelineConfig.from_file(path)
        for key in optional:
            assert getattr(config, key) is None, key

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("corpus_path = x\nmystery = 1\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # a BOM once read as part of the first key: "unknown key '\ufeffcorpus_path'"
        text = "corpus_path = data/works.jsonl\nhorizon = 8\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        assert PipelineConfig.from_file(bom) == PipelineConfig.from_file(plain)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("horizon = soon\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)

    def test_bad_year_pair_names_its_line(self, tmp_path, capsys):
        # a non-integer year once escaped as a bare int() error
        path = tmp_path / "bad.cfg"
        path.write_text("corpus_path = x\ngerd_window = 1990,abc\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: .*gerd_window"):
            PipelineConfig.from_file(path)
        assert cli_main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")

    def test_repeated_key_names_its_line(self, tmp_path):
        # a second value for a key once silently replaced the first
        path = tmp_path / "twice.cfg"
        path.write_text("horizon = 5\ncorpus_path = x\nhorizon = 8\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: .*'horizon'"):
            PipelineConfig.from_file(path)

    def test_missing_corpus_fails_before_stages(self, tmp_path):
        config = PipelineConfig(
            corpus_path=str(tmp_path / "absent.jsonl"), leiden_seed=1
        )
        with pytest.raises(ConfigError):
            run_pipeline(config)

    def test_seed_required(self, tmp_path):
        (tmp_path / "w.jsonl").write_text("")
        config = PipelineConfig(corpus_path=str(tmp_path / "w.jsonl"))
        with pytest.raises(ConfigError):
            config.validate()

    def test_validation_ranges(self, tmp_path):
        (tmp_path / "w.jsonl").write_text("")
        base = dict(corpus_path=str(tmp_path / "w.jsonl"), leiden_seed=1)
        for bad in (
            dict(top_fraction=0.0),
            dict(top_fraction=1.0),
            dict(horizon=-1),
            dict(window_width=0),
            dict(rca_threshold=0.0),
            dict(eigen_count=0),
            dict(sigma=-2.0),
            dict(cocited_semantics="bag"),
            dict(gamma_convention="sideways"),
            dict(analysis_start=2001, analysis_end=2000),
            # nan passes a "<= 0" check
            dict(leiden_resolution=float("nan")),
            dict(rca_threshold=float("nan")),
            dict(sigma=float("nan")),
        ):
            with pytest.raises(ConfigError):
                PipelineConfig(**base, **bad).validate()

    def test_hash_excludes_out_root(self, tmp_path):
        (tmp_path / "w.jsonl").write_text("")
        a = PipelineConfig(
            corpus_path=str(tmp_path / "w.jsonl"), leiden_seed=1, out_root="x"
        )
        b = PipelineConfig(
            corpus_path=str(tmp_path / "w.jsonl"), leiden_seed=1, out_root="y"
        )
        assert a.config_hash() == b.config_hash()
        c = PipelineConfig(
            corpus_path=str(tmp_path / "w.jsonl"), leiden_seed=2, out_root="x"
        )
        assert a.config_hash() != c.config_hash()


class TestPipelineRun:
    def test_end_to_end_manifest(self, tmp_path):
        config = small_config(tmp_path)
        manifest = run_pipeline(config)
        assert manifest["complete"] is True
        by_name = {s["name"]: s for s in manifest["stages"]}
        for stage in ("ingest", "metrics", "select", "panel", "cluster", "rank"):
            assert by_name[stage]["status"] == "ok", stage
        assert by_name["analyses"]["status"] == "skipped"
        run_dir = Path(config.out_root) / manifest["config_hash"]
        assert (run_dir / "corpus.snap").exists()
        assert (run_dir / "manifest.json").exists()
        assert manifest["outputs"]  # checksums recorded

    def test_select_detail_counts_years_without_scored_works(self, tmp_path):
        # the corpus starts in 1970, so 1965-1969 have nothing to select from
        manifest = run_pipeline(small_config(tmp_path, analysis_start=1965))
        select = next(s for s in manifest["stages"] if s["name"] == "select")
        assert select["detail"].endswith("; years without scored works: 5")

    def test_repeat_run_is_byte_identical(self, tmp_path):
        config_a = small_config(tmp_path, out_root=str(tmp_path / "ra"))
        config_b = small_config(tmp_path, out_root=str(tmp_path / "rb"))
        m_a = run_pipeline(config_a)
        m_b = run_pipeline(config_b)
        assert m_a["outputs"] == m_b["outputs"]
        dir_a = Path(config_a.out_root) / m_a["config_hash"]
        dir_b = Path(config_b.out_root) / m_b["config_hash"]
        for rel in m_a["outputs"]:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()

    def test_rerun_after_corpus_change_drops_stale_outputs(self, tmp_path):
        # the run directory is named by the config, which holds the corpus
        # path but not its content; a rerun on a shrunken corpus must not
        # leave (and certify) the metrics of years the corpus no longer has
        config = small_config(tmp_path, out_root=str(tmp_path / "runs"))
        first = run_pipeline(config)
        records = synthetic_records(200, seed=5, year_start=1970, year_end=2005)
        write_jsonl(
            [r for r in records if r["publication_year"] <= 1990],
            config.corpus_path,
        )
        second = run_pipeline(config)
        fresh = run_pipeline(small_config(tmp_path, out_root=str(tmp_path / "fresh")))
        run_dir = Path(config.out_root) / second["config_hash"]
        on_disk = {
            p.relative_to(run_dir).as_posix()
            for p in run_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(second["outputs"]) == on_disk == set(fresh["outputs"])
        assert second["outputs"] == fresh["outputs"]
        assert "metrics/metrics_1995.tsv" in first["outputs"]
        assert "metrics/metrics_1995.tsv" not in second["outputs"]

    def test_stage_error_carries_stage_name(self, tmp_path):
        bad_dir = tmp_path / "iamadir"
        bad_dir.mkdir()
        config = PipelineConfig(
            corpus_path=str(bad_dir), out_root=str(tmp_path / "runs"), leiden_seed=1
        )
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "ingest"
        run_dirs = list((tmp_path / "runs").iterdir())
        manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
        assert manifest["complete"] is False
        assert manifest["stages"][0]["status"] == "error"

    def test_artifact_round_trips(self, tmp_path):
        config = small_config(tmp_path)
        manifest = run_pipeline(config)
        run_dir = Path(config.out_root) / manifest["config_hash"]

        corpus = CitationCorpus.load_snapshot(run_dir / "corpus.snap")
        assert corpus.n_works == 200

        scored = read_scored_tables(run_dir / "metrics", "metrics_*.tsv", corpus)
        assert len(scored) and len(scored.nbnc) == len(scored.cd) == len(scored)
        years = corpus.pub_years
        in_range = np.nonzero((1975 <= years) & (years <= 2000))[0]
        assert sorted(scored.works.tolist()) == in_range.tolist()

        chosen = read_scored_tables(run_dir / "breakthroughs", "breakthroughs_*.tsv", corpus)
        assert len(chosen)
        assert set(chosen.works.tolist()) <= set(scored.works.tolist())
        classes = [
            line.split("\t")[6]
            for path in sorted((run_dir / "breakthroughs").iterdir())
            for line in path.read_text().splitlines()[1:]
        ]
        assert classes == [
            kind.value for cd in chosen.cd.tolist() for kind in BreakthroughClass if kind.holds(cd)
        ]

        series = read_series_table(run_dir / "series" / "subfield_series.tsv")
        assert len(series.subfields)
        assert series.scaled_cn.shape == (len(series.subfields), len(series.years))

        panel_paths = sorted((run_dir / "panels").glob("*.tsv"))
        assert panel_paths
        panel = read_panel(panel_paths[0])
        assert panel.counts.ndim == 2

    def test_subfield_allowlist_restricts_panels(self, tmp_path):
        config = small_config(tmp_path, subfield_allowlist=(3100, 3101, 3102))
        manifest = run_pipeline(config)
        run_dir = Path(config.out_root) / manifest["config_hash"]
        for path in (run_dir / "panels").glob("*.tsv"):
            panel = read_panel(path)
            assert set(panel.subfields) <= {3100, 3101, 3102}

    def test_analyses_stage_with_indicators(self, tmp_path):
        # country codes must follow the synthetic generator's AA, AB, ... scheme
        codes = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(12)]
        comparator = tmp_path / "comparator.tsv"
        lines = ["country\tperiod\tvalue"]
        for i, code in enumerate(codes):
            lines.append(f"{code}\t2005\t{i + 1}")
        comparator.write_text("\n".join(lines) + "\n", encoding="utf-8")

        rd = tmp_path / "rd.tsv"
        gdp = tmp_path / "gdp.tsv"
        rd_lines = ["country\tperiod\tvalue"]
        gdp_lines = ["country\tperiod\tvalue"]
        for i, code in enumerate(codes):
            for year in range(1985, 1995):
                rd_lines.append(f"{code}\t{year}\t{1.0 + 0.2 * i}")
                gdp_lines.append(f"{code}\t{year}\t{100.0 * (i + 1)}")
        rd.write_text("\n".join(rd_lines) + "\n", encoding="utf-8")
        gdp.write_text("\n".join(gdp_lines) + "\n", encoding="utf-8")

        config = small_config(
            tmp_path,
            n_works=400,
            comparator_rank_path=str(comparator),
            rd_share_path=str(rd),
            gdp_path=str(gdp),
            gerd_window=(1985, 1994),
        )
        manifest = run_pipeline(config)
        run_dir = Path(config.out_root) / manifest["config_hash"]
        by_name = {s["name"]: s for s in manifest["stages"]}
        assert by_name["analyses"]["status"] == "ok"
        assert (run_dir / "analysis" / "gerd_fit.tsv").exists()

    def test_analyses_stage_skips_a_non_finite_gdp_cell(self, tmp_path):
        # an inf GDP cell once ended the run at analyses: "SVD did not converge"
        codes = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(12)]
        years = range(1985, 1995)
        rd = tmp_path / "rd.tsv"
        rd.write_text(
            "country\tperiod\tvalue\n"
            + "".join(f"{c}\t{y}\t{1.0 + 0.2 * i}\n" for i, c in enumerate(codes) for y in years),
            encoding="utf-8",
        )
        fits = {}
        for name, cell in (("finite", "100.0"), ("inf", "inf")):
            # AA, the largest synthetic country, has this one GDP cell
            gdp = tmp_path / f"gdp_{name}.tsv"
            gdp.write_text(
                f"country\tperiod\tvalue\nAA\t1990\t{cell}\n"
                + "".join(
                    f"{c}\t{y}\t{100.0 * (i + 1)}\n"
                    for i, c in enumerate(codes) if c != "AA" for y in years
                ),
                encoding="utf-8",
            )
            config = small_config(
                tmp_path, n_works=400, rd_share_path=str(rd), gdp_path=str(gdp),
                gerd_window=(1985, 1994),
            )
            manifest = run_pipeline(config)
            assert manifest["stages"][-1]["status"] == "ok"
            run_dir = Path(config.out_root) / manifest["config_hash"]
            _, *rows = (run_dir / "analysis" / "gerd_fit.tsv").read_text().splitlines()
            fits[name] = [tuple(row.split("\t")[:3]) for row in rows]
        assert fits["finite"]
        without_aa = [(kind, target, str(int(n) - 1)) for kind, target, n in fits["finite"]]
        assert fits["inf"] == without_aa

    def test_analyses_stage_skips_a_fit_on_equal_gerd_means(self, tmp_path):
        # equal GERD means once reached gerd_fit.tsv as a slope from a rank-deficient fit
        years = range(1985, 1995)
        codes = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(52)]
        paths = {}
        for name, value in (("rd", 1.5), ("gdp", 100.0)):
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text(
                "country\tperiod\tvalue\n"
                + "".join(f"{c}\t{y}\t{value}\n" for c in codes for y in years),
                encoding="utf-8",
            )
        config = small_config(
            tmp_path, n_works=400, rd_share_path=str(paths["rd"]),
            gdp_path=str(paths["gdp"]), gerd_window=(1985, 1994),
        )
        manifest = run_pipeline(config)
        analyses = manifest["stages"][-1]
        assert (analyses["name"], analyses["status"]) == ("analyses", "skipped")
        run_dir = Path(config.out_root) / manifest["config_hash"]
        assert not (run_dir / "analysis" / "gerd_fit.tsv").exists()

    def test_rca_threshold_reached_nowhere_skips_the_panel(self, tmp_path):
        # at rca_threshold = 2 a panel whose RCA reaches 2 nowhere once failed
        # the rank stage with "adjacency is empty", so the analyses never ran
        config = small_config(tmp_path, rca_threshold=2.0)
        manifest = run_pipeline(config)
        assert manifest["complete"] is True
        by_name = {s["name"]: s for s in manifest["stages"]}
        assert by_name["rank"]["status"] == "ok"
        assert "below the RCA threshold skipped: " in by_name["rank"]["detail"]
        assert by_name["analyses"]["detail"] == "no external indicators configured"

    @pytest.mark.parametrize(
        "case,status,detail,written",
        [
            ("none", "skipped", "no external indicators configured", set()),
            (
                "comparator_without_rankings",
                "skipped",
                "comparator given but no rankings to compare",
                set(),
            ),
            (
                "comparator_without_periods",
                "ok",
                "comparator given but no comparable periods",
                {"gerd_fit.tsv"},
            ),
            (
                "gerd_too_few_countries",
                "skipped",
                "GERD inputs given but too few overlapping countries",
                set(),
            ),
            ("both", "ok", "analyses written", {"spearman.tsv", "gerd_fit.tsv"}),
        ],
    )
    def test_analyses_stage_outcomes(self, tmp_path, case, status, detail, written):
        # the synthetic generator's countries are AA, AB, ...; ZA.. never occur
        ours = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(52)]
        foreign = ["ZA", "ZB", "ZC", "ZD"]

        def indicator(name, codes, years):
            lines = ["country\tperiod\tvalue"] + [
                f"{code}\t{year}\t{1.0 + i}"
                for i, code in enumerate(codes)
                for year in years
            ]
            path = tmp_path / name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return str(path)

        gerd_years = range(1985, 1995)
        comparator = indicator("comparator.tsv", ours, [2005])
        gerd = dict(
            rd_share_path=indicator("rd.tsv", ours, gerd_years),
            gdp_path=indicator("gdp.tsv", ours, gerd_years),
            gerd_window=(1985, 1994),
        )
        overrides = {
            "none": {},
            # no subfield 1 exists, so every panel is empty and nothing ranks
            "comparator_without_rankings": dict(
                comparator_rank_path=comparator, subfield_allowlist=(1,)
            ),
            "comparator_without_periods": dict(
                comparator_rank_path=indicator("foreign.tsv", foreign, [2005]),
                **gerd,
            ),
            "gerd_too_few_countries": dict(
                rd_share_path=indicator("rd_foreign.tsv", foreign, gerd_years),
                gdp_path=indicator("gdp_foreign.tsv", foreign, gerd_years),
                gerd_window=(1985, 1994),
            ),
            "both": dict(comparator_rank_path=comparator, **gerd),
        }[case]
        config = small_config(tmp_path, n_works=400, **overrides)
        manifest = run_pipeline(config)
        run_dir = Path(config.out_root) / manifest["config_hash"]
        analyses = manifest["stages"][-1]
        assert analyses["name"] == "analyses"
        assert (analyses["status"], analyses["detail"]) == (status, detail)
        for name in ("spearman.tsv", "gerd_fit.tsv"):
            assert (run_dir / "analysis" / name).exists() == (name in written), name


# floats whose text the shortest-repr rule must keep apart or spell out
SPECIAL_FLOATS = [
    -0.0, 0.0, float("nan"), float("inf"), -float("inf"),
    5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5, 0.1, -1e16, 1.0,
]
QUIET_NAN_WITH_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]

_matrix_shapes = st.tuples(st.integers(0, 6), st.integers(1, 6))
_float_cells = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))


@st.composite
def _labelled_matrices(draw):
    dtype = draw(st.sampled_from([np.float64, np.int8, np.int64]))
    shape = draw(_matrix_shapes)
    elements = _float_cells if dtype is np.float64 else None
    matrix = draw(arrays(dtype, shape, elements=elements))
    return matrix, [f"r{i}" for i in range(shape[0])], list(range(100, 100 + shape[1]))


def _matrix_text(matrix, rows, cols) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.tsv"
        _write_matrix(path, "corner", cols, rows, matrix)
        return path.read_text(encoding="utf-8")


# ids end in NUL, which a numpy string array would drop: ingest accepts "W1\u0000"
_TEXT_CELLS = ["W1", "W1\x00", "\x00", "", "-", "\u03a97", "a b", "truncated_horizon"]
_INT64_EXTREMES = [-(2**63), 2**63 - 1, 0, -1]
_FLOAT_CELLS = st.one_of(_float_cells, st.just(float(QUIET_NAN_WITH_PAYLOAD)))
_COLUMN_ELEMENTS = {
    np.bool_: None,
    np.int8: None,
    np.int64: st.one_of(st.sampled_from(_INT64_EXTREMES), st.integers(-(2**63), 2**63 - 1)),
    np.float64: _FLOAT_CELLS,
}


@st.composite
def _mixed_columns(draw):
    """Row-aligned columns of the kinds the run tables hold: arrays, tuples
    of Python floats (as ``zip(*rows)`` gives them) and lists of text."""
    n = draw(st.integers(0, 6))
    kinds = st.sampled_from([*_COLUMN_ELEMENTS, tuple, list])
    columns = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind is list:
            columns.append(draw(st.lists(st.sampled_from(_TEXT_CELLS), min_size=n, max_size=n)))
        elif kind is tuple:
            columns.append(tuple(draw(st.lists(_FLOAT_CELLS, min_size=n, max_size=n))))
        else:
            columns.append(draw(arrays(kind, n, elements=_COLUMN_ELEMENTS[kind])))
    return columns


def _assert_table_matches_oracle(columns) -> None:
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        _write_table(path, header, columns)
        assert path.read_text(encoding="utf-8") == per_cell_table_text(header, columns)


class TestRunTables:
    @settings(max_examples=300, deadline=None)
    @given(_mixed_columns())
    def test_writer_matches_per_cell_oracle(self, columns):
        _assert_table_matches_oracle(columns)

    @pytest.mark.parametrize(
        "columns",
        [
            [["W1\x00", "W1", "\x00"], np.array([True, False, True]), (-0.0, 0.0, 1e-5)],
            [np.array(SPECIAL_FLOATS), np.array([QUIET_NAN_WITH_PAYLOAD] * 12)],
            [np.array(_INT64_EXTREMES), np.array([-128, 127, 0, -1], dtype=np.int8)],
            [[], np.zeros(0), np.zeros(0, dtype=bool), ()],
        ],
        ids=["nul-ids", "special-floats", "int-extremes", "no-rows"],
    )
    def test_writer_edge_cases(self, columns):
        _assert_table_matches_oracle(columns)

    def test_text_column_must_be_a_list(self, tmp_path):
        with pytest.raises(TypeError, match="<U2"):
            _write_table(tmp_path / "t.tsv", ["id"], [("W1", "W2")])


class TestMatrixTables:
    @settings(max_examples=300, deadline=None)
    @given(_labelled_matrices())
    def test_writer_matches_per_cell_oracle(self, case):
        matrix, rows, cols = case
        assert _matrix_text(matrix, rows, cols) == per_cell_matrix_text("corner", cols, rows, matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]]),
            np.array([[QUIET_NAN_WITH_PAYLOAD, float("nan"), -float("nan")]]),
            np.array([[-128, 127, 0], [-1, 1, -128]], dtype=np.int8),
            np.array([[-(2**63), 2**63 - 1], [-5, 5]], dtype=np.int64),
            np.zeros((0, 4)),
            np.zeros((0, 4), dtype=np.int64),
            np.array([[-0.0], [0.0], [1e-5]]),
            np.array([[3], [-3]], dtype=np.int8),
        ],
        ids=[
            "special-floats", "nan-payloads", "int8", "int64-extremes",
            "float-no-rows", "int-no-rows", "float-one-column", "int8-one-column",
        ],
    )
    def test_writer_edge_cases(self, matrix):
        rows = [f"r{i}" for i in range(matrix.shape[0])]
        cols = list(range(matrix.shape[1]))
        assert _matrix_text(matrix, rows, cols) == per_cell_matrix_text("corner", cols, rows, matrix)

    @pytest.mark.parametrize(
        "countries, subfields",
        [((), (3100, 3101, 3102)), (("AA",), (3100, 3101)), (("AA", "AB", "AC"), (3100,))],
        ids=["no-rows", "one-row", "one-column"],
    )
    def test_panel_round_trip(self, tmp_path, countries, subfields):
        counts = np.arange(len(countries) * len(subfields)) * 7 - 3
        panel = PanelMatrix(
            window=(1950, 1959),
            kind=BreakthroughClass.DISRUPTIVE,
            counts=counts.reshape(len(countries), len(subfields)),
            countries=countries,
            subfields=subfields,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_panel(tmp_path, panel)
            back = read_panel(tmp_path / "panels" / "DI_1950-1959.tsv")
        assert back.counts.dtype == np.int64
        assert back.counts.shape == (len(countries), len(subfields))
        np.testing.assert_array_equal(back.counts, panel.counts)
        assert back.countries == panel.countries
        assert back.subfields == panel.subfields
        assert back.window == panel.window
        assert back.kind is panel.kind

    @pytest.mark.parametrize(
        "cell", ["99999999999999999999", "1.5", "x", "", "3_0", "\u0663"],
        ids=["int64-overflow", "fraction", "word", "empty", "underscore", "arabic-digit"],
    )
    def test_bad_cell_names_file_and_line(self, tmp_path, capsys, cell):
        # an overflowing cell once crashed with an OverflowError traceback
        # (exit 1); int() accepted "3_0" and "\u0663"
        path = tmp_path / "DI_1990-1999.tsv"
        path.write_text(f"country\t3100\t3101\nAA\t1\t2\nAB\t3\t{cell}\n", encoding="utf-8")
        where = f"{path}, line 3, field 3: {cell!r} "
        with pytest.raises(ValueError, match=f"^{re.escape(where)}"):
            read_panel(path)
        out = tmp_path / "out"
        assert cli_main(["rank", "--panel", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, line",
        [
            ("AA\t1\t2\nAB\t3\n", 3),
            ("AA\t1\t2\nAB\t3\t4\t5\n", 3),
            ("AA\t1\t2\n\nAB\t3\t4\n", 3),
            ("AA\t1\t2\nAB\t3\t4\n\n", 4),
        ],
        ids=["short-row", "long-row", "blank-line", "trailing-blank-line"],
    )
    def test_ragged_row_names_file_and_line(self, tmp_path, capsys, body, line):
        # a ragged row once failed with numpy's "setting an array element
        # with a sequence", naming neither the file nor the row
        path = tmp_path / "CN_1990-1999.tsv"
        path.write_text("country\t3100\t3101\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "):
            read_panel(path)
        out = tmp_path / "out"
        assert cli_main(["rank", "--panel", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}, line {line}: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["panel.tsv", "XX_1990-1999.tsv", "DI_1990.tsv"])
    def test_bad_file_name_is_named(self, tmp_path, name):
        # window and class come from the name; a bad one was once reported
        # as "invalid literal for int()" or "not a valid BreakthroughClass"
        path = tmp_path / name
        path.write_text("country\t3100\nAA\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_panel(path)

    def test_bad_subfield_label_names_file_and_line(self, tmp_path):
        path = tmp_path / "CN_1990-1999.tsv"
        path.write_text("country\t3100\tx\nAA\t1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 1: "):
            read_panel(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("country\t1\t2\t3\nAA\t1\t2\t3\nAB\t4\t5\t6\nAA\t7\t8\t9\n",
             "line 4: country 'AA' repeats"),
            ("country\t1\t1\t3\nAA\t1\t2\t3\nAB\t4\t5\t6\n", "line 1: subfield 1 repeats"),
            ("country\t1\t2\t01\nAA\t1\t2\t3\nAB\t4\t5\t6\n", "line 1: subfield 1 repeats"),
        ],
        ids=["row", "column", "column-as-int"],
    )
    def test_repeated_label_names_file_and_line(self, tmp_path, capsys, text, where):
        # a repeated row was once ranked twice (2nd and 3rd) with exit 0, and
        # a repeated column written as two subfields
        path = tmp_path / "CN_2000-2009.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, {where}')}$"):
            read_panel(path)
        out = tmp_path / "out"
        assert cli_main(["rank", "--panel", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}, {where}\n"
        assert not out.exists()


class TestIngestionRobustness:
    def test_openalex_shaped_file_with_noise(self, tmp_path):
        rows = [
            json.dumps(
                {
                    "id": "https://openalex.org/W1",
                    "publication_year": 2000,
                    "referenced_works": [],
                    "primary_topic": {"subfield": {"id": "https://openalex.org/subfields/3103"}},
                    "authorships": [{"countries": ["US"]}],
                }
            ),
            json.dumps(
                {
                    "id": "https://openalex.org/W2",
                    "publication_year": 2001,
                    "referenced_works": [
                        "https://openalex.org/W1",
                        "https://openalex.org/W404",
                        "https://openalex.org/W1",
                    ],
                    "authorships": [{"countries": ["DE", "FR"]}],
                }
            ),
            "this line is not json",
            json.dumps({"publication_year": 2001}),
            json.dumps({"id": "https://openalex.org/W3", "publication_year": 1750}),
        ]
        source = tmp_path / "works.jsonl"
        source.write_text("\n".join(rows) + "\n", encoding="utf-8")
        snapshot = tmp_path / "corpus.snap"
        report_path = tmp_path / "report.json"
        rc = cli_main(
            [
                "ingest",
                "--input",
                str(source),
                "--snapshot",
                str(snapshot),
                "--report",
                str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["works_ingested"] == 2
        assert report["dangling_refs"] == 1
        assert report["duplicate_refs"] == 1
        assert report["rejected"]["parse_error"] == 1
        assert report["rejected"]["missing_id"] == 1
        assert report["rejected"]["year_out_of_range"] == 1
        corpus = CitationCorpus.load_snapshot(snapshot)
        w1 = corpus.work_index("https://openalex.org/W1")
        w2 = corpus.work_index("https://openalex.org/W2")
        assert [int(c) for c in corpus.citers_idx(w1)] == [w2]
        assert [int(r) for r in corpus.references_idx(w2)] == [w1]


    @pytest.mark.parametrize(
        "line, counted",
        [
            # json.loads raised RecursionError, then a ValueError that is not
            # a JSONDecodeError, then int() in the subfield parse did
            ("[" * 100_000 + "]" * 100_000, "parse_error"),
            ('{"id": "W2", "publication_year": 2001, "n": ' + "1" * 5000 + "}", "parse_error"),
            (
                json.dumps(
                    {"id": "W2", "publication_year": 2001, "primary_topic": {
                        "subfield": {"id": "https://openalex.org/subfields/" + "1" * 5000}}}
                ),
                "invalid_subfields",
            ),
        ],
        ids=["nested-100000-deep", "integer-5000-digits", "subfield-id-5000-digits"],
    )
    def test_one_bad_line_does_not_abort_the_ingest(self, tmp_path, line, counted):
        source = tmp_path / "works.jsonl"
        good = json.dumps({"id": "W1", "publication_year": 2000})
        source.write_text(f"{good}\n{line}\n", encoding="utf-8")
        snapshot = tmp_path / "corpus.snap"
        report_path = tmp_path / "report.json"
        argv = ["ingest", "--input", str(source), "--snapshot", str(snapshot),
                "--report", str(report_path)]
        assert cli_main(argv) == 0
        report = json.loads(report_path.read_text())
        if counted == "parse_error":
            assert report["rejected"] == {"parse_error": 1}
            assert CitationCorpus.load_snapshot(snapshot).ids == ["W1"]
        else:
            assert report["rejected"] == {} and report["invalid_subfields"] == 1
            loaded = CitationCorpus.load_snapshot(snapshot)
            assert loaded.ids == ["W1", "W2"]
            assert loaded.subfields.tolist() == [-1, -1]


class TestCliStages:
    def test_stagewise_flow(self, tmp_path):
        works = tmp_path / "works.jsonl"
        write_jsonl(
            synthetic_records(300, seed=6, year_start=1970, year_end=2005), works
        )
        snap = tmp_path / "corpus.snap"
        assert cli_main(["ingest", "--input", str(works), "--snapshot", str(snap)]) == 0

        metrics_dir = tmp_path / "metrics"
        assert (
            cli_main(
                [
                    "metrics",
                    "--snapshot",
                    str(snap),
                    "--out-dir",
                    str(metrics_dir),
                    "--start",
                    "1975",
                    "--end",
                    "2000",
                ]
            )
            == 0
        )
        assert sorted((metrics_dir / "metrics").glob("metrics_*.tsv"))

        bt_dir = tmp_path / "bts"
        assert (
            cli_main(
                [
                    "select",
                    "--snapshot",
                    str(snap),
                    "--metrics-dir",
                    str(metrics_dir / "metrics"),
                    "--out-dir",
                    str(bt_dir),
                    "--top-fraction",
                    "0.1",
                ]
            )
            == 0
        )

        panel_dir = tmp_path / "panel"
        assert (
            cli_main(
                [
                    "panel",
                    "--snapshot",
                    str(snap),
                    "--breakthroughs-dir",
                    str(bt_dir / "breakthroughs"),
                    "--out-dir",
                    str(panel_dir),
                    "--start",
                    "1975",
                    "--end",
                    "2000",
                ]
            )
            == 0
        )

        cluster_dir = tmp_path / "cluster"
        assert (
            cli_main(
                [
                    "cluster",
                    "--series",
                    str(panel_dir / "series" / "subfield_series.tsv"),
                    "--out-dir",
                    str(cluster_dir),
                    "--seed",
                    "4",
                ]
            )
            == 0
        )
        assert (cluster_dir / "cluster" / "assignments.tsv").exists()

        rank_dir = tmp_path / "ranks"
        panels = sorted((panel_dir / "panels").glob("*.tsv"))
        assert panels
        assert (
            cli_main(
                ["rank", "--panel", *(str(p) for p in panels), "--out-dir", str(rank_dir)]
            )
            == 0
        )
        assert sorted((rank_dir / "ranks").glob("*_countries.tsv"))

    def test_stagewise_matches_run(self, tmp_path):
        config = small_config(tmp_path, n_works=400)
        manifest = run_pipeline(config)
        run_dir = Path(config.out_root) / manifest["config_hash"]

        out = tmp_path / "cli"
        out.mkdir()
        span = ["--start", str(config.analysis_start), "--end", str(config.analysis_end)]
        steps = [
            ["ingest", "--input", config.corpus_path, "--snapshot", str(out / "corpus.snap"),
             "--report", str(out / "ingest_report.json")],
            ["metrics", "--snapshot", str(out / "corpus.snap"), "--out-dir", str(out), *span],
            ["select", "--snapshot", str(out / "corpus.snap"),
             "--metrics-dir", str(out / "metrics"), "--out-dir", str(out)],
            ["panel", "--snapshot", str(out / "corpus.snap"),
             "--breakthroughs-dir", str(out / "breakthroughs"), "--out-dir", str(out), *span],
            ["cluster", "--series", str(out / "series" / "subfield_series.tsv"),
             "--out-dir", str(out), "--seed", str(config.leiden_seed)],
        ]
        for argv in steps:
            assert cli_main(argv) == 0, argv[0]
        panels = sorted(str(p) for p in (out / "panels").glob("*.tsv"))
        assert cli_main(["rank", "--panel", *panels, "--out-dir", str(out)]) == 0

        def files(root):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*")
                if p.is_file() and p.name != "manifest.json"
            }

        from_run, from_cli = files(run_dir), files(out)
        assert set(from_run) == set(from_cli)
        assert len(from_run) > 50
        for rel in from_run:
            assert from_run[rel] == from_cli[rel], rel

    @pytest.mark.parametrize("stage", ["cluster", "select"])
    def test_stage_tables_read_past_a_byte_order_mark(self, tmp_path, stage):
        # a BOM once read as part of the header: cluster exited 2 with
        # "header '\ufeffsubfield\t...'", select with "header lacks work_id, nbnc or cd"
        config = small_config(tmp_path, n_works=400)
        run_dir = Path(config.out_root) / run_pipeline(config)["config_hash"]
        if stage == "cluster":
            table = run_dir / "series" / "subfield_series.tsv"
            flag, argv = "--series", ["--seed", str(config.leiden_seed)]
        else:
            table = max((run_dir / "metrics").glob("*.tsv"), key=lambda p: p.stat().st_size)
            flag, argv = "--metrics-dir", ["--snapshot", str(run_dir / "corpus.snap")]
        written = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            source = tmp_path / name / "in"
            source.mkdir(parents=True)
            (source / table.name).write_bytes(prefix + table.read_bytes())
            given = source / table.name if stage == "cluster" else source
            out = tmp_path / name / "out"
            assert cli_main([stage, flag, str(given), "--out-dir", str(out), *argv]) == 0
            written.append({p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert written[0] and written[0] == written[1]

    def test_cluster_single_subfield_is_skipped(self, tmp_path, capsys):
        series = tmp_path / "subfield_series.tsv"
        series.write_text(
            "subfield\tyear\tn_total\tn_bt\tn_cn\tn_di\tscaled_cn\tscaled_di\tflags\n"
            "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n"
            "3100\t2001\t2\t1\t0\t1\t0.0\t0.5\t-\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1"]
        assert cli_main(argv) == 1
        assert "fewer than 2 subfields; clustering skipped" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_skips_a_panel_below_the_rca_threshold_everywhere(self, tmp_path, capsys):
        # one country's RCA is 1 in every subfield, so at a threshold of 2
        # binarize pruned every row, and rank failed with "adjacency is empty"
        below = tmp_path / "DI_2000-2009.tsv"
        below.write_text("country\t3100\t3101\nAA\t1\t2\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["--out-dir", str(out), "--rca-threshold", "2"]
        assert cli_main(["rank", "--panel", str(below), *argv]) == 1
        assert "below the RCA threshold skipped: DI_2000-2009" in capsys.readouterr().err
        assert not out.exists()
        rankable = tmp_path / "CN_2000-2009.tsv"
        rankable.write_text(
            "country\t3100\t3101\t3102\nAA\t6\t1\t1\nAB\t1\t6\t1\nAC\t1\t1\t6\n",
            encoding="utf-8",
        )
        assert cli_main(["rank", "--panel", str(rankable), str(below), *argv]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("1 window/kind rankings")
        assert "below the RCA threshold skipped: DI_2000-2009" in printed
        assert sorted(p.name for p in out.rglob("*") if p.is_file()) == sorted(
            f"CN_2000-2009_{name}" for name in
            ("adjacency.tsv", "countries.tsv", "diagnostics.json", "rca.tsv", "subfields.tsv")
        )

    @pytest.mark.parametrize("resolution", ["0", "-1"])
    def test_cluster_non_positive_resolution_is_an_input_error(
        self, tmp_path, capsys, resolution
    ):
        series = tmp_path / "subfield_series.tsv"
        series.write_text(
            SERIES_HEADER
            + "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n"
            "3100\t2001\t2\t1\t0\t1\t0.0\t0.5\t-\n"
            "3101\t2000\t4\t2\t2\t0\t0.5\t0.0\t-\n"
            "3101\t2001\t2\t1\t1\t0\t0.5\t0.0\t-\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1",
                "--resolution", resolution]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "resolution" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "rank"])
    def test_nan_threshold_is_an_input_error(self, tmp_path, capsys, command):
        # --sigma nan once failed as "similarity matrix must be symmetric"
        # and --rca-threshold nan as "adjacency is empty"
        out = tmp_path / "out"
        if command == "cluster":
            series = tmp_path / "subfield_series.tsv"
            series.write_text(
                SERIES_HEADER
                + "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n"
                "3101\t2000\t4\t2\t2\t0\t0.5\t0.0\t-\n"
                "3102\t2000\t4\t1\t0\t1\t0.0\t0.25\t-\n",
                encoding="utf-8",
            )
            argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1",
                    "--sigma", "nan"]
        else:
            panel = tmp_path / "DI_2000-2009.tsv"
            panel.write_text("country\t3100\t3101\nAA\t1\t2\nAB\t3\t0\n", encoding="utf-8")
            argv = ["rank", "--panel", str(panel), "--out-dir", str(out), "--rca-threshold", "nan"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.endswith("must be positive, got nan\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--sigma", "--resolution", "--rca-threshold"])
    def test_inf_threshold_is_an_input_error(self, tmp_path, capsys, flag):
        # --rca-threshold inf once failed as "adjacency is empty", and
        # --resolution inf made every subfield a singleton of quality -inf
        out = tmp_path / "out"
        if flag == "--rca-threshold":
            panel = tmp_path / "DI_2000-2009.tsv"
            panel.write_text("country\t3100\t3101\nAA\t1\t2\nAB\t3\t0\n", encoding="utf-8")
            argv = ["rank", "--panel", str(panel), "--out-dir", str(out), flag, "inf"]
        else:
            series = tmp_path / "subfield_series.tsv"
            series.write_text(
                SERIES_HEADER
                + "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n"
                "3101\t2000\t4\t2\t2\t0\t0.5\t0.0\t-\n"
                "3102\t2000\t4\t1\t0\t1\t0.0\t0.25\t-\n",
                encoding="utf-8",
            )
            argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1",
                    flag, "inf"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.endswith("must be finite, got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sigma", "leiden_resolution", "rca_threshold"])
    def test_inf_config_threshold_is_an_input_error(self, tmp_path, capsys, key):
        # rca_threshold = inf once wrote 78 files before rank failed
        config = small_config(tmp_path)
        text = "".join(
            f"{name} = {value}\n"
            for name, value in (
                ("corpus_path", config.corpus_path),
                ("out_root", config.out_root),
                ("leiden_seed", config.leiden_seed),
                (key, "inf"),
            )
        )
        (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
        assert cli_main(["run", "--config", str(tmp_path / "run.cfg")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must be finite, got inf\n"
        assert not Path(config.out_root).exists()

    def test_correlate_and_fit_commands(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text(
            "label\trank\nAA\t1\nBB\t2\nCC\t3\nDD\tnan\n", encoding="utf-8"
        )
        b = tmp_path / "b.tsv"
        b.write_text(
            "label\trank\nAA\t1\nBB\t3\nCC\t2\nDD\t4\n", encoding="utf-8"
        )
        assert cli_main(["correlate", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "spearman=0.5 n_common=3" in out  # the nan row is skipped

        data = tmp_path / "data.tsv"
        rows = ["x\ty"] + [f"{x}\t{2 * x ** 1.5}" for x in (1.0, 2.0, 4.0, 8.0)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert cli_main(["fit", str(data), "--x-col", "x", "--y-col", "y"]) == 0
        out = capsys.readouterr().out
        assert "exponent=1.5" in out

    def test_correlate_semicolon_files(self, tmp_path, capsys):
        # the delimiter rule is the indicator files' one: tab, comma or semicolon
        a = tmp_path / "a.csv"
        a.write_text("label;rank\nAA;1\nBB;2\nCC;3\n", encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("label;rank\nAA;1\nBB;3\nCC;2\n", encoding="utf-8")
        assert cli_main(["correlate", str(a), str(b)]) == 0
        assert "spearman=0.5 n_common=3" in capsys.readouterr().out

    def test_correlate_and_fit_read_past_a_byte_order_mark(self, tmp_path, capsys):
        # a BOM once read as part of the first name: exit 2 with
        # "header ['\ufefflabel', 'rank'] has no column 'label'"
        a = tmp_path / "a.tsv"
        a.write_text("\ufefflabel\trank\nAA\t1\nBB\t2\nCC\t3\n", encoding="utf-8")
        b = tmp_path / "b.tsv"
        b.write_text("label\trank\nAA\t1\nBB\t3\nCC\t2\n", encoding="utf-8")
        assert cli_main(["correlate", str(a), str(b)]) == 0
        assert "spearman=0.5 n_common=3" in capsys.readouterr().out
        data = tmp_path / "data.tsv"
        rows = ["\ufeffx\ty"] + [f"{x}\t{2 * x ** 1.5}" for x in (1.0, 2.0, 4.0, 8.0)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert cli_main(["fit", str(data), "--x-col", "x", "--y-col", "y"]) == 0
        assert "exponent=1.5" in capsys.readouterr().out

    def test_fit_skips_rows_with_a_blank_value(self, tmp_path, capsys):
        # a blank y once left x one value longer than y: "length mismatch",
        # and an inf or nan x reached np.polyfit: "SVD did not converge"
        data = tmp_path / "data.tsv"
        rows = ["x\ty"] + [f"{x}\t{2 * x ** 1.5}" for x in (1.0, 2.0, 4.0, 8.0)]
        rows += ["16.0\t", "inf\t3.0", "nan\t5.0"]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert cli_main(["fit", str(data), "--x-col", "x", "--y-col", "y"]) == 0
        out = capsys.readouterr().out
        assert "exponent=1.5" in out and "n=4" in out

    def test_fit_on_a_constant_x_is_an_input_error(self, tmp_path, capsys):
        # the slope is undefined; the command once printed exponent=0.43...
        data = tmp_path / "data.tsv"
        data.write_text("x\ty\n2.0\t1.0\n2.0\t2.0\n2.0\t3.0\n", encoding="utf-8")
        assert cli_main(["fit", str(data), "--x-col", "x", "--y-col", "y"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: every x is equal: the slope is undefined\n"

    @pytest.mark.parametrize("flag", ["--x-col", "--y-col"])
    def test_fit_column_missing_from_the_header_is_an_input_error(self, tmp_path, capsys, flag):
        # a mistyped column once skipped every row: "need >= 3 points, got 0"
        data = tmp_path / "data.tsv"
        rows = ["x\ty"] + [f"{x}\t{2 * x ** 1.5}" for x in (1.0, 2.0, 4.0, 8.0)]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        columns = {"--x-col": "x", "--y-col": "y", flag: "yy"}
        argv = ["fit", str(data), *(part for item in columns.items() for part in item)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:") and "'yy'" in err

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_correlate_column_missing_from_the_header_is_an_input_error(
        self, tmp_path, capsys, side
    ):
        # a mistyped column once read as no rows: "need >= 3 common entities, got 0"
        files = {}
        for name in "ab":
            files[name] = tmp_path / f"{name}.tsv"
            files[name].write_text("label\trank\nAA\t1\nBB\t2\nCC\t3\n", encoding="utf-8")
        argv = ["correlate", str(files["a"]), str(files["b"]), f"--{side}-cols", "lbl,rank"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[side]}:") and "'lbl'" in err

    @pytest.mark.parametrize("cols", ["label", "label,rank,extra"])
    def test_correlate_cols_need_exactly_two_names(self, tmp_path, capsys, cols):
        # one name once failed as "not enough values to unpack (expected 2, got 1)"
        a = tmp_path / "a.tsv"
        a.write_text("label\trank\nAA\t1\nBB\t2\nCC\t3\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli_main(["correlate", str(a), str(a), "--a-cols", cols])
        assert exc.value.code == 2
        assert "argument --a-cols:" in capsys.readouterr().err

    def test_select_unknown_work_id_is_an_input_error(self, tmp_path, capsys):
        works = tmp_path / "works.jsonl"
        write_jsonl(synthetic_records(30, seed=3, year_start=1990, year_end=2000), works)
        snap = tmp_path / "corpus.snap"
        assert cli_main(["ingest", "--input", str(works), "--snapshot", str(snap)]) == 0
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        (metrics / "metrics_1995.tsv").write_text(
            "work_id\tnbnc\tcd\tflags\nNOPE\t1.0\t0.5\t-\n", encoding="utf-8"
        )
        argv = ["select", "--snapshot", str(snap), "--metrics-dir", str(metrics),
                "--out-dir", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "NOPE" in err

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("{wid}\t1.0", ": 2 fields, expected 4"),
            ("{wid}\t1.0\t0.5", ": 3 fields, expected 4"),
            ("", ": 1 fields, expected 4"),
            ("{wid}\t1.0\tx\t-", ", field 3: 'x' is not a float64"),
            ("{wid}\t\t0.5\t-", ", field 2: '' is not a float64"),
            ("{wid}\t1_0\t0.5\t-", ", field 2: '1_0' is not a float64"),
            ("{wid}\t1.0\t\u0665\t-", ", field 3: '\u0665' is not a float64"),
        ],
        ids=[
            "short-row", "missing-flags", "blank-line", "bad-cd", "empty-nbnc",
            "underscore-nbnc", "arabic-indic-cd",
        ],
    )
    def test_select_bad_metrics_row_names_file_and_line(self, tmp_path, capsys, row, detail):
        # a short row once escaped as an IndexError traceback (exit 1), a bad
        # number named neither the file nor the line, and float() read "1_0"
        # as 10.0 and the Arabic-Indic digit five as 5.0
        records = synthetic_records(30, seed=3, year_start=1990, year_end=2000)
        works = tmp_path / "works.jsonl"
        write_jsonl(records, works)
        snap = tmp_path / "corpus.snap"
        assert cli_main(["ingest", "--input", str(works), "--snapshot", str(snap)]) == 0
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        table = metrics / "metrics_1995.tsv"
        wid = records[0]["id"]
        table.write_text(
            f"work_id\tnbnc\tcd\tflags\n{wid}\t2.0\t-0.5\t-\n{row.format(wid=wid)}\n",
            encoding="utf-8",
        )
        where = f"{table}, line 3{detail}"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            read_scored_tables(metrics, "metrics_*.tsv", CitationCorpus.load_snapshot(snap))
        out = tmp_path / "out"
        argv = ["select", "--snapshot", str(snap), "--metrics-dir", str(metrics),
                "--out-dir", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {where}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("{wid}\tinf\t0.5\t-", ", field 2: 'inf' is not finite"),
            ("{wid}\t1.0\tnan\t-", ", field 3: 'nan' is not finite"),
            ("{wid}\tNaN\t0.5\t-", ", field 2: 'NaN' is not finite"),
            ("{wid}\t1.0\t-Infinity\t-", ", field 3: '-Infinity' is not finite"),
        ],
        ids=["inf-nbnc", "nan-cd", "nan-nbnc", "minus-infinity-cd"],
    )
    def test_select_non_finite_score_names_file_and_line(self, tmp_path, capsys, row, detail):
        # an inf nbnc was once selected as its year's breakthrough and a nan
        # one dropped, both with exit 0
        self.test_select_bad_metrics_row_names_file_and_line(tmp_path, capsys, row, detail)

    @pytest.mark.parametrize("across_years", [False, True], ids=["one-file", "two-years"])
    def test_select_repeated_work_id_names_both_lines(self, tmp_path, capsys, across_years):
        # a repeated id used to be read as two rows: select wrote the work
        # twice and panel counted it twice
        records = synthetic_records(30, seed=3, year_start=1990, year_end=2000)
        works = tmp_path / "works.jsonl"
        write_jsonl(records, works)
        snap = tmp_path / "corpus.snap"
        assert cli_main(["ingest", "--input", str(works), "--snapshot", str(snap)]) == 0
        metrics = tmp_path / "metrics"
        metrics.mkdir()
        wid, other = records[0]["id"], records[1]["id"]
        header = "work_id\tnbnc\tcd\tflags\n"
        early, late = metrics / "metrics_1991.tsv", metrics / "metrics_1995.tsv"
        if across_years:
            early.write_text(f"{header}{wid}\t2.0\t-0.5\t-\n", encoding="utf-8")
            late.write_text(f"{header}{other}\t1.0\t0.5\t-\n{wid}\t1.0\t0.5\t-\n", encoding="utf-8")
            where = f"{late}, line 3: work {wid} already read at {early}, line 2"
        else:
            early.write_text(
                f"{header}{wid}\t2.0\t-0.5\t-\n{other}\t1.0\t0.5\t-\n{wid}\t2.0\t-0.5\t-\n",
                encoding="utf-8",
            )
            where = f"{early}, line 4: work {wid} already read at {early}, line 2"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            read_scored_tables(metrics, "metrics_*.tsv", CitationCorpus.load_snapshot(snap))
        out = tmp_path / "out"
        argv = ["select", "--snapshot", str(snap), "--metrics-dir", str(metrics),
                "--out-dir", str(out), "--top-fraction", "0.9"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {where}\n"
        assert not out.exists()

    def test_panel_unknown_work_id_is_an_input_error(self, tmp_path, capsys):
        # year, subfield and countries come from the snapshot, so an id it
        # lacks cannot be counted
        works = tmp_path / "works.jsonl"
        write_jsonl(synthetic_records(30, seed=3, year_start=1990, year_end=2000), works)
        snap = tmp_path / "corpus.snap"
        assert cli_main(["ingest", "--input", str(works), "--snapshot", str(snap)]) == 0
        tables = tmp_path / "breakthroughs"
        tables.mkdir()
        (tables / "breakthroughs_1995.tsv").write_text(
            "work_id\tyear\tsubfield\tcountries\tnbnc\tcd\tclass\n"
            "NOPE\t1995\t3100\tAA\t1.0\t0.5\tDI\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        argv = ["panel", "--snapshot", str(snap), "--breakthroughs-dir", str(tables),
                "--out-dir", str(out), "--start", "1990", "--end", "2000"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: unknown work id 'NOPE'\n"
        assert not out.exists()

    def test_ingest_reversed_year_bounds_are_an_input_error(self, tmp_path, capsys):
        # reversed bounds once ingested nothing and wrote an empty snapshot
        works = tmp_path / "works.jsonl"
        write_jsonl(synthetic_records(30, seed=3, year_start=1990, year_end=2000), works)
        snap = tmp_path / "corpus.snap"
        argv = ["ingest", "--input", str(works), "--snapshot", str(snap),
                "--year-min", "2001", "--year-max", "2000"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2001" in err and "2000" in err
        assert not snap.exists()

    def test_metrics_reversed_years_are_an_input_error(self, tmp_path, capsys):
        # reversed years once scored nothing, wrote no table and exited 0
        works = tmp_path / "works.jsonl"
        write_jsonl(synthetic_records(30, seed=3, year_start=1990, year_end=2000), works)
        snap = tmp_path / "corpus.snap"
        assert cli_main(["ingest", "--input", str(works), "--snapshot", str(snap)]) == 0
        out = tmp_path / "out"
        argv = ["metrics", "--snapshot", str(snap), "--out-dir", str(out),
                "--start", "2005", "--end", "1990"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2005" in err and "1990" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "span",
        [["--start", "2005", "--end", "1990"],
         ["--start", "1990", "--end", "2000", "--window-width", "0"]],
        ids=["reversed-years", "zero-window-width"],
    )
    def test_panel_bad_windows_write_no_series(self, tmp_path, capsys, span):
        # the series table was once written before the windows were checked
        works = tmp_path / "works.jsonl"
        write_jsonl(synthetic_records(300, seed=6, year_start=1985, year_end=2005), works)
        snap = tmp_path / "corpus.snap"
        steps = [
            ["ingest", "--input", str(works), "--snapshot", str(snap)],
            ["metrics", "--snapshot", str(snap), "--out-dir", str(tmp_path),
             "--start", "1990", "--end", "2000"],
            ["select", "--snapshot", str(snap), "--metrics-dir", str(tmp_path / "metrics"),
             "--out-dir", str(tmp_path), "--top-fraction", "0.2"],
        ]
        for argv in steps:
            assert cli_main(argv) == 0, argv[0]
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["panel", "--snapshot", str(snap),
                "--breakthroughs-dir", str(tmp_path / "breakthroughs"), "--out-dir", str(out),
                *span]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "series" / "subfield_series.tsv").exists()

    def test_panel_bad_allowlist_names_the_flag_and_value(self, tmp_path, capsys):
        # a bare int() once reported "invalid literal for int()" without the flag
        argv = ["panel", "--snapshot", str(tmp_path / "corpus.snap"),
                "--breakthroughs-dir", str(tmp_path), "--out-dir", str(tmp_path / "out"),
                "--start", "1990", "--end", "2000", "--allowlist", "3100,abc"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --allowlist:" in err and "'abc'" in err

    def test_series_table_with_a_repeated_row_is_an_input_error(self, tmp_path, capsys):
        # the later of two rows for one subfield and year once silently won
        series = tmp_path / "subfield_series.tsv"
        series.write_text(
            SERIES_HEADER
            + "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n"
            + "3101\t2000\t2\t1\t0\t1\t0.0\t0.5\t-\n"
            + "3100\t2000\t4\t2\t2\t0\t0.5\t0.0\t-\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="given twice"):
            read_series_table(series)
        out = tmp_path / "out"
        argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {series}, line 4: ")
        assert not out.exists()

    def test_series_table_repeated_row_names_file_and_line(self, tmp_path):
        # the error once named the file alone; the line is that of the first
        # row whose subfield and year an earlier row already gave
        series = tmp_path / "subfield_series.tsv"
        series.write_text(
            SERIES_HEADER
            + "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n"
            + "3101\t2001\t2\t1\t0\t1\t0.0\t0.5\t-\n"
            + "3100\t2001\t4\t1\t1\t0\t0.25\t0.0\t-\n"
            + "3101\t2001\t2\t1\t0\t1\t0.0\t0.5\t-\n"
            + "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n",
            encoding="utf-8",
        )
        where = f"{series}, line 5: subfield 3101, year 2001 is given twice"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            read_series_table(series)

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("3101\t2000\t2\t1\t0", ": 5 fields, expected 9"),
            ("3101\t2000\t2\t1\t0\t1\t0.0\t0.5\t-\t-", ": 10 fields, expected 9"),
            ("", ": 1 fields, expected 9"),
            ("3101\t2000\tx\t1\t0\t1\t0.0\t0.5\t-", ", field 3: 'x' is not a decimal int64"),
            ("3101\t2000\t3_0\t1\t0\t1\t0.0\t0.5\t-", ", field 3: '3_0' is not a decimal int64"),
            (
                "3101\t2000\t2\t1\t0\t99999999999999999999\t0.0\t0.5\t-",
                ", field 6: '99999999999999999999' is not a decimal int64",
            ),
            ("3101\t2000\t2\t1\t0\t1\t0.0\t\t-", ", field 8: '' is not a float64"),
        ],
        ids=[
            "short-row", "long-row", "blank-line", "bad-count", "underscore", "int64-overflow",
            "empty-share",
        ],
    )
    def test_series_table_bad_row_names_file_and_line(self, tmp_path, capsys, row, detail):
        # a short row once reported numpy's "cannot reshape array", a bad
        # count "invalid literal for int()", naming neither file nor line, an
        # overflowing count exited 1 with an OverflowError traceback, and
        # int() read "3_0" as 30
        series = tmp_path / "subfield_series.tsv"
        series.write_text(
            SERIES_HEADER + "3100\t2000\t4\t1\t1\t0\t0.25\t0.0\t-\n" + row + "\n",
            encoding="utf-8",
        )
        where = f"{series}, line 3{detail}"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}$"):
            read_series_table(series)
        out = tmp_path / "out"
        argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {where}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("3101\t2000\t2\t1\t0\t1\tnan\t0.5\t-", ", field 7: 'nan' is not finite"),
            ("3101\t2000\t2\t1\t0\t1\t0.0\tinf\t-", ", field 8: 'inf' is not finite"),
        ],
        ids=["nan-share", "inf-share"],
    )
    def test_series_table_non_finite_share_names_file_and_line(
        self, tmp_path, capsys, row, detail
    ):
        # a nan share once failed as "similarity matrix must be symmetric",
        # naming no file, and an inf share was written into dtw_distance.tsv
        self.test_series_table_bad_row_names_file_and_line(tmp_path, capsys, row, detail)

    @pytest.mark.parametrize(
        "header",
        [
            "subfield\tyear\tn_total\tn_bt\tn_di\tn_cn\tscaled_cn\tscaled_di\tflags",
            "a\tb\tc\td\te\tf\tg\th\ti",
        ],
        ids=["reordered", "foreign"],
    )
    def test_series_table_other_header_is_an_input_error(self, tmp_path, capsys, header):
        # the header was once skipped unread, so a file listing n_di before
        # n_cn had its DI counts read as n_cn
        series = tmp_path / "subfield_series.tsv"
        series.write_text(
            header + "\n"
            "3100\t2000\t4\t1\t1\t0\t0.0\t0.25\t-\n"
            "3101\t2000\t4\t2\t0\t2\t0.5\t0.0\t-\n",
            encoding="utf-8",
        )
        where = f"{series}, line 1: "
        with pytest.raises(ValueError, match=f"^{re.escape(where)}"):
            read_series_table(series)
        out = tmp_path / "out"
        argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", SERIES_HEADER], ids=["empty", "header-only"])
    def test_series_table_without_rows_is_skipped(self, tmp_path, capsys, text):
        # an empty file once raised StopIteration and a header-only one
        # "cannot reshape array of size 0"
        series = tmp_path / "subfield_series.tsv"
        series.write_text(text, encoding="utf-8")
        table = read_series_table(series)
        assert table.n_total.shape == (0, 0)
        out = tmp_path / "out"
        argv = ["cluster", "--series", str(series), "--out-dir", str(out), "--seed", "1"]
        assert cli_main(argv) == 1
        assert "clustering skipped" in capsys.readouterr().err
        assert not out.exists()

    def test_series_table_missing_cells_read_as_zero(self, tmp_path):
        series = tmp_path / "subfield_series.tsv"
        series.write_text(
            SERIES_HEADER
            + "3101\t2002\t10\t2\t1\t1\t0.1\t0.1\t-\n"
            + "3100\t2001\t5\t1\t1\t0\t0.2\t0.0\t-\n"
            + "3101\t2000\t10\t2\t1\t1\t0.1\t0.1\t-\n",
            encoding="utf-8",
        )
        table = read_series_table(series)
        assert table.subfields.tolist() == [3100, 3101]
        assert table.years.tolist() == [2000, 2001, 2002]
        assert table.n_total.tolist() == [[0, 5, 0], [10, 0, 10]]
        assert table.n_bt.tolist() == [[0, 1, 0], [2, 0, 2]]
        assert table.n_cn.tolist() == [[0, 1, 0], [1, 0, 1]]
        assert table.n_di.tolist() == [[0, 0, 0], [1, 0, 1]]
        assert table.scaled_cn.tolist() == [[0.0, 0.2, 0.0], [0.1, 0.0, 0.1]]
        assert table.scaled_di.tolist() == [[0.0, 0.0, 0.0], [0.1, 0.0, 0.1]]

    @pytest.mark.parametrize("make_dir", [False, True], ids=["missing", "empty"])
    @pytest.mark.parametrize(
        "command, flag", [("select", "--metrics-dir"), ("panel", "--breakthroughs-dir")]
    )
    def test_input_dir_without_tables_is_an_input_error(
        self, tmp_path, capsys, command, flag, make_dir
    ):
        # a mistyped directory once read as "no rows" and exited 0
        works = tmp_path / "works.jsonl"
        write_jsonl(synthetic_records(30, seed=3, year_start=1990, year_end=2000), works)
        snap = tmp_path / "corpus.snap"
        assert cli_main(["ingest", "--input", str(works), "--snapshot", str(snap)]) == 0
        tables = tmp_path / "tables"
        if make_dir:
            tables.mkdir()
            (tables / "notes.txt").write_text("not a table\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--snapshot", str(snap), flag, str(tables), "--out-dir", str(out)]
        if command == "panel":
            argv += ["--start", "1990", "--end", "2000"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tables) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["ingest", "metrics", "select", "panel", "cluster", "rank"]
    )
    def test_left_out_flags_take_the_config_defaults(
        self, tmp_path, monkeypatch, command
    ):
        default = PipelineConfig()
        corpus = SimpleNamespace(pub_years=np.array([1990]))
        scored = SimpleNamespace(works=np.array([0]))
        snapshots = SimpleNamespace(load_snapshot=lambda path: corpus)
        monkeypatch.setattr(cli, "CitationCorpus", snapshots)
        monkeypatch.setattr(cli, "read_scored_tables", lambda *args: scored)
        monkeypatch.setattr(cli, "read_series_table", lambda path: "series")
        monkeypatch.setattr(cli, "read_panel", lambda path: "panel")
        out = tmp_path / "out"
        span = ["--start", "1990", "--end", "2000"]
        argv, expected = {
            "ingest": (
                ["--input", "w.jsonl", "--snapshot", "c.snap"],
                (["w.jsonl"], FieldMap(), default.year_min, default.year_max, "c.snap", None),
            ),
            "metrics": (
                ["--snapshot", "c.snap", "--out-dir", str(out), *span],
                (corpus, default.horizon, (1990, 2000), default.cocited_semantics,
                 default.gamma_convention, out),
            ),
            "select": (
                ["--snapshot", "c.snap", "--metrics-dir", "m", "--out-dir", str(out)],
                (corpus, scored, default.top_fraction, range(1990, 1991), out),
            ),
            "panel": (
                ["--snapshot", "c.snap", "--breakthroughs-dir", "b", "--out-dir", str(out), *span],
                (corpus, scored, 1990, 2000, default.window_width, default.subfield_allowlist, out),
            ),
            "cluster": (
                ["--series", "s.tsv", "--out-dir", str(out), "--seed", "3"],
                ("series", default.dtw_per_component, default.sigma, default.leiden_resolution,
                 3, out),
            ),
            "rank": (
                ["--panel", "p.tsv", "--out-dir", str(out)],
                (["panel"], default.rca_threshold, default.eigen_count, out),
            ),
        }[command]
        calls = []

        def stage(*args):
            if command == "rank":  # the panels come as a generator
                args = (list(args[0]), *args[1:])
            calls.append(args)
            return None, "captured", False

        monkeypatch.setattr(cli, f"{command}_stage", stage)
        assert cli_main([command, *argv]) == 0
        assert calls == [expected]

    def test_run_command(self, tmp_path, capsys):
        works = tmp_path / "works.jsonl"
        write_jsonl(
            synthetic_records(150, seed=8, year_start=1975, year_end=2000), works
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"corpus_path = {works}",
                    f"out_root = {tmp_path / 'runs'}",
                    "analysis_start = 1980",
                    "analysis_end = 1998",
                    "leiden_seed = 2",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert cli_main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "run directory:" in out

    def test_cli_error_paths(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert (
            cli_main(
                ["correlate", str(tmp_path / "nope.tsv"), str(tmp_path / "nope.tsv")]
            )
            == 2
        )


def test_bench_tracing_targets_resolve():
    # bench/tracing.py wraps these names by getattr; a missing one fails
    # every traced benchmark round
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, *_ in tracing._TARGETS:
        module = importlib.import_module(f"scibreak.{module_name}")
        assert callable(getattr(module, attr, None)), f"scibreak.{module_name}.{attr}"


def test_version_matches_pyproject():
    # the package version is kept in two places; Python 3.10 has no tomllib
    import scibreak

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M).group(1)
    assert scibreak.__version__ == version


# numpy 2.4 imports numpy.ma on the first read of ``np.ma``, which a plain
# np.unique makes: 12-20 ms that a fresh scibreak process should not pay
NO_MASKED_ARRAYS = """
import sys
from pathlib import Path

import numpy

if "numpy.ma" in sys.modules:
    print("preloaded")  # an older numpy imports numpy.ma with numpy
    raise SystemExit
from test_golden import _run_all

_run_all(Path(sys.argv[1]))
print("imported" if "numpy.ma" in sys.modules else "absent")
"""


def test_runs_never_import_numpy_ma(tmp_path):
    # the golden runs: the cluster and rank commands and a pipeline run
    # through all seven stages, in one fresh process
    tests = Path(__file__).resolve().parent
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    if done.stdout.split()[-1] == "preloaded":
        pytest.skip("this numpy imports numpy.ma at import")
    assert done.stdout.split()[-1] == "absent"

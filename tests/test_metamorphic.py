"""Metamorphic relations of ``run_pipeline`` on the golden 2,000-work corpus.

A metamorphic relation states how a run directory must respond to a
transformed input, so it needs no oracle (Chen, Cheung & Yiu 1998,
HKUST-CS98-01; Segura et al. 2016, IEEE TSE 42:805).  At this scale the
brute-force oracles of ``oracles.py`` cannot run, and the golden digests
detect change, not error.  Each relation runs the golden pipeline config on
one transformed corpus and compares the run directory, file by file, with
the run on the plain corpus.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scibreak.cli import main as cli_main
from scibreak.config import PipelineConfig
from scibreak.pipeline import run_pipeline

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
HORIZON = 10
ANALYSIS_END = 2004
# the config's default year_max (2023) would drop at ingest every work dated
# after ANALYSIS_END + 2 * HORIZON, so both runs keep works up to this year
YEAR_MAX = 2040
# files that record the input itself rather than what was computed from it
INPUT_RECORDS = {"corpus.snap", "ingest_report.json", "manifest.json"}


def _config(corpus_path, out_root, indicators=INPUTS) -> PipelineConfig:
    """The golden pipeline config on ``corpus_path``, with the indicator
    files of directory ``indicators``."""
    return PipelineConfig(
        corpus_path=str(corpus_path),
        out_root=str(out_root),
        horizon=HORIZON,
        analysis_start=1965,
        analysis_end=ANALYSIS_END,
        year_max=YEAR_MAX,
        leiden_seed=11,
        comparator_rank_path=str(indicators / "comparator.tsv"),
        rd_share_path=str(indicators / "rd.tsv"),
        gdp_path=str(indicators / "gdp.tsv"),
        gerd_window=(1995, 2004),
    )


def _files(run_dir: Path) -> dict[str, bytes]:
    """Every file's bytes under ``run_dir``, by relative path."""
    return {
        path.relative_to(run_dir).as_posix(): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def _run(corpus_path, out_root, indicators=INPUTS) -> dict[str, bytes]:
    """The golden pipeline config on ``corpus_path``, run in this process:
    every output file's bytes."""
    config = _config(corpus_path, out_root, indicators)
    return _files(out_root / run_pipeline(config)["config_hash"])


def _untimed_manifest(files: dict[str, bytes]) -> dict:
    """A run's manifest without its stage timings, which no run repeats."""
    manifest = json.loads(files["manifest.json"])
    for stage in manifest["stages"]:
        del stage["seconds"]
    return manifest


def _late_works(records: list[dict], count: int, seed: int) -> list[dict]:
    """``count`` works dated after ANALYSIS_END + 2 * HORIZON that cite earlier
    works: two scored in the last HORIZON years of the analysis range (whose
    windows the new works come closest to), two anywhere in the corpus and,
    from the second on, one of the new works dated no later than itself."""
    rng = np.random.default_rng(seed)
    late = [r["id"] for r in records if ANALYSIS_END - HORIZON <= r["publication_year"] <= ANALYSIS_END]
    years = np.sort(rng.integers(ANALYSIS_END + 2 * HORIZON + 1, YEAR_MAX + 1, size=count))
    works = []
    for i, year in enumerate(years.tolist()):
        refs = {late[j] for j in rng.choice(len(late), size=2, replace=False)}
        refs |= {records[j]["id"] for j in rng.choice(len(records), size=2, replace=False)}
        if works:
            refs.add(works[int(rng.integers(len(works)))]["id"])
        labels = records[int(rng.integers(len(records)))]
        works.append(
            {
                "id": f"L{i:04d}",
                "publication_year": year,
                "referenced_works": sorted(refs),
                "primary_topic": labels["primary_topic"],
                "authorships": labels["authorships"],
            }
        )
    return works


def _golden_lines() -> list[str]:
    return gzip.decompress((INPUTS / "corpus.jsonl.gz").read_bytes()).decode("utf-8").splitlines()


@pytest.fixture(scope="module")
def plain_run(tmp_path_factory):
    """The golden config on the golden corpus: every output file's bytes."""
    return _run(INPUTS / "corpus.jsonl.gz", tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def late_works_runs(tmp_path_factory, plain_run):
    """The plain run and the run with 300 late works appended, and the year
    of the plain corpus's last work."""
    root = tmp_path_factory.mktemp("late-works")
    lines = _golden_lines()
    records = [json.loads(line) for line in lines]
    added = _late_works(records, 300, seed=18)
    plus_path = root / "corpus.jsonl"
    plus_path.write_text(
        "\n".join(lines + [json.dumps(work) for work in added]) + "\n", encoding="utf-8"
    )
    plain = plain_run
    plus = _run(plus_path, root / "plus")
    # the derivation's premises: no reference points forward in time, and
    # ingest kept every added work
    for files, works in ((plain, len(records)), (plus, len(records) + len(added))):
        report = json.loads(files["ingest_report.json"])
        assert report["backward_edges"] == 0
        assert report["works_ingested"] == works
    return plain, plus, max(r["publication_year"] for r in records)


def _changed(plain: dict[str, bytes], plus: dict[str, bytes]) -> set[str]:
    assert plain.keys() == plus.keys()
    return {name for name in plain if plain[name] != plus[name]}


def test_works_after_every_window_change_no_score(late_works_runs):
    """Relation 2: works dated after ``analysis_end + 2 * horizon`` (E + 2T)
    that cite earlier works change no score, selection, panel, cluster,
    ranking or analysis.

    No reference points forward in time (ingest reports no backward edge), and
    no work cites an added one.  A scored work f is dated at most E, so:

    * its in-window citers are dated at most year(f) + T <= E + T, before
      every added work;
    * NBNC's co-cited works j are references of those citers, so year(j) <=
      E + T, and gamma_t(j) counts citations made in year(j) + t <= E + 2T
      (``own_age``) or year(f) + t <= E + T (``focal_calendar``);
    * CD's C_x and C_y range over the same citers, and C_refs counts
      citations of f's references made in year(f)..year(f) + T.

    So every NBNC and CD value is unchanged, and select, panel, cluster, rank
    and analyses, which read only those values and the labels of works dated
    in the analysis range, write the same bytes.  Only ``corpus.snap``,
    ``ingest_report.json`` and ``manifest.json`` record the added works.

    The one other change is the ``truncated_horizon`` flag, which compares
    year(f) + T with the corpus's last publication year: it leaves every work
    whose window passed the plain corpus's last year, though the years after
    it still hold no work.  The test below states the relation without that
    exception.
    """
    plain, plus, last_year = late_works_runs
    changed = _changed(plain, plus)
    metrics = {name for name in changed if name.startswith("metrics/")}
    assert changed - metrics <= INPUT_RECORDS
    assert INPUT_RECORDS <= changed
    lost_flags = 0
    for name in metrics:
        year = int(name.removeprefix("metrics/metrics_").removesuffix(".tsv"))
        assert year + HORIZON > last_year
        was, now = (files[name].decode("utf-8").splitlines() for files in (plain, plus))
        assert was[0] == now[0] == "work_id\tnbnc\tcd\tflags"
        assert len(was) == len(now)
        for before, after in zip(was[1:], now[1:]):
            *scores, flags = before.split("\t")
            assert after.split("\t") == [*scores, _without_truncation(flags)]
            lost_flags += "truncated_horizon" in flags
    assert lost_flags


def _without_truncation(flags: str) -> str:
    kept = [flag for flag in flags.split(",") if flag != "truncated_horizon"]
    return ",".join(kept) or "-"


@pytest.mark.xfail(
    strict=True,
    reason="truncated_horizon is measured against the corpus's last publication "
    "year, so works dated after every window clear it (FOUND in CHANGES.md)",
)
def test_works_after_every_window_change_only_the_input_records(late_works_runs):
    """Relation 2 as stated, flags included: only the files that record the
    input may change.  A work's window years hold no work in either corpus
    once they pass the plain corpus's last year, so its ``truncated_horizon``
    flag should not depend on works dated after every window."""
    plain, plus, _ = late_works_runs
    assert _changed(plain, plus) == INPUT_RECORDS


# A <-> Z, B <-> Y, ... in each letter: an involution on two-letter codes
# that reverses their order
_MIRROR = str.maketrans(string.ascii_uppercase, string.ascii_uppercase[::-1])


@pytest.fixture(scope="module")
def mirrored_run(tmp_path_factory):
    """The golden config with every country code mirrored, in the corpus and
    in the comparator, R&D and GDP files alike."""
    root = tmp_path_factory.mktemp("mirrored")
    records = [json.loads(line) for line in _golden_lines()]
    for record in records:
        for authorship in record["authorships"]:
            authorship["countries"] = [code.translate(_MIRROR) for code in authorship["countries"]]
    corpus_path = root / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    for name in ("comparator.tsv", "rd.tsv", "gdp.tsv"):
        header, *rows = (INPUTS / name).read_text(encoding="utf-8").splitlines()
        rows = [row[:2].translate(_MIRROR) + row[2:] for row in rows]
        (root / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return _run(corpus_path, root / "run", indicators=root)


def _rows(data: bytes) -> list[list[str]]:
    """The cells of each line of a run table, its header first."""
    return [line.split("\t") for line in data.decode("utf-8").splitlines()]


def _by_label(rows: list[list[str]], column: int, mirror: bool) -> dict[str, list[str]]:
    """Table rows by the label in ``column``, mirrored back if asked, and
    without that cell."""
    by_label = {
        (row[column].translate(_MIRROR) if mirror else row[column]): row[:column] + row[column + 1:]
        for row in rows
    }
    assert len(by_label) == len(rows)
    return by_label


def _close_tables(want: bytes, got: bytes) -> bool:
    """The same shape, equal labels and integers, floats within 1e-12 relative."""
    want, got = _rows(want), _rows(got)
    return [len(row) for row in want] == [len(row) for row in got] and all(
        abs(float(b) - float(a)) <= 1e-12 * abs(float(a)) if "." in a else a == b
        for want_row, got_row in zip(want, got)
        for a, b in zip(want_row, got_row)
    )


def test_mirrored_country_codes_permute_panels_and_rankings(plain_run, mirrored_run):
    """Relation 4: mirroring every country code (A <-> Z, B <-> Y, ... in
    each letter, which reverses the order of two-letter codes) in the corpus
    and in the indicator files permutes the panels and the rankings, and
    leaves the analyses unchanged.

    The pipeline reads a code only to tell countries apart and to order them.
    So each panel holds the same count rows under the mirrored labels, in
    reverse order; RCA and the RCA >= 1 adjacency are the same per label
    (integer sums are exact in any order), and so is pruning.  GENEPY is
    equivariant under a permutation of the rows, so each entity keeps its
    score, up to the summation order of the permuted products, which moves
    a score by some ulp of the table's largest one.  Tie groups are set by
    scores alone; within a group labels ascend, so the mirror reverses a
    group's positional ranks but keeps its tie rank, the group's first
    position.  Pruned entities keep tie rank n + 1.

    The analyses pair each country's tie rank, or its breakthrough count,
    with the same country's comparator rank or mean GERD, looked up by code:
    the same pairs in another order, so every label and integer is equal and
    every float equal up to summation order.  Positional ranks would rank
    the countries of a tie group by their codes, so the mirror would change
    Spearman's rho and the rank fit.
    """
    assert mirrored_run.keys() == plain_run.keys()
    names = [name for name in plain_run if name.endswith(".tsv")]
    panels = [name for name in names if name.startswith("panels/")]
    rankings = [name for name in names if name.endswith(("_countries.tsv", "_subfields.tsv"))]
    analyses = [name for name in names if name.startswith("analysis/")]
    assert (len(panels), len(rankings), len(analyses)) == (8, 16, 2)
    for name in panels:
        (header, *want), (mirrored_header, *got) = _rows(plain_run[name]), _rows(mirrored_run[name])
        assert mirrored_header == header
        assert _by_label(got, 0, mirror=True) == _by_label(want, 0, mirror=False)
    for name in rankings:
        (header, *want), (_, *got) = _rows(plain_run[name]), _rows(mirrored_run[name])
        assert header == ["rank", "label", "score", "tie_rank", "pruned"]
        want = _by_label(want, 1, mirror=False)
        got = _by_label(got, 1, mirror=name.endswith("_countries.tsv"))
        assert got.keys() == want.keys()
        ulp_room = 1e-12 * max(abs(float(row[1])) for row in want.values())
        for label, (_, score, tie_rank, pruned) in want.items():
            assert got[label][2:] == [tie_rank, pruned], (name, label)
            assert abs(float(got[label][1]) - float(score)) <= ulp_room, (name, label)
    differ = [name for name in analyses if not _close_tables(plain_run[name], mirrored_run[name])]
    assert differ == []


@pytest.fixture(scope="module")
def shuffled_run(tmp_path_factory):
    """The golden config on the golden corpus's lines in a seeded shuffle."""
    root = tmp_path_factory.mktemp("shuffled")
    lines = _golden_lines()
    random.Random(3).shuffle(lines)
    corpus_path = root / "corpus.jsonl"
    corpus_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return _run(corpus_path, root / "run")


def test_input_line_order_changes_only_the_snapshot(plain_run, shuffled_run):
    """Relation 1: shuffling the corpus's lines changes only the snapshot and
    the manifest's record of it and of the corpus path.

    Ingest numbers works in input order, and the snapshot stores them in
    that order, so ``corpus.snap`` moves.  Nothing else reads that number
    for anything but lookups:

    * a reference row holds its targets ascending, so k(c, f) and every
      NBNC bag and gamma are the same sets and counts; each NBNC term and
      each CD is a ratio of integer counts, and NBNC adds its terms in
      offset order;
    * metrics and breakthrough rows sort by year, then work id (``id_rank``,
      Python ``str`` order), and selection breaks NBNC ties by work id;
    * series, panels and rankings count works per subfield, year and
      country code, and order rows by those labels, so DTW, the kernel,
      Leiden (whose labels are sorted first) and GENEPY see the same
      matrices in the same order.

    The corpus here is a plain file, the plain run's gzipped, which ingest
    reads alike.  The manifest records the corpus path, the config hash
    that the path enters, and every output's checksum, so exactly the path,
    the hash and the snapshot's checksum differ.
    """
    assert _changed(plain_run, shuffled_run) == {"corpus.snap", "manifest.json"}
    want, got = _untimed_manifest(plain_run), _untimed_manifest(shuffled_run)
    assert want["config"].pop("corpus_path") != got["config"].pop("corpus_path")
    assert want["outputs"].pop("corpus.snap") != got["outputs"].pop("corpus.snap")
    assert want.pop("config_hash") != got.pop("config_hash")
    assert got == want


def _stage_chain(inputs: list[Path], out: Path) -> dict[str, bytes]:
    """``scibreak ingest`` of ``inputs`` and then every stage subcommand,
    with the golden config's settings, in this process: every file's bytes
    but a manifest's."""
    out.mkdir()
    snap = str(out / "corpus.snap")
    span = ["--start", "1965", "--end", str(ANALYSIS_END)]
    steps = [
        ["ingest", "--input", *map(str, inputs), "--snapshot", snap,
         "--report", str(out / "ingest_report.json"), "--year-max", str(YEAR_MAX)],
        ["metrics", "--snapshot", snap, "--out-dir", str(out), "--horizon", str(HORIZON), *span],
        ["select", "--snapshot", snap, "--metrics-dir", str(out / "metrics"),
         "--out-dir", str(out)],
        ["panel", "--snapshot", snap, "--breakthroughs-dir", str(out / "breakthroughs"),
         "--out-dir", str(out), *span],
        ["cluster", "--series", str(out / "series" / "subfield_series.tsv"),
         "--out-dir", str(out), "--seed", "11"],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv[0]
    panels = sorted(str(path) for path in (out / "panels").glob("*.tsv"))
    assert cli_main(["rank", "--panel", *panels, "--out-dir", str(out)]) == 0
    files = _files(out)
    return {name: data for name, data in files.items() if Path(name).name != "manifest.json"}


def test_input_split_into_a_plain_and_a_gzip_part_changes_no_byte(tmp_path):
    """Relation 1, second half: the corpus's lines cut into a plain part and
    a gzipped part, read by one ``scibreak ingest``, give the bytes of the
    one-file input through every stage.

    Ingest reads its inputs as one stream in the order given, so work
    numbers, the duplicate check and reference resolution cannot see where
    one file ends.  The cut falls between a work and a later duplicate of
    its id, and between a citer and a work it cites, which moves to just
    after the cut.
    """
    lines = _golden_lines()
    records = [json.loads(line) for line in lines]
    cut = len(lines) // 2
    citer, cited = next(
        (record, ref)
        for record in records[cut // 2 : cut]
        for ref in record["referenced_works"]
        if ref != record["id"]
    )
    moved = next(i for i, record in enumerate(records) if record["id"] == cited)
    assert moved < cut  # the golden corpus cites only earlier lines
    duplicate = dict(citer, publication_year=citer["publication_year"] + 1, referenced_works=[])
    head = [line for i, line in enumerate(lines[:cut]) if i != moved]
    tail = [lines[moved], *lines[cut:], json.dumps(duplicate)]

    whole = tmp_path / "whole.jsonl"
    whole.write_text("".join(line + "\n" for line in head + tail), encoding="utf-8")
    plain, zipped = tmp_path / "a.jsonl", tmp_path / "b.jsonl.gz"
    plain.write_text("".join(line + "\n" for line in head), encoding="utf-8")
    zipped.write_bytes(gzip.compress("".join(line + "\n" for line in tail).encode("utf-8")))

    one = _stage_chain([whole], tmp_path / "one")
    two = _stage_chain([plain, zipped], tmp_path / "two")
    report = json.loads(one["ingest_report.json"])
    assert report["rejected"] == {"duplicate_id": 1}
    assert report["records_seen"] == len(records) + 1
    assert len(one) > 50
    assert one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []


def test_hash_seed_changes_no_byte(tmp_path, plain_run):
    """Relation 5: two fresh ``scibreak run`` processes at ``PYTHONHASHSEED``
    0 and 1 write the same bytes, the manifests' stage timings aside.

    The seed moves the hash of every ``str``, and so the iteration order of
    every set and dict keyed by strings (work ids, country codes).  The
    byte contract holds only if no output follows that order: rows are
    sorted by id or label before they are written, and dicts keep insertion
    order.  The config file renders the golden config key by key, so both
    processes run what the in-process plain run ran, at the hash seed of
    this process; its data files must match too.
    """
    config = _config(INPUTS / "corpus.jsonl.gz", tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        out_root = tmp_path / f"hash-seed-{seed}"
        config_path = tmp_path / f"hash-seed-{seed}.cfg"
        items = [*config.canonical_items(), ("out_root", str(out_root))]
        config_path.write_text("".join(f"{k} = {v}\n" for k, v in items), encoding="utf-8")
        command = [sys.executable, "-m", "scibreak", "run", "--config", str(config_path)]
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        runs.append((out_root, subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)))
    try:
        assert [process.wait(timeout=120) for _, process in runs] == [0, 0]
    finally:
        for _, process in runs:
            process.kill()  # nothing left to stop once it has exited
    first, second = (_files(out_root / config.config_hash()) for out_root, _ in runs)
    assert first.keys() == second.keys() == plain_run.keys()
    assert _untimed_manifest(first) == _untimed_manifest(second)
    for run in (second, plain_run):
        assert [name for name in first if name != "manifest.json" and first[name] != run[name]] == []

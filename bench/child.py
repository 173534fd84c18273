"""One measured round of a workload, in a fresh process.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/child.py setup <workload> <fixture_dir>
    python3 bench/child.py round <workload> <fixture_dir> <out_dir> <trace> <keep>

``setup`` imports the package and parses the workload's config, then exits;
``run.py`` times the whole process from outside.  ``round`` runs the
workload's program calls once and writes ``result.json`` into ``out_dir``:
wall and CPU seconds of the calls, the peak RSS of this process, the status
of each operation and, when ``trace`` is 1, per-layer times and counts.
With ``keep`` 1 it also saves what the output checks need beyond the files
the program writes (the snapshot as loaded, for ``ingest-80k``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _parse_config(workload: str, fixture: Path):
    if workload == "pipeline-20k":
        from scibreak.config import PipelineConfig

        config = PipelineConfig.from_file(fixture / "run.cfg")
        config.validate()
        return config
    return None


def _pipeline(config, fixture: Path, out: Path, span) -> tuple[list[dict], object]:
    from scibreak.config import with_overrides
    from scibreak.pipeline import StageError, run_pipeline

    config = with_overrides(config, out_root=str(out / "runs"))
    try:
        manifest = run_pipeline(config)
    except StageError:
        manifest = json.loads(
            (out / "runs" / config.config_hash() / "manifest.json").read_text()
        )
    (out / "run_dir.txt").write_text(config.config_hash())
    done = {s["name"]: s for s in manifest["stages"]}
    plan = ("ingest", "metrics", "select", "panel", "cluster", "rank", "analyses")
    ops = [
        {
            "name": name,
            "ok": name in done and done[name]["status"] == "ok",
            "seconds": done[name]["seconds"] if name in done else 0.0,
        }
        for name in plan
    ]
    return ops, None


def _ingest(config, fixture: Path, out: Path, span) -> tuple[list[dict], object]:
    from scibreak.cli import main
    from scibreak.corpus import CitationCorpus

    parts = sorted(str(p) for p in fixture.glob("part-*.jsonl.gz"))
    snap = out / "corpus.snap"
    status = main(["ingest", "--input", *parts, "--snapshot", str(snap),
                   "--report", str(out / "report.json")])
    ops = [{"name": "ingest", "ok": status == 0}]
    loaded = None
    if status == 0:
        with span("corpus.load_snapshot"):
            loaded = CitationCorpus.load_snapshot(snap)
    ops.append({"name": "load_snapshot", "ok": loaded is not None})
    status = main(["ingest", "--input", str(fixture / "update.jsonl.gz"),
                   "--snapshot", str(out / "update.snap"),
                   "--report", str(out / "update_report.json")])
    ops.append({"name": "ingest_update", "ok": status == 0})
    return ops, loaded


def _cluster(config, fixture: Path, out: Path, span) -> tuple[list[dict], object]:
    from scibreak.cli import main

    status = main(["cluster", "--series", str(fixture / "subfield_series.tsv"),
                   "--out-dir", str(out), "--seed", "11"])
    return [{"name": "cluster", "ok": status == 0}], None


def _rank(config, fixture: Path, out: Path, span) -> tuple[list[dict], object]:
    from scibreak.cli import main

    panels = sorted(fixture.glob("*_*-*.tsv"))
    status = main(["rank", "--panel", *map(str, panels), "--out-dir", str(out)])
    names = ("rca.tsv", "adjacency.tsv", "countries.tsv", "subfields.tsv", "diagnostics.json")
    ops = []
    for panel in panels:
        written = all((out / "ranks" / f"{panel.stem}_{n}").exists() for n in names)
        ops.append({"name": panel.stem, "ok": status == 0 and written})
    return ops, None


WORKLOADS = {
    "pipeline-20k": _pipeline,
    "ingest-80k": _ingest,
    "cluster-paper": _cluster,
    "rank-paper": _rank,
}


def _dump_corpus(corpus, path: Path) -> None:
    """The loaded snapshot through public accessors, for the output checks."""
    import numpy as np

    n = corpus.n_works
    refs = [corpus.references_idx(i) for i in range(n)]
    cites = [corpus.citers_idx(i) for i in range(n)]
    np.savez(
        path,
        ids=np.array(corpus.ids),
        years=np.array([corpus.pub_year_of(i) for i in range(n)]),
        subfields=np.array([-1 if (s := corpus.subfield_of(i)) is None else s for i in range(n)]),
        countries=np.array([",".join(corpus.countries_of(i)) for i in range(n)]),
        ref_counts=np.array([len(r) for r in refs]),
        refs=np.concatenate(refs) if n else np.zeros(0),
        cite_counts=np.array([len(c) for c in cites]),
        cites=np.concatenate(cites) if n else np.zeros(0),
    )


def main(argv: list[str]) -> int:
    mode, workload, fixture = argv[0], argv[1], Path(argv[2])
    config = _parse_config(workload, fixture)
    import scibreak.cli  # noqa: F401  every workload's entry point, loaded before any clock starts

    if mode == "setup":
        return 0
    out, traced, keep = Path(argv[3]), argv[4] == "1", argv[5] == "1"
    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    ops, loaded = WORKLOADS[workload](config, fixture, out, span)
    run_s = time.perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "run_s": run_s,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "peak_rss_mib": cpu1.ru_maxrss / 1024.0,
        "ops": ops,
    }
    if traced:
        result["layers"] = tracing.layer_metrics(tracer)
    if keep and loaded is not None:
        _dump_corpus(loaded, out / "loaded.npz")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

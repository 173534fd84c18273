"""Benchmark of the scibreak pipeline: four workloads, one command.

Run from the root of a checkout (the package is imported from ``src``)::

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

For one workload it generates the inputs for the seed (cached under
``.bench_work/fixtures``), times a fresh process that imports the package
and parses the workload's config several times (``setup_s``), then runs
rounds of the workload, each in a fresh process, until ``--seconds`` have
passed.  With ``--trace 1`` untraced and traced rounds alternate and the
per-layer metrics of the traced ones are reported.  The outputs of the
first round are checked against independent recomputations, and every
round must write the same bytes.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload untraced and traced and prints one
such line per run, then a summary line over all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import fixtures
import tracing

BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_work")
# every run must end within 180 s; keep room for the output checks
DEADLINE_S = 165.0
CHECK_RESERVE_S = 20.0
SETUP_PROBES = 7
# One BLAS thread: on 2 CPUs a second one doubled cpu_s on rank-paper for
# little wall time and made wall time noisier (see README).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = list(fixtures.MAKERS)
CHILD_FILES = {"result.json", "loaded.npz", "run_dir.txt"}  # child.py's own
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
STAGES = ("ingest", "metrics", "select", "panel", "cluster", "rank", "analyses")
PER_LAYER = {
    **{name: "s" for name in tracing.LAYER_TIMES},
    **{name: "count" for name in tracing.COUNTS},
    "corpus.snapshot_bytes": "bytes",
    "corpus.us_per_record": "us",
    "impact.window_edges": "count",
    "impact.nbnc_us_per_work": "us",
    "impact.cd_us_per_work": "us",
    "clustering.ns_per_dtw_cell": "ns",
    "pipeline.manifest_s": "s",
    "pipeline.output_bytes": "bytes",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not measure this workload."""


def _source_hash() -> str:
    """Hash of the program and of the code that decides what a round writes."""
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")) + [BENCH / "child.py"]:
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _fixture(workload: str, seed: int) -> tuple[Path, dict]:
    """Inputs for (workload, seed), generated once and kept for later runs.

    The cache key includes a hash of ``fixtures.py``, so editing a generator
    never reuses inputs made by the old one.
    """
    version = hashlib.sha256((BENCH / "fixtures.py").read_bytes()).hexdigest()[:8]
    directory = WORK / "fixtures" / f"{workload}-{seed}-{version}"
    meta_path = directory / "meta.json"
    if meta_path.exists():
        return directory, json.loads(meta_path.read_text())
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    meta = fixtures.MAKERS[workload](directory, seed)
    meta_path.write_text(json.dumps(meta))  # written last: marks the entry whole
    return directory, meta


def _child(args: list[str], env: dict, deadline: float) -> float:
    """Run bench/child.py to completion; return its wall seconds."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} passed the time limit") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{tail}")
    return time.perf_counter() - started


def _digests(out: Path) -> tuple[dict[str, str], int]:
    """sha256 of every file the program wrote in a round, and their bytes.

    The manifest is counted but not hashed: its stage timings change.
    """
    digests, total = {}, 0
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in CHILD_FILES:
            total += path.stat().st_size
            if path.name != "manifest.json":
                digests[path.relative_to(out).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    return digests, total


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    fixture, meta = _fixture(workload, seed)
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p
    )

    # the first probe also fills the bytecode cache, so it is not counted
    _child(["setup", workload, str(fixture)], env, deadline)
    setup = [_child(["setup", workload, str(fixture)], env, deadline) for _ in range(SETUP_PROBES)]

    runs = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(runs, ignore_errors=True)
    rounds = []
    try:
        started = time.monotonic()
        while True:
            traced = trace and len(rounds) % 2 == 1
            out = runs / f"round-{len(rounds)}"
            out.mkdir(parents=True)
            round_start = time.monotonic()
            _child(
                ["round", workload, str(fixture), str(out), str(int(traced)), str(int(not rounds))],
                env,
                deadline,
            )
            result = json.loads((out / "result.json").read_text())
            result["traced"] = traced
            result["digests"], result["output_bytes"] = _digests(out)
            rounds.append(result)
            now = time.monotonic()
            if rounds[1:]:
                shutil.rmtree(out)
            wanted = 2 if trace else 1
            if now - started >= seconds and len(rounds) >= wanted:
                break
            if now + (now - round_start) > deadline - CHECK_RESERVE_S and len(rounds) >= wanted:
                break
        return _summarise(workload, seed, fixture, meta, runs / "round-0", rounds, setup, trace)
    finally:
        shutil.rmtree(runs, ignore_errors=True)


def _summarise(workload, seed, fixture, meta, first, rounds, setup, trace) -> dict:
    rng = np.random.default_rng([seed, 9])
    failed_by_check: set[str] = set()
    try:
        if workload == "pipeline-20k":
            problems = checks.check_pipeline(fixture, first, rng)
        elif workload == "ingest-80k":
            problems, failed_by_check = checks.check_ingest(fixture, first, meta)
        elif workload == "cluster-paper":
            problems = checks.check_cluster_paper(fixture, first, rng)
        else:
            problems, failed_by_check = checks.check_rank_paper(fixture, first, rng)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"outputs missing or unreadable: {exc!r}"]

    if any(r["digests"] != rounds[0]["digests"] for r in rounds):
        problems.append("rounds on the same inputs wrote different bytes")
    # the same inputs and program must give the same bytes in any run; the
    # fixture's name carries its workload, seed and generator hash
    known = WORK / "digests" / f"{fixture.name}-{_source_hash()}.json"
    if known.exists():
        if json.loads(known.read_text()) != rounds[0]["digests"]:
            problems.append("outputs differ from an earlier run with this seed and source")
    else:
        known.parent.mkdir(parents=True, exist_ok=True)
        known.write_text(json.dumps(rounds[0]["digests"]))

    ops = [op for r in rounds for op in r["ops"]]
    failed = sum(1 for op in ops if not op["ok"] or op["name"] in failed_by_check)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in sorted(failed_by_check):
        print(f"operation failed its check: {name}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        metrics = {
            "run_s": _median([r["run_s"] for r in plain]),
            "setup_s": _median(setup),
            "cpu_s": _median([r["cpu_s"] for r in plain]),
            "peak_rss_mib": _median([r["peak_rss_mib"] for r in plain]),
        }
        units = END_TO_END
    else:
        metrics = _layer_metrics(meta, plain, [r for r in rounds if r["traced"]])
        units = PER_LAYER
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _layer_metrics(meta, plain, traced) -> dict[str, float]:
    per_round = []
    for r in traced:
        m = dict(r["layers"])
        m["pipeline.output_bytes"] = r["output_bytes"]
        # only run_pipeline reports stages; elsewhere these layers read 0
        stage = {op["name"]: op["seconds"] for op in r["ops"] if "seconds" in op}
        for name in STAGES:
            m[f"pipeline.stage.{name}_s"] = stage.get(name, 0.0)
        m["pipeline.manifest_s"] = r["run_s"] - sum(stage.values()) if stage else 0.0
        m["trace.run_s"] = r["run_s"]
        per_round.append(m)
    out = {name: _median([m[name] for m in per_round]) for name in per_round[0]}

    def ratio(num: str, den: str, scale: float) -> float:
        return out[num] / out[den] * scale if out[den] else 0.0

    out["impact.window_edges"] = meta.get("window_edges", 0)
    out["corpus.us_per_record"] = ratio("corpus.ingest_s", "corpus.records", 1e6)
    out["impact.nbnc_us_per_work"] = ratio("impact.nbnc_s", "impact.works_scored", 1e6)
    out["impact.cd_us_per_work"] = ratio("impact.cd_s", "impact.works_scored", 1e6)
    out["clustering.ns_per_dtw_cell"] = ratio("clustering.dtw_s", "clustering.dtw_cells", 1e9)
    out["trace.overhead_s"] = out.pop("trace.run_s") - _median([r["run_s"] for r in plain])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "scibreak" / "__init__.py").is_file():
        print("error: run from the root of a scibreak checkout (no src/scibreak here)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_workload(workload, args.seed, args.seconds, trace)
                print(json.dumps({"workload": workload, "trace": int(trace), **result}))
                summary["correct"] &= result["correct"]
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    summary["metrics"][f"{workload}:{name}"] = metric
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

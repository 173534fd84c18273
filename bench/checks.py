"""Output checks for each workload, independent of the package's code.

Every check recomputes what the program wrote from the generated inputs,
or tests a property the method must have; none compares against a stored
copy of earlier output.  Each ``check_*`` function returns a list of
problems (empty when the outputs are right).  ``check_ingest`` also returns
the names of operations whose outputs fail a check that is known to fail
today; those count as failed operations, not as wrong results.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import fixtures


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [line.rstrip("\n").split("\t") for line in fh]


def _matrix(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(column labels, row labels, values) of a labelled TSV matrix."""
    with open(path, encoding="utf-8") as fh:
        cols = fh.readline().rstrip("\n").split("\t")[1:]
        rows, values = [], []
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            rows.append(cells[0])
            values.append([float(v) for v in cells[1:]])
    return cols, rows, np.array(values, dtype=float).reshape(len(rows), len(cols))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- brute-force references ---------------------------------------------------


def _graph(records: list[dict]):
    year = {r["id"]: r["publication_year"] for r in records}
    refs = {r["id"]: list(r["referenced_works"]) for r in records}
    citers = defaultdict(list)
    for r in records:
        for ref in r["referenced_works"]:
            citers[ref].append(r["id"])
    return year, refs, citers


def brute_nbnc(year, refs, citers, focal: str, horizon: int) -> float:
    """NBNC by enumeration: multiset co-citation bags, own-age gamma."""
    y = year[focal]
    terms = []
    for t in range(horizon + 1):
        citing = [c for c in citers[focal] if year[c] == y + t]
        bag = [r for c in citing for r in refs[c] if r != focal]
        if not citing or not bag:
            terms.append(0.0)
            continue
        denom = sum(
            sum(1 for c in citers[j] if year[c] == year[j] + t) for j in bag
        )
        terms.append(len(bag) * len(citing) / denom if denom else 0.0)
    return sum(terms)


def brute_cd(year, refs, citers, focal: str, horizon: int) -> float:
    """CD index by enumeration of the citing works inside the window."""
    y = year[focal]
    own_refs = set(refs[focal])
    all_citers = set(citers[focal])

    def inside(w: str) -> bool:
        return y <= year[w] <= y + horizon

    c_x = c_y = c_refs = 0
    for w in citers[focal]:
        if inside(w):
            if own_refs & set(refs[w]):
                c_y += 1
            else:
                c_x += 1
    for r in own_refs:
        c_refs += sum(
            1 for w in citers[r] if w != focal and w not in all_citers and inside(w)
        )
    denom = c_x + c_y + c_refs
    return (c_x - c_y) / denom if denom else 0.0


def brute_dtw(a: np.ndarray, b: np.ndarray) -> float:
    """Full-matrix DTW with Euclidean local cost."""
    n, m = len(a), len(b)
    acc = np.full((n + 1, m + 1), math.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = math.hypot(a[i - 1, 0] - b[j - 1, 0], a[i - 1, 1] - b[j - 1, 1])
            acc[i, j] = cost + min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
    return float(acc[n, m])


# -- shared output checks -----------------------------------------------------


def check_ranks(ranks_dir: Path, panel_paths: list[Path]) -> tuple[list[str], set[str]]:
    """RCA identity, RCA >= 1 adjacency with pruning, eigenvalues against
    ``eigvalsh``, composite scores against dense ``eigh`` where the spectrum
    is simple at the cut, and rank order against scores.

    Returns the other problems and, apart from them, the panels whose
    eigenvalues or composite scores are wrong.
    """
    problems, wrong_eigen = [], set()
    for panel_path in panel_paths:
        stem = panel_path.stem
        subs, countries, X = _matrix(panel_path)
        if not X.any():
            if (ranks_dir / f"{stem}_rca.tsv").exists():
                problems.append(f"{stem}: an empty panel was ranked")
            continue
        cols, rows, R = _matrix(ranks_dir / f"{stem}_rca.tsv")
        if (cols, rows) != (subs, countries):
            problems.append(f"{stem}: RCA labels differ from the panel")
            continue
        total = X.sum()
        row_sums, col_sums = X.sum(axis=1), X.sum(axis=0)
        row_mean = (R * col_sums[None, :]).sum(axis=1) / total
        col_mean = (R * row_sums[:, None]).sum(axis=0) / total
        if np.abs(row_mean[row_sums > 0] - 1).max(initial=0) > 1e-12 or np.abs(
            col_mean[col_sums > 0] - 1
        ).max(initial=0) > 1e-12:
            problems.append(f"{stem}: RCA weighted means differ from 1 by > 1e-12")

        B = (R >= 1.0).astype(int)
        keep_r, keep_c = B.sum(axis=1) > 0, B.sum(axis=0) > 0
        M = B[np.ix_(keep_r, keep_c)]
        a_cols, a_rows, A = _matrix(ranks_dir / f"{stem}_adjacency.tsv")
        kept_rows = [c for c, k in zip(countries, keep_r) if k]
        kept_cols = [s for s, k in zip(subs, keep_c) if k]
        if a_rows != kept_rows or a_cols != kept_cols or not np.array_equal(A, M):
            problems.append(f"{stem}: adjacency is not RCA >= 1 with empty rows/columns pruned")
            continue
        diag = json.loads((ranks_dir / f"{stem}_diagnostics.json").read_text())
        pruned = {
            "countries": sorted(c for c, k in zip(countries, keep_r) if not k),
            "subfields": sorted(s for s, k in zip(subs, keep_c) if not k),
        }
        if sorted(diag["pruned_countries"]) != pruned["countries"] or sorted(
            diag["pruned_subfields"]
        ) != pruned["subfields"]:
            problems.append(f"{stem}: pruned labels in diagnostics are wrong")

        for side, S, labels in zip(
            ("countries", "subfields"), fixtures.proximity(M.astype(float)), (kept_rows, kept_cols)
        ):
            values, vectors = np.linalg.eigh(S)
            values, vectors = values[::-1], vectors[:, ::-1]
            got = diag[f"eigenvalues_{side}"]
            scale = max(1.0, abs(values[0]))
            if any(abs(g - v) > 1e-9 * scale for g, v in zip(got, values)):
                wrong_eigen.add(stem)
            if max(diag[f"residuals_{side}"]) > 1e-9:
                problems.append(f"{stem}: {side} eigen residual above 1e-9")
            table_problems, scores_ok = _check_rank_table(
                ranks_dir / f"{stem}_{side}.tsv", labels, pruned[side], values, vectors, len(got)
            )
            problems += table_problems
            if not scores_ok:
                wrong_eigen.add(stem)
    return problems, wrong_eigen


def _check_rank_table(path, labels, pruned, values, vectors, count) -> tuple[list[str], bool]:
    """Rank-table problems, and whether the scores match dense ``eigh``."""
    rows = _rows(path)
    problems = []
    ranks = [int(r[0]) for r in rows]
    scores = [float(r[2]) for r in rows]
    flags = [r[4] == "true" for r in rows]
    n = len(labels)
    if ranks != list(range(1, len(rows) + 1)) or flags != [False] * n + [True] * len(pruned):
        return [f"{path.name}: ranks are not 1..n with pruned entities last"], True
    if sorted(r[1] for r in rows[n:]) != sorted(str(p) for p in pruned):
        problems.append(f"{path.name}: pruned entities are wrong")
    for prev, cur in zip(scores[: n - 1], scores[1:n]):
        if cur > prev + 1e-9 * max(1.0, abs(prev)):
            problems.append(f"{path.name}: a rank has a higher score than the rank before it")
            break
    scale = max(1.0, abs(values[0]))
    simple = len(values) <= count or values[count - 1] - values[count] > 1e-6 * scale
    if simple:
        top = slice(0, count)
        weighted = (values[top] * vectors[:, top] ** 2).sum(axis=1)
        squared = (values[top] ** 2 * vectors[:, top] ** 2).sum(axis=1)
        ref = dict(zip(map(str, labels), weighted**2 + 2 * squared))
        worst = max(abs(float(r[2]) - ref[r[1]]) for r in rows[:n])
        return problems, worst <= 1e-7 * max(abs(v) for v in ref.values())
    return problems, True


def check_cluster(cluster_dir: Path, trajectories: dict[int, np.ndarray], rng) -> list[str]:
    """DTW against a full-matrix DP on sampled pairs, matrix shape, the
    Gaussian kernel, assignment coverage, cluster order and mean curves."""
    problems = []
    cols, rows, D = _matrix(cluster_dir / "dtw_distance.tsv")
    labels = sorted(trajectories)
    if [int(c) for c in cols] != labels or [int(r) for r in rows] != labels:
        return ["cluster: distance matrix labels are not the sorted subfields"]
    n = len(labels)
    if not np.array_equal(D, D.T) or np.any(np.diag(D) != 0):
        problems.append("cluster: distance matrix is not symmetric with a zero diagonal")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in rng.choice(len(pairs), size=min(24, len(pairs)), replace=False):
        i, j = pairs[int(k)]
        ref = brute_dtw(trajectories[labels[i]], trajectories[labels[j]])
        if not _close(D[i, j], ref, 1e-12):
            problems.append(f"cluster: DTW({labels[i]}, {labels[j]}) = {D[i, j]!r}, DP gives {ref!r}")
            break
    sigma = float(np.std(D[~np.eye(n, dtype=bool)]))
    _, _, S = _matrix(cluster_dir / "similarity.tsv")
    if np.abs(S - np.exp(-(D**2) / (2 * sigma * sigma))).max() > 1e-12:
        problems.append("cluster: similarity is not exp(-D^2 / 2 sigma^2)")

    assigned = _rows(cluster_dir / "assignments.tsv")
    if sorted(int(r[0]) for r in assigned) != labels:
        problems.append("cluster: not every subfield is assigned exactly once")
    members = defaultdict(list)
    for sub, cid, singleton in assigned:
        if (cid == "-") != (singleton == "true"):
            problems.append(f"cluster: singleton flag of {sub} disagrees with its cluster")
        if cid != "-":
            members[int(cid)].append(int(sub))
    order = sorted(members, key=lambda c: (-len(members[c]), min(members[c])))
    if order != list(range(1, len(members) + 1)):
        problems.append("cluster: cluster ids are not ordered by decreasing size")
    means = defaultdict(list)
    for cid, _, cn, di in _rows(cluster_dir / "mean_trajectories.tsv"):
        means[int(cid)].append((float(cn), float(di)))
    for cid, subs in members.items():
        ref = np.mean([trajectories[s] for s in subs], axis=0)
        got = np.array(means[cid])
        if got.shape != ref.shape or np.abs(got - ref).max() > 1e-12:
            problems.append(f"cluster: mean trajectory of cluster {cid} is not its members' mean")
    return problems


def _series_trajectories(path: Path) -> dict[int, np.ndarray]:
    points = defaultdict(list)
    for row in _rows(path):
        points[int(row[0])].append((int(row[1]), float(row[6]), float(row[7])))
    return {s: np.array([p[1:] for p in sorted(v)]) for s, v in points.items()}


# -- per-workload checks ------------------------------------------------------


def check_pipeline(fixture: Path, out: Path, rng) -> list[str]:
    run_dir = out / "runs" / (out / "run_dir.txt").read_text()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    problems = [
        f"pipeline: stage {s['name']} is {s['status']}"
        for s in manifest["stages"]
        if s["status"] != "ok"
    ]
    for rel, digest in manifest["outputs"].items():
        if hashlib.sha256((run_dir / rel).read_bytes()).hexdigest() != digest:
            problems.append(f"pipeline: manifest checksum of {rel} does not match")

    with open(fixture / "works.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    by_id = {r["id"]: r for r in records}
    year, refs, citers = _graph(records)
    lo, hi = fixtures.ANALYSIS
    horizon = fixtures.HORIZON

    metrics, selected = {}, []
    for y in range(lo, hi + 1):
        rows = _rows(run_dir / "metrics" / f"metrics_{y}.tsv")
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        if set(table) != {r["id"] for r in records if r["publication_year"] == y}:
            problems.append(f"pipeline: scored works of {y} are not the works of {y}")
        for wid in rng.choice(sorted(table), size=min(4, len(table)), replace=False):
            nbnc, cd = table[wid]
            if nbnc != brute_nbnc(year, refs, citers, wid, horizon):
                problems.append(f"pipeline: NBNC of {wid} differs from brute force")
            if cd != brute_cd(year, refs, citers, wid, horizon):
                problems.append(f"pipeline: CD of {wid} differs from brute force")
        metrics.update(table)
        take = max(1, math.ceil(0.05 * len(table)))
        expect = sorted(table, key=lambda w: (-table[w][0], w))[:take]
        got = _rows(run_dir / "breakthroughs" / f"breakthroughs_{y}.tsv")
        if [r[0] for r in got] != expect:
            problems.append(f"pipeline: breakthroughs of {y} are not the top {take} by (-NBNC, id)")
        selected += got

    for wid, y, sub, countries, nbnc, cd, klass in selected:
        record = by_id[wid]
        want = ",".join(a["countries"][0] for a in record["authorships"]) or "-"
        if (float(nbnc), float(cd)) != metrics[wid] or countries != want or int(sub) != record[
            "primary_topic"
        ]["subfield"]["id"]:
            problems.append(f"pipeline: breakthrough row of {wid} disagrees with its inputs")
        if (klass == "DI") != (float(cd) > 0):
            problems.append(f"pipeline: class of {wid} is {klass} with CD {cd}")

    totals = Counter(
        (r["primary_topic"]["subfield"]["id"], r["publication_year"]) for r in records
    )
    by_class = Counter((int(r[2]), int(r[1]), r[6]) for r in selected)
    series_path = run_dir / "series" / "subfield_series.tsv"
    for sub, y, n_total, n_bt, n_cn, n_di, *_ in _rows(series_path):
        key = (int(sub), int(y))
        if int(n_bt) != int(n_cn) + int(n_di) or int(n_total) != totals[key]:
            problems.append(f"pipeline: series row {sub}/{y} has wrong totals")
        if (int(n_cn), int(n_di)) != (by_class[key + ("CN",)], by_class[key + ("DI",)]):
            problems.append(f"pipeline: series row {sub}/{y} has wrong class counts")

    panel_paths = []
    for w_lo in range(lo, hi + 1, 10):
        w_hi = min(w_lo + 9, hi)
        for klass in ("CN", "DI"):
            path = run_dir / "panels" / f"{klass}_{w_lo}-{w_hi}.tsv"
            cells = Counter(
                (code, int(r[2]))
                for r in selected
                if r[6] == klass and w_lo <= int(r[1]) <= w_hi and r[3] != "-"
                for code in r[3].split(",")
            )
            cols, rows, X = _matrix(path)
            got = {
                (c, int(s)): int(X[i, j])
                for i, c in enumerate(rows)
                for j, s in enumerate(cols)
                if X[i, j]
            }
            if got != dict(cells):
                problems.append(f"pipeline: panel {path.stem} is not the full count of its breakthroughs")
            panel_paths.append(path)
    rank_problems, wrong_eigen = check_ranks(run_dir / "ranks", panel_paths)
    problems += rank_problems
    problems += [f"pipeline: eigenpairs or scores of panel {stem} are wrong" for stem in sorted(wrong_eigen)]
    problems += check_cluster(run_dir / "cluster", _series_trajectories(series_path), rng)
    return problems


def check_ingest(fixture: Path, out: Path, meta: dict) -> tuple[list[str], set[str]]:
    problems, failed = [], set()
    report = json.loads((out / "report.json").read_text())
    want = meta["report"]
    for key in want:
        if report.get(key) != want[key]:
            problems.append(f"ingest: report {key} is {report.get(key)}, injected {want[key]}")

    expected = np.load(fixture / "expected.npz")
    loaded = np.load(out / "loaded.npz")
    n = len(expected["years"])
    if list(loaded["ids"]) != [f"W{i + 1:07d}" for i in range(n)]:
        problems.append("ingest: loaded ids are not the ingested works in stream order")
    for key in ("years", "subfields", "countries"):
        if not np.array_equal(loaded[key], expected[key]):
            problems.append(f"ingest: loaded {key} differ from the ingested corpus")
    ref_counts = np.diff(expected["indptr"])
    if not (
        np.array_equal(loaded["ref_counts"], ref_counts)
        and np.array_equal(loaded["refs"], expected["indices"])
    ):
        problems.append("ingest: loaded reference CSR differs from the ingested corpus")
    sources = np.repeat(np.arange(n), loaded["ref_counts"])
    order = np.lexsort((sources, loaded["refs"]))
    if not (
        np.array_equal(loaded["cite_counts"], np.bincount(loaded["refs"].astype(np.int64), minlength=n))
        and np.array_equal(loaded["cites"], sources[order])
    ):
        problems.append("ingest: citing adjacency is not the transpose of the references")

    update = out / "update_report.json"
    if update.exists():
        got = json.loads(update.read_text())
        if any(got.get(k) != v for k, v in meta["update_report"].items()):
            failed.add("ingest_update")
    return problems, failed


def check_cluster_paper(fixture: Path, out: Path, rng) -> list[str]:
    return check_cluster(out / "cluster", _series_trajectories(fixture / "subfield_series.tsv"), rng)


def check_rank_paper(fixture: Path, out: Path, rng) -> tuple[list[str], set[str]]:
    """Panels with wrong eigenpairs or scores count as failed operations."""
    return check_ranks(out / "ranks", sorted(fixture.glob("*_*-*.tsv")))

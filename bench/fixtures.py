"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed (the ``rank-paper`` panels are
one fixed draw, see ``PANEL_DRAW``), written with numpy only and sharing no
code with the package, so a change to the program can never
change the inputs it is measured on.  Each ``make_*`` function writes the
files the program reads into a directory and returns a small JSON-ready
dict with what the output checks need to know about those inputs.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np

YEAR_START, YEAR_END = 1960, 2010
N_SUBFIELDS = 30
COUNTRY_CODES = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(40)]

# pipeline-20k: the C9 acceptance settings
PIPELINE_WORKS = 20_000
ANALYSIS = (1965, 2004)
GERD_WINDOW = (1995, 2004)
LEIDEN_SEED = 11
HORIZON = 10

# ingest-80k: base corpus size, part files, and the noise injected at fixed
# counts (only the positions depend on the seed)
INGEST_WORKS = 80_000
INGEST_PARTS = 8
UPDATE_WORKS = 1_000
NOISE = {
    # extra lines that ingestion must reject, by report key
    "parse_error": 120,
    "not_object": 40,
    "missing_id": 60,
    "missing_year": 150,
    "invalid_year": 150,
    "year_out_of_range": 150,
    "duplicate_id": 200,
    # edits to base records that ingestion must repair and count
    "dangling_refs": 500,
    "duplicate_refs": 500,
    "self_refs": 200,
    "invalid_subfields": 200,
    "invalid_countries": 600,
    # edits that are valid and must be absorbed without any count
    "string_years": 400,
    "url_subfields": 2_000,
    "lowercase_countries": 300,
}
UPDATE_NON_ASCII = 20
NON_ASCII_CODES = ["ÉÉ", "ÅÄ", "ÜÖ", "ÇÑ"]

# cluster-paper: the paper's 64-year grid, fewer subfields than its 252 so
# that one cluster command (all-pairs DTW) fits a few seconds
SERIES_YEARS = (1950, 2013)
CLUSTER_SUBFIELDS = 48
CLUSTER_SEED = 11

# rank-paper: seven decadal windows x two classes of 200 x 252 panels
PANEL_COUNTRIES = 200
PANEL_SUBFIELDS = 252
PANEL_WINDOWS = [(1950 + 10 * d, 1959 + 10 * d) for d in range(7)]
# The panels are one unfiltered draw that --seed does not change.  The
# package's eigen solver returns the wrong second eigenpair on a few natural
# draws (4 of 840 panels over seeds 1-60), so seeded panels would fail on some
# seeds only.  This draw holds one such panel, DI_2010-2019, which fails the
# eigenvalue check in every run and is counted as a failed operation.
PANEL_DRAW = 1


def _work_id(i: int) -> str:
    return f"W{i + 1:07d}"


def make_corpus(n_works: int, rng: np.random.Generator) -> dict:
    """Citation corpus shaped like ``scibreak.synth`` output, as arrays.

    Yearly volume grows exponentially, subfields and countries have Zipf-like
    popularity, and each work cites a Poisson(8) number of works from earlier
    years with preferential attachment.  Popularity is updated once per year
    rather than once per work, which keeps generation O(works) per year.
    """
    grid = np.arange(YEAR_START, YEAR_END + 1)
    weights = np.exp(0.04 * (grid - YEAR_START))
    per_year = rng.multinomial(n_works, weights / weights.sum())
    years = np.repeat(grid, per_year)

    sub_w = 1.0 / np.arange(1, N_SUBFIELDS + 1)
    subfields = 3100 + rng.choice(N_SUBFIELDS, size=n_works, p=sub_w / sub_w.sum())

    country_w = 1.0 / np.arange(1, len(COUNTRY_CODES) + 1) ** 0.8
    n_countries = rng.integers(1, 4, size=n_works)
    # Gumbel top-k draws distinct countries per work in weighted order
    keys = np.log(country_w)[None, :] + rng.gumbel(size=(n_works, len(COUNTRY_CODES)))
    picked = np.argsort(-keys, axis=1)[:, :3]
    countries = [
        tuple(COUNTRY_CODES[c] for c in picked[i, : n_countries[i]])
        for i in range(n_works)
    ]

    popularity = np.ones(n_works)
    counts = np.zeros(n_works, dtype=np.int64)
    chunks = []
    start = 0
    for n_year in per_year:
        n_prior = start
        if n_prior > 0 and n_year > 0:
            cdf = np.cumsum(popularity[:n_prior])
            k = np.minimum(rng.poisson(8.0, size=n_year), n_prior)
            draws = np.searchsorted(cdf, rng.random(int(k.sum())) * cdf[-1], side="right")
            draws = np.minimum(draws, n_prior - 1)
            owner = np.repeat(np.arange(n_year), k)
            # unique (owner, ref) keys: drops repeats, sorts refs per work
            key = np.unique(owner * n_prior + draws)
            refs = key % n_prior
            counts[start : start + n_year] = np.bincount(key // n_prior, minlength=n_year)
            chunks.append(refs)
            popularity[:n_prior] += 0.5 * np.bincount(refs, minlength=n_prior)
        start += n_year
    indptr = np.zeros(n_works + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return {
        "years": years,
        "subfields": subfields,
        "countries": countries,
        "indptr": indptr,
        "indices": indices,
    }


def _record(corpus: dict, i: int) -> dict:
    refs = corpus["indices"][corpus["indptr"][i] : corpus["indptr"][i + 1]]
    return {
        "id": _work_id(i),
        "publication_year": int(corpus["years"][i]),
        "referenced_works": [_work_id(int(r)) for r in refs],
        "primary_topic": {"subfield": {"id": int(corpus["subfields"][i])}},
        "authorships": [{"countries": [c]} for c in corpus["countries"][i]],
    }


def _dump(record: object) -> str:
    return json.dumps(record, sort_keys=True)


def make_pipeline(directory: Path, seed: int) -> dict:
    """20k-work corpus, indicator files and config for ``run_pipeline``."""
    rng = np.random.default_rng([seed, 1])
    corpus = make_corpus(PIPELINE_WORKS, rng)
    with open(directory / "works.jsonl", "w", encoding="utf-8") as fh:
        for i in range(PIPELINE_WORKS):
            fh.write(_dump(_record(corpus, i)) + "\n")

    header = "country\tperiod\tvalue\n"
    ranks = rng.permutation(len(COUNTRY_CODES)) + 1
    (directory / "comparator.tsv").write_text(
        header + "".join(f"{c}\t2005\t{r}\n" for c, r in zip(COUNTRY_CODES, ranks)),
        encoding="utf-8",
    )
    years = range(GERD_WINDOW[0], GERD_WINDOW[1] + 1)
    share = rng.uniform(0.5, 3.5, size=len(COUNTRY_CODES))
    gdp = rng.uniform(20.0, 2000.0, size=len(COUNTRY_CODES))
    (directory / "rd.tsv").write_text(
        header
        + "".join(
            f"{c}\t{y}\t{share[i] * (1 + 0.01 * (y - years[0])):.6f}\n"
            for i, c in enumerate(COUNTRY_CODES)
            for y in years
        ),
        encoding="utf-8",
    )
    (directory / "gdp.tsv").write_text(
        header
        + "".join(
            f"{c}\t{y}\t{gdp[i] * (1 + 0.03 * (y - years[0])):.3f}\n"
            for i, c in enumerate(COUNTRY_CODES)
            for y in years
        ),
        encoding="utf-8",
    )
    # paths are relative to the checkout root, where every round runs
    rel = directory.as_posix()
    (directory / "run.cfg").write_text(
        f"corpus_path = {rel}/works.jsonl\n"
        f"analysis_start = {ANALYSIS[0]}\n"
        f"analysis_end = {ANALYSIS[1]}\n"
        f"horizon = {HORIZON}\n"
        f"leiden_seed = {LEIDEN_SEED}\n"
        f"comparator_rank_path = {rel}/comparator.tsv\n"
        f"rd_share_path = {rel}/rd.tsv\n"
        f"gdp_path = {rel}/gdp.tsv\n"
        f"gerd_window = {GERD_WINDOW[0]},{GERD_WINDOW[1]}\n",
        encoding="utf-8",
    )
    # citing edges into scored works that land inside the horizon window
    cited = corpus["indices"]
    citing = np.repeat(np.arange(PIPELINE_WORKS), np.diff(corpus["indptr"]))
    y = corpus["years"]
    offset = y[citing] - y[cited]
    window_edges = (y[cited] >= ANALYSIS[0]) & (y[cited] <= ANALYSIS[1]) & (offset >= 0) & (offset <= HORIZON)
    return {"works": PIPELINE_WORKS, "window_edges": int(window_edges.sum())}


def _pick(rng: np.random.Generator, pool: np.ndarray, k: int, taken: set) -> list[int]:
    """k distinct members of ``pool`` not yet in ``taken`` (which grows)."""
    free = np.array([p for p in pool if p not in taken])
    chosen = sorted(int(x) for x in rng.choice(free, size=k, replace=False))
    taken.update(chosen)
    return chosen


def make_ingest(directory: Path, seed: int) -> dict:
    """80k-work corpus with OpenAlex-shaped noise, split into gzip parts.

    Returns the expected ingest report and writes ``expected.npz`` with the
    corpus ingestion must produce, plus a small update part whose records
    carry alphabetic non-ASCII country codes.
    """
    rng = np.random.default_rng([seed, 2])
    corpus = make_corpus(INGEST_WORKS, rng)
    n = INGEST_WORKS
    records = [_record(corpus, i) for i in range(n)]
    expected_sub = corpus["subfields"].astype(np.int64).copy()

    everyone = np.arange(n)
    with_refs = np.nonzero(np.diff(corpus["indptr"]) > 0)[0]
    taken: set = set()
    for i in _pick(rng, with_refs, NOISE["duplicate_refs"], taken):
        records[i]["referenced_works"].append(records[i]["referenced_works"][0])
    for k, i in enumerate(_pick(rng, everyone, NOISE["dangling_refs"], taken)):
        records[i]["referenced_works"].append(f"W9{k:07d}")
    for i in _pick(rng, everyone, NOISE["self_refs"], taken):
        records[i]["referenced_works"].append(records[i]["id"])
    for i in _pick(rng, everyone, NOISE["string_years"], taken):
        records[i]["publication_year"] = str(records[i]["publication_year"])
    # subfield and country edits may share records with reference edits
    taken = set()
    for i in _pick(rng, everyone, NOISE["url_subfields"], taken):
        sub = records[i]["primary_topic"]["subfield"]["id"]
        records[i]["primary_topic"]["subfield"]["id"] = (
            f"https://openalex.org/subfields/{sub}"
        )
    for i in _pick(rng, everyone, NOISE["invalid_subfields"], taken):
        records[i]["primary_topic"]["subfield"]["id"] = "unknown"
        expected_sub[i] = -1
    taken = set()
    bad_codes = ["USA", "X1", 7, "", "E-"]
    for k, i in enumerate(_pick(rng, everyone, NOISE["invalid_countries"], taken)):
        records[i]["authorships"].append({"countries": [bad_codes[k % len(bad_codes)]]})
    for i in _pick(rng, everyone, NOISE["lowercase_countries"], taken):
        first = records[i]["authorships"][0]["countries"]
        first[0] = first[0].lower()

    lines = [_dump(r) for r in records]
    # rejected lines: (position to insert before, text); a duplicate id must
    # follow the work it repeats
    extra: list[tuple[int, str]] = []

    def spot(lo: int = 0) -> int:
        return int(rng.integers(lo, n + 1))

    for k in range(NOISE["parse_error"]):
        extra.append((spot(), lines[int(rng.integers(n))][: 20 + k % 40]))
    for k in range(NOISE["not_object"]):
        extra.append((spot(), _dump([f"X{k}", 2000])))
    for k in range(NOISE["missing_id"]):
        extra.append((spot(), _dump({"publication_year": 1990, "referenced_works": []})))
    for k in range(NOISE["missing_year"]):
        extra.append((spot(), _dump({"id": f"XM{k:05d}", "referenced_works": []})))
    for k in range(NOISE["invalid_year"]):
        extra.append((spot(), _dump({"id": f"XI{k:05d}", "publication_year": "n.d."})))
    for k in range(NOISE["year_out_of_range"]):
        year = 1600 + k if k % 2 else 2100 + k
        extra.append((spot(), _dump({"id": f"XR{k:05d}", "publication_year": year})))
    for i in rng.choice(n, size=NOISE["duplicate_id"], replace=False):
        twin = dict(records[int(i)], publication_year=1999, referenced_works=[])
        extra.append((spot(int(i) + 1), _dump(twin)))
    extra.sort(key=lambda item: item[0])

    stream: list[str] = []
    cursor = 0
    for pos, text in extra:
        stream.extend(lines[cursor:pos])
        stream.append(text)
        cursor = max(cursor, pos)
    stream.extend(lines[cursor:])
    bounds = np.linspace(0, len(stream), INGEST_PARTS + 1).astype(int)
    for p in range(INGEST_PARTS):
        with gzip.open(directory / f"part-{p:02d}.jsonl.gz", "wt", encoding="utf-8", compresslevel=6) as fh:
            fh.writelines(s + "\n" for s in stream[bounds[p] : bounds[p + 1]])

    update, dangling = _update_part(rng)
    with gzip.open(directory / "update.jsonl.gz", "wt", encoding="utf-8", compresslevel=6) as fh:
        fh.writelines(_dump(r) + "\n" for r in update)

    np.savez(
        directory / "expected.npz",
        years=corpus["years"],
        subfields=expected_sub,
        indptr=corpus["indptr"],
        indices=corpus["indices"],
        countries=np.array([",".join(c) for c in corpus["countries"]]),
    )
    rejected = {
        key: NOISE[key]
        for key in (
            "parse_error",
            "not_object",
            "missing_id",
            "missing_year",
            "invalid_year",
            "year_out_of_range",
            "duplicate_id",
        )
    }
    return {
        "parts": INGEST_PARTS,
        "report": {
            "records_seen": len(stream),
            "works_ingested": n,
            "rejected": rejected,
            "dangling_refs": NOISE["dangling_refs"],
            "self_refs": NOISE["self_refs"],
            "duplicate_refs": NOISE["duplicate_refs"],
            "backward_edges": 0,
            "invalid_subfields": NOISE["invalid_subfields"],
            "invalid_countries": NOISE["invalid_countries"],
        },
        "update_report": {
            "records_seen": UPDATE_WORKS,
            "works_ingested": UPDATE_WORKS,
            "rejected": {},
            "dangling_refs": dangling,
            "self_refs": 0,
            "duplicate_refs": 0,
            "backward_edges": 0,
            "invalid_subfields": 0,
            "invalid_countries": UPDATE_NON_ASCII,
        },
    }


def _update_part(rng: np.random.Generator) -> tuple[list[dict], int]:
    """A late batch of works: refs to earlier batch works and to the base
    corpus (absent from this ingest, so dangling), some with non-ASCII
    alphabetic country codes."""
    years = np.sort(rng.integers(2011, 2016, size=UPDATE_WORKS))
    non_ascii = set(int(i) for i in rng.choice(UPDATE_WORKS, size=UPDATE_NON_ASCII, replace=False))
    records = []
    dangling = 0
    for i in range(UPDATE_WORKS):
        earlier = np.nonzero(years[:i] < years[i])[0]
        k = min(len(earlier), int(rng.poisson(4)))
        refs = [f"U{int(j) + 1:07d}" for j in sorted(rng.choice(earlier, size=k, replace=False))] if k else []
        base = sorted(set(int(j) for j in rng.integers(0, INGEST_WORKS, size=int(rng.integers(0, 3)))))
        refs += [_work_id(j) for j in base]
        dangling += len(base)
        codes = [COUNTRY_CODES[int(c)] for c in rng.choice(len(COUNTRY_CODES), size=2, replace=False)]
        if i in non_ascii:
            codes[1] = NON_ASCII_CODES[i % len(NON_ASCII_CODES)]
        records.append(
            {
                "id": f"U{i + 1:07d}",
                "publication_year": int(years[i]),
                "referenced_works": refs,
                "primary_topic": {"subfield": {"id": 3100 + int(rng.integers(N_SUBFIELDS))}},
                "authorships": [{"countries": [c]} for c in codes],
            }
        )
    return records, dangling


def _fmt(value: float) -> str:
    return repr(float(value))


def make_series(directory: Path, seed: int) -> dict:
    """``subfield_series.tsv`` on the 64-year grid from planted growth shapes.

    Each subfield follows one of four shapes for its consolidating and
    disruptive shares (early rise, late rise, hump, decline) with its own
    timing and binomial noise; totals grow exponentially from small early
    counts, so some early years have no works and are flagged.
    """
    rng = np.random.default_rng([seed, 3])
    years = np.arange(SERIES_YEARS[0], SERIES_YEARS[1] + 1)
    t = (years - years[0]) / (len(years) - 1)
    labels = np.sort(rng.choice(np.arange(1100, 3700), size=CLUSTER_SUBFIELDS, replace=False))

    def shape(kind: int, centre: float) -> np.ndarray:
        if kind == 0:
            return 1 / (1 + np.exp(-12 * (t - centre * 0.6)))
        if kind == 1:
            return 1 / (1 + np.exp(-12 * (t - 0.4 - centre * 0.5)))
        if kind == 2:
            return np.exp(-((t - centre) ** 2) / 0.03)
        return 1 - 1 / (1 + np.exp(-10 * (t - centre)))

    rows = []
    for label in labels:
        kind = int(rng.integers(4))
        centre = float(rng.uniform(0.2, 0.8))
        size = float(rng.uniform(5, 60))
        totals = rng.poisson(size * np.exp(3.0 * t) * 0.2)
        p_cn = 0.04 + 0.12 * shape(kind, centre)
        p_di = 0.02 + 0.08 * shape((kind + 1) % 4, centre)
        n_cn = rng.binomial(totals, p_cn)
        n_di = rng.binomial(totals - n_cn, p_di / (1 - p_cn))
        for y, tot, cn, di in zip(years, totals, n_cn, n_di):
            tot, cn, di = int(tot), int(cn), int(di)
            s_cn = cn / tot if tot else 0.0
            s_di = di / tot if tot else 0.0
            flag = "-" if tot else "zero_total"
            rows.append(
                f"{label}\t{y}\t{tot}\t{cn + di}\t{cn}\t{di}\t{_fmt(s_cn)}\t{_fmt(s_di)}\t{flag}\n"
            )
    (directory / "subfield_series.tsv").write_text(
        "subfield\tyear\tn_total\tn_bt\tn_cn\tn_di\tscaled_cn\tscaled_di\tflags\n"
        + "".join(rows),
        encoding="utf-8",
    )
    return {"subfields": CLUSTER_SUBFIELDS, "years": len(years)}


def proximity(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GENEPY proximity matrices (zero diagonal) of a pruned 0/1 matrix."""
    k = M.sum(axis=1)
    k_prime = (M / k[:, None]).sum(axis=0)
    A = M / (k[:, None] * k_prime[None, :])
    U, V = A @ A.T, A.T @ A
    np.fill_diagonal(U, 0.0)
    np.fill_diagonal(V, 0.0)
    return U, V


def make_panels(directory: Path, seed: int) -> dict:
    """Fourteen country x subfield count panels on a fixed 200 x 252 grid.

    ``seed`` is not used: the panels are the fixed draw ``PANEL_DRAW``.

    Row and column weights are Zipf-like over a shuffled order of labels, and
    the expected total grows 1.8x per decade, so early panels leave most
    rows and columns empty (pruned by the RCA filter) and late ones are
    dense.  Consolidating panels carry twice the counts of disruptive ones.
    """
    rng = np.random.default_rng([PANEL_DRAW, 4])
    countries = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(PANEL_COUNTRIES)]
    subfields = sorted(int(s) for s in rng.choice(np.arange(1100, 3700), size=PANEL_SUBFIELDS, replace=False))
    row_w = 1.0 / (1 + rng.permutation(PANEL_COUNTRIES)) ** 1.1
    col_w = 1.0 / (1 + rng.permutation(PANEL_SUBFIELDS)) ** 0.8
    base = np.outer(row_w / row_w.sum(), col_w / col_w.sum())
    names = []
    header = "country\t" + "\t".join(str(s) for s in subfields) + "\n"
    for d, (lo, hi) in enumerate(PANEL_WINDOWS):
        for kind, scale in (("CN", 2.0), ("DI", 1.0)):
            total = 300.0 * scale * 1.8**d
            counts = rng.poisson(total * base)
            name = f"{kind}_{lo}-{hi}.tsv"
            (directory / name).write_text(
                header
                + "".join(
                    c + "\t" + "\t".join(str(int(v)) for v in row) + "\n"
                    for c, row in zip(countries, counts)
                ),
                encoding="utf-8",
            )
            names.append(name)
    return {"panels": names}


MAKERS = {
    "pipeline-20k": make_pipeline,
    "ingest-80k": make_ingest,
    "cluster-paper": make_series,
    "rank-paper": make_panels,
}

"""Independent reference implementations used to check the real ones.

Everything here works from raw record dicts or plain arrays with simple
nested loops, deliberately sharing no code with the package internals.
"""

from __future__ import annotations

import json
import math
import string
from collections import defaultdict

import numpy as np


def citation_graph(records):
    """Plain-dict citation graph mirroring ingestion normalization."""
    year = {r["id"]: r["publication_year"] for r in records}
    refs = {}
    for r in records:
        cleaned = []
        for ref in dict.fromkeys(r.get("referenced_works", [])):
            if ref in year and ref != r["id"]:
                cleaned.append(ref)
        refs[r["id"]] = cleaned
    citers = defaultdict(list)
    for r in records:
        for ref in refs[r["id"]]:
            citers[ref].append(r["id"])
    return year, refs, citers


def naive_nbnc(
    records,
    work_id,
    horizon,
    semantics="multiset",
    convention="own_age",
    graph=None,
):
    """NBNC by direct enumeration of citers, bags, and yearly citations.

    ``graph`` is ``citation_graph(records)``, built once by a caller that
    scores every work of one corpus.
    """
    year, refs, citers = graph or citation_graph(records)
    y = year[work_id]

    def gamma(j, t):
        return sum(1 for c in citers[j] if year[c] == year[j] + t)

    terms = []
    for t in range(horizon + 1):
        citing_now = [c for c in citers[work_id] if year[c] == y + t]
        if not citing_now:
            terms.append(0.0)
            continue
        bag = []
        for c in citing_now:
            for ref in refs[c]:
                if ref != work_id:
                    bag.append(ref)
        if semantics == "set":
            bag = sorted(set(bag))
        if not bag:
            terms.append(0.0)
            continue
        denom = 0
        for j in bag:
            if convention == "own_age":
                denom += gamma(j, t)
            else:
                age = y + t - year[j]
                denom += gamma(j, age) if age >= 0 else 0
        terms.append(len(bag) * len(citing_now) / denom if denom else 0.0)
    return sum(terms), terms


def brute_cd(records, work_id, horizon):
    """CD by brute-force enumeration of citing works inside the window."""
    year, refs, citers = citation_graph(records)
    y = year[work_id]
    refs_f = set(refs[work_id])
    citers_f = set(citers[work_id])

    def in_window(w):
        return y <= year[w] <= y + horizon

    c_x = c_y = 0
    for w in citers[work_id]:
        if not in_window(w):
            continue
        if refs_f & set(refs[w]):
            c_y += 1
        else:
            c_x += 1
    c_refs = 0
    for r in sorted(refs_f):
        for w in citers[r]:
            if w == work_id or w in citers_f or not in_window(w):
                continue
            c_refs += 1
    denom = c_x + c_y + c_refs
    if denom == 0:
        return 0.0, (c_x, c_y, c_refs)
    return (c_x - c_y) / denom, (c_x, c_y, c_refs)


def citations_by_citer_year(corpus):
    """{(work index, citer's year): citations}, one citer of ``citers_idx``
    at a time; a pair that is absent has no citation."""
    counts = defaultdict(int)
    for work in range(corpus.n_works):
        for citer in corpus.citers_idx(work).tolist():
            counts[work, corpus.pub_year_of(citer)] += 1
    return counts


def exhaustive_dtw(pa, pb):
    """Minimum alignment cost over every monotone warping path."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)

    def cost(i, j):
        dx = pa[i, 0] - pb[j, 0]
        dy = pa[i, 1] - pb[j, 1]
        return math.hypot(dx, dy)

    return _min_path_cost(len(pa), len(pb), cost)


def exhaustive_dtw_per_component(pa, pb):
    """Each coordinate warped on its own over every monotone path, summed.

    The local cost on a coordinate is the absolute difference.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    total = 0.0
    for c in range(pa.shape[1]):
        xa, xb = pa[:, c].tolist(), pb[:, c].tolist()
        total += _min_path_cost(
            len(xa), len(xb), lambda i, j: abs(xa[i] - xb[j])
        )
    return total


def dp_dtw(pa, pb, per_component=False):
    """Textbook row-by-row DTW over the full (n + 1) x (m + 1) cost matrix.

    The local cost is ``math.hypot`` of the two coordinate differences; with
    ``per_component`` each coordinate is warped on its own with the absolute
    difference as local cost, and the two costs are summed.
    """
    pa = np.asarray(pa, dtype=float).tolist()
    pb = np.asarray(pb, dtype=float).tolist()
    if per_component:
        return sum(
            _dp_cost([p[c] for p in pa], [q[c] for q in pb], lambda x, y: abs(x - y))
            for c in range(2)
        )
    return _dp_cost(pa, pb, lambda p, q: math.hypot(p[0] - q[0], p[1] - q[1]))


def _dp_cost(xs, ys, cost):
    """D[i][j] = cost(xs[i-1], ys[j-1]) + min(D[i-1][j-1], D[i-1][j], D[i][j-1])."""
    previous = [0.0] + [math.inf] * len(ys)
    for x in xs:
        row = [math.inf]
        for j, y in enumerate(ys, start=1):
            row.append(cost(x, y) + min(previous[j - 1], previous[j], row[j - 1]))
        previous = row
    return previous[-1]


def _min_path_cost(n, m, cost):
    """Smallest summed ``cost(i, j)`` over monotone paths (0,0) → (n-1,m-1)."""
    best = math.inf
    stack = [(0, 0, cost(0, 0))]
    while stack:
        i, j, acc = stack.pop()
        if i == n - 1 and j == m - 1:
            if acc < best:
                best = acc
            continue
        if i + 1 < n and j + 1 < m:
            stack.append((i + 1, j + 1, acc + cost(i + 1, j + 1)))
        if i + 1 < n:
            stack.append((i + 1, j, acc + cost(i + 1, j)))
        if j + 1 < m:
            stack.append((i, j + 1, acc + cost(i, j + 1)))
    return best


def share_ratio_rca(X):
    """RCA as an explicit ratio of shares, cell by cell."""
    X = np.asarray(X, dtype=float)
    out = np.zeros_like(X)
    total = X.sum()
    for c in range(X.shape[0]):
        row_sum = X[c].sum()
        if row_sum == 0:
            continue
        for s in range(X.shape[1]):
            col_sum = X[:, s].sum()
            if col_sum > 0:
                out[c, s] = (X[c, s] / row_sum) / (col_sum / total)
    return out


def dense_genepy(M, count=2):
    """GENEPY scores via a full dense eigendecomposition (simple spectra)."""
    M = np.asarray(M, dtype=float)
    k = M.sum(axis=1)
    k_prime = (M / k[:, None]).sum(axis=0)
    A = M / (k[:, None] * k_prime[None, :])
    U = A @ A.T
    V = A.T @ A
    np.fill_diagonal(U, 0.0)
    np.fill_diagonal(V, 0.0)

    def side(S):
        values, vectors = np.linalg.eigh(S)
        values = values[::-1]
        vectors = vectors[:, ::-1]
        r = min(count, S.shape[0])
        weighted = np.zeros(S.shape[0])
        squared = np.zeros(S.shape[0])
        for i in range(r):
            comp2 = vectors[:, i] ** 2
            weighted += values[i] * comp2
            squared += values[i] ** 2 * comp2
        return values[:r], weighted**2 + 2 * squared

    return side(U), side(V)


def brute_ranking(labels, scores, pruned=()):
    """(label, rank, tie_rank, score, pruned) rows by the README's ranking
    rule, walked one entity at a time.

    Entities sort by descending score, then label.  Walking that order, a
    score joins the current group while it lies within 1e-9 * max(1, |s|)
    of the group's first score s; labels ascend within each group.  rank is
    the position and tie_rank the group's first position.  Pruned labels
    follow in label order with score 0.0 and tie rank n + 1.
    """
    walk = sorted(zip(labels, scores), key=lambda entity: (-entity[1], entity[0]))
    groups = []
    for label, score in walk:
        if groups and abs(score - groups[-1][0][1]) <= 1e-9 * max(1.0, abs(groups[-1][0][1])):
            groups[-1].append((label, score))
        else:
            groups.append([(label, score)])
    rows = []
    for group in groups:
        first = len(rows) + 1
        for label, score in sorted(group):
            rows.append((label, len(rows) + 1, first, score, False))
    trailing = len(rows) + 1
    for label in sorted(pruned):
        rows.append((label, len(rows) + 1, trailing, 0.0, True))
    return rows


def normal_equations_loglog(x, y):
    """Least-squares line on logs via the explicit 2x2 normal equations."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    n = len(lx)
    sx = lx.sum()
    sy = ly.sum()
    sxx = (lx * lx).sum()
    sxy = (lx * ly).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, math.exp(intercept)


def spearman_no_ties(a, b):
    """Closed-form Spearman 1 - 6 sum(d^2) / (n (n^2 - 1)); no ties allowed."""
    n = len(a)
    rank_a = {v: i + 1 for i, v in enumerate(sorted(a))}
    rank_b = {v: i + 1 for i, v in enumerate(sorted(b))}
    d2 = sum((rank_a[x] - rank_b[y]) ** 2 for x, y in zip(a, b))
    return 1 - 6 * d2 / (n * (n * n - 1))


def spearman_with_ties(a, b):
    """Pearson correlation of tie-averaged ranks, counted value by value.

    A value's rank is the number of smaller values plus half of (the number
    of equal values + 1).  Ranks are half-integers, so for short inputs every
    sum below is exact, and the result is the correctly rounded ratio.
    """
    n = len(a)

    def ranks(values):
        return [
            sum(y < x for y in values) + (sum(y == x for y in values) + 1) / 2
            for x in values
        ]

    mean = (n + 1) / 2
    da = [r - mean for r in ranks(a)]
    db = [r - mean for r in ranks(b)]
    cov = sum(x * y for x, y in zip(da, db))
    return cov / math.sqrt(sum(x * x for x in da) * sum(y * y for y in db))


def brute_modularity(W, membership, resolution=1.0):
    """Sum over node pairs of (W_ij - resolution k_i k_j / 2m) delta(c_i, c_j) / 2m."""
    W = np.asarray(W, dtype=float)
    n = len(membership)
    k = [sum(W[i, j] for j in range(n)) for i in range(n)]
    two_m = sum(k)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if membership[i] == membership[j]:
                total += W[i, j] - resolution * k[i] * k[j] / two_m
    return total / two_m


def node_move_gains(W, membership, resolution=1.0):
    """Modularity gain of each one-node move, in closed form: an (n, c + 1)
    array over the c communities of ``membership`` (in ascending label order)
    and, last, an empty one.

    Moving v from A to B adds 2 v's weight to B and removes 2 v's weight to
    A - v from the internal sums, and turns K_A, K_B into K_A - k_v,
    K_B + k_v.  On a zero-diagonal W that changes modularity by

        2 (w(v, B) - w(v, A - v)) / 2m - 2 gamma k_v (K_B - K_A + k_v) / (2m)^2

    with K_A counting v.  An empty B has w = K = 0.  Staying is a gain of 0.
    """
    W = np.asarray(W, dtype=float)
    n = len(W)
    _, community = np.unique(membership, return_inverse=True)
    indicator = np.eye(community.max() + 2)[community]  # the last column is empty
    k = W.sum(axis=1)
    two_m = k.sum()
    to = W @ indicator  # w(v, B)
    tot = k @ indicator  # K_B
    nodes = np.arange(n)
    own_to, own_tot = to[nodes, community], tot[community]
    gains = 2 * (to - own_to[:, None]) / two_m
    gains -= 2 * resolution * k[:, None] * (tot[None] - own_tot[:, None] + k[:, None]) / two_m**2
    gains[nodes, community] = 0.0
    return gains


def _labels(records):
    """Year, subfield (None if absent) and countries of each work id.

    Countries are flattened over authorships, upper-cased and deduplicated
    in first-seen order, as ingestion does for two-letter codes.
    """
    out = {}
    for r in records:
        subfield = (r.get("primary_topic") or {}).get("subfield", {}).get("id")
        codes = []
        for authorship in r.get("authorships", []):
            for code in authorship.get("countries", []):
                if code.upper() not in codes:
                    codes.append(code.upper())
        out[r["id"]] = (r["publication_year"], subfield, codes)
    return out


def brute_series(records, chosen, years):
    """Series counts by visiting every work; ``chosen`` maps work id -> CD.

    Returns three dicts without zero entries: totals[(subfield, year)] over
    all labeled works of a grid year, counts[(subfield, year, "CN"|"DI")]
    over chosen works (DI iff CD > 0), and unlabeled[year] for chosen works
    without a subfield.  Works of years off the grid count nowhere.
    """
    labels = _labels(records)
    totals = defaultdict(int)
    counts = defaultdict(int)
    unlabeled = defaultdict(int)
    for year, subfield, _ in labels.values():
        if subfield is not None and year in years:
            totals[(subfield, year)] += 1
    for wid, cd in chosen.items():
        year, subfield, _ = labels[wid]
        if year not in years:
            continue
        if subfield is None:
            unlabeled[year] += 1
        else:
            counts[(subfield, year, "DI" if cd > 0 else "CN")] += 1
    return dict(totals), dict(counts), dict(unlabeled)


def brute_panel(records, chosen, window, kind):
    """Full counting of chosen works of class ``kind`` published in ``window``.

    Returns (cells, unattributed, unlabeled): cells[(country, subfield)]
    without zero entries; a work without a subfield is unlabeled, else one
    without a country is unattributed.
    """
    labels = _labels(records)
    cells = defaultdict(int)
    unattributed = unlabeled = 0
    for wid, cd in chosen.items():
        year, subfield, codes = labels[wid]
        if ("DI" if cd > 0 else "CN") != kind or not window[0] <= year <= window[1]:
            continue
        if subfield is None:
            unlabeled += 1
        elif not codes:
            unattributed += 1
        else:
            for code in codes:
                cells[(code, subfield)] += 1
    return dict(cells), unattributed, unlabeled


def brute_country_counts(records, chosen, window, kind):
    """Full count per country of chosen works of ``kind`` in ``window``,
    with or without a subfield."""
    labels = _labels(records)
    counts = defaultdict(int)
    for wid, cd in chosen.items():
        year, _, codes = labels[wid]
        if ("DI" if cd > 0 else "CN") == kind and window[0] <= year <= window[1]:
            for code in codes:
                counts[code] += 1
    return dict(counts)


def _walk(value, parts):
    """Follow dotted-path ``parts`` through dicts; over a list, follow each
    element and flatten list results, dropping None entries."""
    for part in parts:
        if isinstance(value, dict):
            value = value.get(part)
        elif isinstance(value, list):
            flat = []
            for element in value:
                got = _walk(element, [part])
                if isinstance(got, list):
                    flat += [g for g in got if g is not None]
                elif got is not None:
                    flat.append(got)
            value = flat
        else:
            return None
    return value


def _whole_number(raw):
    """An int from an int or an integral float; bools are not numbers here."""
    if isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    return None


def _fits_int32(value):
    return value if value is not None and -(2**31) <= value <= 2**31 - 1 else None


def _oracle_year(raw):
    if isinstance(raw, str):
        try:
            return _fits_int32(int(raw.strip()))
        except ValueError:
            return None
    return _fits_int32(_whole_number(raw))


def _oracle_subfield(raw):
    """A subfield id is a non-negative int32; -1 is the column's missing mark."""
    if isinstance(raw, list):
        raw = raw[0] if raw else None
    if isinstance(raw, str):
        text = raw.strip()
        end = len(text)
        start = end
        while start > 0 and text[start - 1].isdecimal():
            start -= 1
        try:
            value = _fits_int32(int(text[start:end])) if start < end else None
        except ValueError:  # more digits than int() converts
            return None
    else:
        value = _fits_int32(_whole_number(raw))
    return None if value is None or value < 0 else value


def naive_ingest(records, schema, year_min=None, year_max=None):
    """The per-record ingest loop, written out record by record.

    Returns ``(ids, years, subfields, countries, references, citers,
    report)``: subfields use -1 for a missing label, countries are tuples of
    upper-case codes in first-seen order, ``references[i]`` and
    ``citers[i]`` are ascending work indexes, and ``report`` has the layout
    of ``IngestReport.as_dict()``.
    """
    paths = {
        name: getattr(schema, name).split(".")
        for name in ("work_id", "pub_year", "references", "subfield", "countries")
    }
    rejected = defaultdict(int)
    tally = defaultdict(int)
    seen = 0
    ids, years, subfields, countries, ref_ids = [], [], [], [], []
    position = {}
    for raw in records:
        seen += 1
        record = raw
        if isinstance(raw, (str, bytes)):
            try:
                record = json.loads(raw)
            # a JSONDecodeError, a bad UTF-8 byte, an integer too long for
            # int() and nesting too deep all make a line unreadable
            except (ValueError, RecursionError):
                rejected["parse_error"] += 1
                continue
        if not isinstance(record, dict):
            rejected["not_object"] += 1
            continue
        wid = _walk(record, paths["work_id"])
        if wid is None or (isinstance(wid, str) and wid.strip() == ""):
            rejected["missing_id"] += 1
            continue
        wid = str(wid)
        try:
            wid.encode("utf-8")
        except UnicodeEncodeError:
            rejected["invalid_id"] += 1
            continue
        if "\t" in wid or "\r" in wid or "\n" in wid:
            rejected["invalid_id"] += 1
            continue
        year_raw = _walk(record, paths["pub_year"])
        if year_raw is None:
            rejected["missing_year"] += 1
            continue
        year = _oracle_year(year_raw)
        if year is None:
            rejected["invalid_year"] += 1
            continue
        if (year_min is not None and year < year_min) or (
            year_max is not None and year > year_max
        ):
            rejected["year_out_of_range"] += 1
            continue
        if wid in position:
            rejected["duplicate_id"] += 1
            continue

        sub_raw = _walk(record, paths["subfield"])
        sub = _oracle_subfield(sub_raw)
        if sub is None and sub_raw is not None:
            tally["invalid_subfields"] += 1

        codes = []
        listed = _walk(record, paths["countries"])
        if listed is not None:
            for item in listed if isinstance(listed, list) else [listed]:
                if not (
                    isinstance(item, str)
                    and len(item) == 2
                    and all(ch in string.ascii_letters for ch in item)
                ):
                    tally["invalid_countries"] += 1
                elif item.upper() not in codes:
                    codes.append(item.upper())

        refs = []
        listed = _walk(record, paths["references"])
        if isinstance(listed, list):
            for ref in listed:
                if ref is None:
                    continue
                if str(ref) in refs:
                    tally["duplicate_refs"] += 1
                else:
                    refs.append(str(ref))

        position[wid] = len(ids)
        ids.append(wid)
        years.append(year)
        subfields.append(-1 if sub is None else sub)
        countries.append(tuple(codes))
        ref_ids.append(refs)

    references = []
    citers = [[] for _ in ids]
    for i, refs in enumerate(ref_ids):
        row = []
        for ref in refs:
            if ref not in position:
                tally["dangling_refs"] += 1
            elif position[ref] == i:
                tally["self_refs"] += 1
            else:
                j = position[ref]
                row.append(j)
                citers[j].append(i)
                tally["backward_edges"] += years[i] < years[j]
        references.append(sorted(row))
    report = {
        "records_seen": seen,
        "works_ingested": len(ids),
        "rejected": dict(sorted(rejected.items())),
        **{
            name: tally[name]
            for name in (
                "dangling_refs",
                "self_refs",
                "duplicate_refs",
                "backward_edges",
                "invalid_subfields",
                "invalid_countries",
            )
        },
    }
    return ids, years, subfields, countries, references, citers, report


def per_cell_matrix_text(corner, col_labels, row_labels, matrix):
    """A labelled matrix table as text, formatting one cell at a time:
    ``repr`` of each float, ``str`` of each integer."""
    lines = ["\t".join([corner, *(str(c) for c in col_labels)])]
    for label, row in zip(row_labels, np.asarray(matrix).tolist()):
        cells = [repr(v) if isinstance(v, float) else str(v) for v in row]
        lines.append("\t".join([str(label), *cells]))
    return "".join(line + "\n" for line in lines)


def per_cell_table_text(header, columns):
    """A table of row-aligned columns as text, formatting one cell at a
    time: ``repr`` of each float, ``true``/``false`` of each bool, ``str``
    of each integer, and strings as given."""

    def cell(value):
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, bool):
            return "true" if value else "false"
        return value if isinstance(value, str) else str(value)

    values = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns)
    lines = ["\t".join(header), *("\t".join(map(cell, row)) for row in zip(*values))]
    return "".join(line + "\n" for line in lines)

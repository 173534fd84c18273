"""Mutants that the tests must kill: a measure of the tests, not of the code.

Each entry names a source file under ``src/``, an exact snippet of it, the
snippet's replacement and the tests to run.  For each entry the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the replacement there and runs the tests in a subprocess.  The
mutant is killed when pytest reports a failing test; it survives when they
all pass.  Any other outcome is an error: a snippet that no longer occurs
exactly once in its file (so the list cannot rot silently), a pytest run
that does not get as far as running the tests, or one that runs longer than
``TIMEOUT`` seconds (a mutant can make a loop endless).  Before the
mutants, the union of their tests must pass on the unmutated copy.

Usage, from the repository root (stdlib only; the tests need numpy, pytest
and hypothesis)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list

It exits 0 only when every mutant it ran was killed.  A surviving mutant is
a gap in the tests: kill it with a test; never drop it from the list to
make the run pass.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_KERNEL_TESTS = (
    "tests/test_acceptance.py::test_c01_nbnc_oracle_equivalence",
    "tests/test_acceptance.py::test_c02_cd_oracle_equivalence_and_bounds",
    "tests/test_impact.py",
)
_COUNT_TESTS = (
    "tests/test_corpus.py::TestCitationCountsAgainstOracle",
    "tests/test_corpus.py::TestYearlyCitationSeries",
)
_INTERNER_TESTS = (
    "tests/test_corpus.py::TestIngestion::test_reference_list_with_entries_that_are_not_str",
    "tests/test_corpus.py::TestAgainstNaiveIngest",
)
_RANKING_ORACLE = "tests/test_complexity.py::TestRankingOracle"
_REFINE_TESTS = (
    "tests/test_clustering.py::TestLeidenCore::test_refine_matches_brute_refine",
    "tests/test_clustering.py::TestLeidenCore::test_paper_shape_partitions_match_brute_refine",
)
_RUN_TABLE_TESTS = (
    "tests/test_pipeline.py::TestRunTables",
    "tests/test_pipeline.py::TestMatrixTables",
)

MUTANTS = (
    # NBNC: the focal work itself enters its co-cited bag
    Mutant(
        "nbnc-bag-keeps-focal",
        "src/scibreak/impact.py",
        "bagged = member != works[owner[edge]]",
        "bagged = np.ones(len(member), dtype=bool)",
        _KERNEL_TESTS,
    ),
    # NBNC focal_calendar: a co-cited work counts citations before it exists
    Mutant(
        "nbnc-gamma-before-publication",
        "src/scibreak/impact.py",
        "    gamma[calendar < member_year] = 0  # focal_calendar before j's publication\n",
        "",
        _KERNEL_TESTS,
    ),
    # CD: citers' citations of the focal work's references stay in C_refs
    Mutant(
        "cd-refs-keep-citer-couplings",
        "src/scibreak/impact.py",
        "        - np.bincount(owner[shared], minlength=n)\n",
        "",
        _KERNEL_TESTS,
    ),
    # CD: the focal work's own citations of its references stay in C_refs
    Mutant(
        "cd-refs-keep-focal-citations",
        "src/scibreak/impact.py",
        "- np.bincount(ref_owner, minlength=n)",
        "- 0",
        _KERNEL_TESTS,
    ),
    # both kernels: the window loses its last year
    Mutant(
        "window-drops-last-year",
        "src/scibreak/impact.py",
        "(offset <= horizon)",
        "(offset < horizon)",
        _KERNEL_TESTS,
    ),
    # both kernels: citers dated before the focal work count
    Mutant(
        "window-keeps-earlier-citers",
        "src/scibreak/impact.py",
        "keep = (offset >= 0) & (offset <= horizon)",
        "keep = offset <= horizon",
        _KERNEL_TESTS,
    ),
    # NBNC focal_calendar: the count ring fills at most horizon + 1 years past
    # its last fill, so after a longer gap rows keep older years' counts
    Mutant(
        "focal-ring-keeps-stale-rows",
        "src/scibreak/impact.py",
        "range(max(filled + 1, year), year + horizon + 1)",
        "range(max(filled + 1, year), min(year, filled + 1) + horizon + 1)",
        _KERNEL_TESTS,
    ),
    # both kernels: the window has no end; killed by the metamorphic relation
    # alone, since works dated after every window then cite into one
    Mutant(
        "window-has-no-end",
        "src/scibreak/impact.py",
        "keep = (offset >= 0) & (offset <= horizon)",
        "keep = offset >= 0",
        ("tests/test_metamorphic.py::test_works_after_every_window_change_no_score",),
    ),
    # the class rule: a zero CD is disruptive
    Mutant(
        "class-zero-is-disruptive",
        "src/scibreak/impact.py",
        "(np.asarray(cd) > 0)",
        "(np.asarray(cd) >= 0)",
        ("tests/test_impact.py::TestClassify", "tests/test_impact.py::TestCdFixtures"),
    ),
    # breakthrough tables: the class column swaps its two labels
    Mutant(
        "breakthrough-class-column-swapped",
        "src/scibreak/pipeline.py",
        "            BreakthroughClass.DISRUPTIVE.value,\n"
        "            BreakthroughClass.CONSOLIDATING.value,\n",
        "            BreakthroughClass.CONSOLIDATING.value,\n"
        "            BreakthroughClass.DISRUPTIVE.value,\n",
        ("tests/test_pipeline.py::TestPipelineRun::test_artifact_round_trips",),
    ),
    # run tables: each cell takes the text of the next distinct value
    Mutant(
        "cell-text-searchsorted-right",
        "src/scibreak/pipeline.py",
        "text[np.searchsorted(distinct, keys)]",
        'text[np.searchsorted(distinct, keys, side="right")]',
        _RUN_TABLE_TESTS,
    ),
    # run tables: floats keyed by value, so -0.0 and 0.0 share one text
    Mutant(
        "cell-text-floats-keyed-by-value",
        "src/scibreak/pipeline.py",
        "keys = values.astype(np.float64, copy=False).view(np.uint64) if kind",
        "keys = values.astype(np.float64, copy=False) if kind",
        _RUN_TABLE_TESTS,
    ),
    # eigen tie classes measured from the previous value, so a chain of
    # near ties joins one class
    Mutant(
        "tie-classes-chain",
        "src/scibreak/complexity.py",
        "abs(values[i] - values[start])",
        "abs(values[i] - values[i - 1])",
        (
            "tests/test_eigen.py::TestStructuredSpectra"
            "::test_near_tie_chain_cut_at_the_class_of_the_last_pair",
        ),
    ),
    # eigen input: every matrix skips the symmetry check and the average
    Mutant(
        "symmetry-always-exact",
        "src/scibreak/complexity.py",
        "if not (np.array_equal(bits, bits.T) and np.abs(S).max(initial=0.0) <= _HALF_MAX):",
        "if False:",
        ("tests/test_eigen.py::TestValidation::test_asymmetric_rejected",),
    ),
    # score tie groups measured from the previous score, so a chain of near
    # ties joins one group
    Mutant(
        "rank-ties-chain",
        "src/scibreak/complexity.py",
        "            first, start = score, position\n",
        "            start = position\n        first = score\n",
        (
            "tests/test_complexity.py::TestRankTable"
            "::test_score_ties_measured_from_the_first_member_of_a_class",
            _RANKING_ORACLE,
        ),
    ),
    # a score tie group ordered by matrix index instead of label
    Mutant(
        "rank-ties-by-matrix-index",
        "src/scibreak/complexity.py",
        "order[np.lexsort((label_rank[order], tie_rank))]",
        "order[np.lexsort((order, tie_rank))]",
        ("tests/test_complexity.py::TestGenepy::test_complete_bipartite_all_tied", _RANKING_ORACLE),
    ),
    # pruned entities share tie rank n, the last retained position
    Mutant(
        "pruned-tie-rank-n",
        "src/scibreak/complexity.py",
        "np.full(m, n + 1)",
        "np.full(m, n)",
        ("tests/test_complexity.py::TestGenepy::test_pruned_entities_appended_with_trailing_tie",),
    ),
    # the analyses rank tied countries by their codes again
    Mutant(
        "analyses-positional-ranks",
        "src/scibreak/pipeline.py",
        "countries.tie_rank.astype(float).tolist()",
        "np.arange(1.0, len(labels) + 1).tolist()",
        ("tests/test_metamorphic.py::test_mirrored_country_codes_permute_panels_and_rankings",),
    ),
    # panels: a repeated country or subfield id is read as two
    Mutant(
        "panel-repeats-read",
        "src/scibreak/pipeline.py",
        "    return next((i for i, label in enumerate(labels)"
        " if first.setdefault(label, i) != i), None)\n",
        "    return None\n",
        ("tests/test_pipeline.py::TestMatrixTables::test_repeated_label_names_file_and_line",),
    ),
    # Spearman: tied values share their lowest position, not the average
    Mutant(
        "average-ranks-min-rank",
        "src/scibreak/analysis.py",
        "(np.cumsum(counts) - (counts - 1) / 2)[inverse]",
        "(np.cumsum(counts) - (counts - 1))[inverse]",
        ("tests/test_analysis.py::TestSpearman",),
    ),
    # modularity doubled
    Mutant(
        "modularity-scaled",
        "src/scibreak/clustering.py",
        "return float(np.sum(internal / two_m - resolution * (tot / two_m) ** 2))",
        "return float(2 * np.sum(internal / two_m - resolution * (tot / two_m) ** 2))",
        ("tests/test_clustering.py::TestLeidenCore::test_modularity_matches_its_definition",),
    ),
    # Leiden local moving: a move queues none of the node's neighbours
    Mutant(
        "local-move-no-requeue",
        "src/scibreak/clustering.py",
        "requeue = (row > 0) & (membership != best_c) & ~queued  # never v",
        "requeue = np.zeros(n, dtype=bool)",
        ("tests/test_clustering.py::TestLeidenCore::test_pinned_partitions",),
    ),
    # Leiden local moving: no node ever strikes out alone
    Mutant(
        "leiden-no-strike-out",
        "src/scibreak/clustering.py",
        "if comm_size[c_v] > 1 and 0.0 > best_score + _EPS:",
        "if False:",
        ("tests/test_clustering.py::TestLeidenCore::test_pinned_partitions",),
    ),
    # Leiden refinement: badly connected nodes are refined too
    Mutant(
        "leiden-no-node-connectedness-skip",
        "src/scibreak/clustering.py",
        "if within[i] + _EPS < resolution * k_v * (s_tot - k_v) / two_m:",
        "if False:",
        ("tests/test_clustering.py::TestLeidenCore::test_pinned_partitions",),
    ),
    # Leiden refinement: badly connected subcommunities are merge targets too
    Mutant(
        "leiden-no-subcommunity-connectedness-skip",
        "src/scibreak/clustering.py",
        "gains[cut + _EPS < resolution * ref_tot * (s_tot - ref_tot) / two_m] = -np.inf",
        "pass",
        ("tests/test_clustering.py::TestLeidenCore::test_pinned_partitions",),
    ),
    # Leiden refinement: a join counts w(v, S) once against the running cut
    Mutant(
        "leiden-cut-update-drops-factor-2",
        "src/scibreak/clustering.py",
        "cut[best] += within[i] - 2 * to[best]",
        "cut[best] += within[i] - to[best]",
        _REFINE_TESTS,
    ),
    # Leiden refinement: a node may pick its own subcommunity as the target
    Mutant(
        "leiden-refine-candidates-include-v",
        "src/scibreak/clustering.py",
        "            gains[i] = -np.inf\n",
        "",
        _REFINE_TESTS,
    ),
    # Leiden refinement: a founder that others joined still counts as alone
    Mutant(
        "leiden-refine-singleton-ignores-size",
        "src/scibreak/clustering.py",
        "if size[i] != 1:",
        "if label[i] != i:",
        _REFINE_TESTS,
    ),
    # clusters of equal size numbered by their largest label, not their smallest
    Mutant(
        "cluster-ties-by-largest-label",
        "src/scibreak/clustering.py",
        "    _, first = np.unique(membership, return_index=True)  # smallest member's position\n",
        "    _, first = np.unique(membership[::-1], return_index=True)\n    first = -first\n",
        ("tests/test_clustering.py::TestLeidenCore::test_pinned_partitions",),
    ),
    # singletons numbered as clusters
    Mutant(
        "singletons-numbered",
        "src/scibreak/clustering.py",
        "np.where(sizes > 1, ids, 0)",
        "np.where(sizes > 0, ids, 0)",
        (
            "tests/test_clustering.py::TestLeidenClusters::test_singleton_flagging",
            "tests/test_clustering.py::TestLeidenCore::test_pinned_partitions",
        ),
    ),
    # DTW: the kernel's copy of one-point inputs is a view, so the scaling
    # rewrites the caller's points
    Mutant(
        "dtw-input-view",
        "src/scibreak/clustering.py",
        'a = np.array(a.transpose(2, 1, 0), order="C")',
        "a = np.ascontiguousarray(a.transpose(2, 1, 0))",
        ("tests/test_clustering.py::TestDistanceMatrix::test_inputs_are_never_changed",),
    ),
    # selection: an NBNC tie at the cut goes by corpus index, not work id
    Mutant(
        "selection-ties-by-corpus-index",
        "src/scibreak/panel.py",
        "np.lexsort((corpus.id_rank[scored.works], -scored.nbnc, years))",
        "np.lexsort((scored.works, -scored.nbnc, years))",
        ("tests/test_panel.py::TestSelection::test_tie_at_cut_prefers_smaller_id",),
    ),
    # work-id order from a numpy string array, which drops trailing NULs
    Mutant(
        "id-rank-numpy-strings",
        "src/scibreak/corpus.py",
        "rank = np.argsort(sorted(range(len(self._ids)), key=self._ids.__getitem__))",
        'rank = np.argsort(np.argsort(np.array(self._ids), kind="stable"))',
        ("tests/test_corpus.py::TestLazyLookups::test_id_rank_follows_python_str_order",),
    ),
    # DTW: each full kernel batch leaves its last pair unset
    Mutant(
        "dtw-batch-drops-last-pair",
        "src/scibreak/clustering.py",
        "batch = slice(start, start + _BATCH)",
        "batch = slice(start, start + _BATCH - 1)",
        ("tests/test_clustering.py::TestDistanceMatrix::test_every_pair_matches_full_dp",),
    ),
    # ingest: a country repeated within a work is kept twice
    Mutant(
        "country-csr-keeps-repeats",
        "src/scibreak/corpus.py",
        "kept = np.sort(np.unique(owner * len(codes) + keys, return_index=True)[1])",
        "kept = np.arange(len(keys))",
        ("tests/test_corpus.py::TestAgainstNaiveIngest",),
    ),
    # citation counts by age: the table loses its last age
    Mutant(
        "age-table-drops-last-age",
        "src/scibreak/corpus.py",
        "(age <= horizon)",
        "(age < horizon)",
        _COUNT_TESTS,
    ),
    # citation counts in a window of citer years: the window loses its last year
    Mutant(
        "count-window-drops-last-year",
        "src/scibreak/corpus.py",
        'return lo, max(int(np.searchsorted(years, last, "right")), lo)',
        'return lo, max(int(np.searchsorted(years, last - 1, "right")), lo)',
        _COUNT_TESTS,
    ),
    # ingest: the reference interner keys a non-str entry as itself
    Mutant(
        "interner-admits-any-key",
        "src/scibreak/corpus.py",
        "        if type(key) is not str:\n",
        "        if False:\n",
        _INTERNER_TESTS,
    ),
    # ingest: a list that leaves the one-lookup path keeps the keys it added
    Mutant(
        "interner-fallback-keeps-partial-keys",
        "src/scibreak/corpus.py",
        "                del ref_keys[before:]\n",
        "",
        _INTERNER_TESTS,
    ),
    # ingest: the country table reads an entry that is not a str, such as
    # b"US", as a code
    Mutant(
        "country-table-admits-non-str",
        "src/scibreak/corpus.py",
        "if isinstance(item, str) and len(item) == 2 and item.isascii() and item.isalpha():",
        "if len(item) == 2 and item.isascii() and item.isalpha():",
        (
            "tests/test_corpus.py::TestIngestion"
            "::test_country_entries_that_are_not_str_are_invalid",
        ),
    ),
    # ingest: an invalid country entry (key -1) is kept as the last code
    Mutant(
        "country-invalid-key-kept",
        "src/scibreak/corpus.py",
        "valid = keys >= 0",
        "valid = keys >= -1",
        (
            "tests/test_corpus.py::TestIngestion::test_openalex_shapes",
            "tests/test_corpus.py::TestAgainstNaiveIngest",
        ),
    ),
    # ingest: the duplicate check misses the id of the first work
    Mutant(
        "duplicate-check-misses-first-work",
        "src/scibreak/corpus.py",
        "if work_of[key] >= 0:",
        "if work_of[key] > 0:",
        (
            "tests/test_corpus.py::TestIngestion::test_rejection_reasons",
            "tests/test_corpus.py::TestAgainstNaiveIngest",
        ),
    ),
    # ingest: the exact-int year path admits a year one past int32
    Mutant(
        "year-fast-path-past-int32",
        "src/scibreak/corpus.py",
        "not -2147483648 <= year <= 2147483647",
        "not -2147483648 <= year <= 2147483648",
        ("tests/test_corpus.py::TestIngestion::test_values_beyond_int32_are_counted_not_fatal",),
    ),
    # ingest: an ASCII id skips the bad-character search even with a tab in it
    Mutant(
        "ascii-id-skips-bad-char-search",
        "src/scibreak/corpus.py",
        "not (wid.isascii() and wid.isprintable())",
        "not wid.isascii()",
        ("tests/test_corpus.py::TestIngestion::test_ids_the_tables_cannot_hold_are_rejected",),
    ),
    # ingest: of several input files only the first is read
    Mutant(
        "ingest-reads-first-file-only",
        "src/scibreak/corpus.py",
        "        for path in paths:\n            yield from iter_json_lines(path)\n",
        "        yield from iter_json_lines(paths[0])\n",
        (
            "tests/test_metamorphic.py"
            "::test_input_split_into_a_plain_and_a_gzip_part_changes_no_byte",
        ),
    ),
    # ingest: a line that is not UTF-8 goes to the parser
    Mutant(
        "undecodable-line-parsed",
        "src/scibreak/corpus.py",
        "if not line.isascii() and _UNDECODED.search(line):",
        "if False:",
        ("tests/test_corpus.py::TestIngestion::test_line_that_is_not_utf8_is_a_parse_error",),
    ),
    # rank: a panel whose RCA reaches the threshold nowhere is ranked
    Mutant(
        "rank-below-threshold-ranked",
        "src/scibreak/pipeline.py",
        "        if adjacency.matrix.size == 0:\n",
        "        if False:\n",
        (
            "tests/test_pipeline.py::TestCliStages"
            "::test_rank_skips_a_panel_below_the_rca_threshold_everywhere",
            "tests/test_pipeline.py::TestPipelineRun"
            "::test_rca_threshold_reached_nowhere_skips_the_panel",
        ),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _stale(mutant: Mutant) -> str | None:
    """Why ``mutant`` cannot be applied to the source, or None if it can."""
    found = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)
    if found == 1:
        return None
    return f"{mutant.name}: snippet occurs {found} times in {mutant.path}, not once"


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    source = path.read_text(encoding="utf-8")
    path.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def _run(mutant: Mutant | None, tests) -> subprocess.CompletedProcess:
    """pytest on a fresh copy of the tree, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="scibreak-mutant-") as scratch:
        tree = Path(scratch)
        _copy_tree(tree)
        if mutant is not None:
            _apply(tree, mutant)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            return subprocess.run(
                command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return subprocess.CompletedProcess(command, -1, "", f"timed out after {TIMEOUT} s")


def _tail(result: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((result.stdout + result.stderr).splitlines()[-lines:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if len(by_name) != len(MUTANTS):
        print("error: two mutants share a name", file=sys.stderr)
        return 2
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}\t{m.path}\t{' '.join(m.tests)}")
        return 0
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        print(f"error: no such mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)

    # every snippet first, so a stale entry fails before minutes of runs
    stale = [reason for reason in map(_stale, chosen) if reason]
    if stale:
        print("error: stale mutants\n" + "\n".join(stale), file=sys.stderr)
        return 2

    union = list(dict.fromkeys(t for m in chosen for t in m.tests))
    baseline = _run(None, union)
    if baseline.returncode != 0:
        print(f"error: the mutants' tests fail unmutated\n{_tail(baseline)}", file=sys.stderr)
        return 2

    outcomes = {"killed": 0, "SURVIVED": 0, "ERROR": 0}
    for m in chosen:
        started = time.monotonic()
        result = _run(m, m.tests)
        # pytest exits 1 when a test failed, 0 when all passed, and 2-5 when
        # it was interrupted, hit an internal or usage error, or ran nothing
        outcome = {0: "SURVIVED", 1: "killed"}.get(result.returncode, "ERROR")
        outcomes[outcome] += 1
        print(f"{outcome:8s} {m.name} ({time.monotonic() - started:.1f} s)", flush=True)
        if outcome != "killed":
            print(_tail(result), flush=True)
    print(
        f"{outcomes['killed']} of {len(chosen)} mutants killed, "
        f"{outcomes['SURVIVED']} survived, {outcomes['ERROR']} errors"
    )
    return 0 if outcomes["killed"] == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())

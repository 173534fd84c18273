"""Mutants that the tests must kill: a measure of the tests, not of the code.

Each entry names a source file under ``src/``, an exact snippet of it, the
snippet's replacement and the tests to run.  For each entry the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the replacement there and runs the tests in a subprocess.  The
mutant is killed when pytest reports a failing test; it survives when they
all pass.  Any other outcome is an error: a snippet that no longer occurs
exactly once in its file (so the list cannot rot silently), or a pytest run
that does not get as far as running the tests.  Before the mutants, the
union of their tests must pass on the unmutated copy.

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
        return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


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

"""The byte contract across commits: committed golden digests of three runs.

``golden/inputs`` holds the inputs of three small runs:

- ``run_pipeline`` on a seeded 2,000-work ``synthetic_records`` corpus
  (gzipped JSON lines) with comparator, R&D and GDP indicator files, so
  that every stage writes, ``analyses`` included;
- ``scibreak cluster`` on a series table with three planted growth shapes;
- ``scibreak rank`` on three country x subfield panels.

``golden/digests.json`` records the sha256 of every output file of those
runs, and the platform they were made on: the numpy version,
``platform.machine()``, the OpenBLAS core that numpy's BLAS runs and the
SIMD features that numpy dispatches to.
``golden/texts.json.gz`` keeps the text of each output file that holds a
float, and of the manifest.  The manifest is compared with its stage
``seconds`` removed, since those are timings.

On the recorded platform every digest must match.  Elsewhere ``np.exp``
and LAPACK may differ in the last bits, so a file that holds a float is
compared by parsed value within ``FLOAT_BOUND``; every other file is still
compared by digest, and the manifest without the digests of the float
files.

The inputs are committed, so a numpy whose Generator streams differ cannot
change them; :func:`write_inputs` shows how they were drawn.  A change that
alters output bytes on purpose regenerates the golden with
``PYTHONPATH=src python tests/test_golden.py`` in its own commit, and names
each changed file in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

from scibreak.cli import main as cli_main
from scibreak.config import PipelineConfig
from scibreak.pipeline import run_pipeline
from scibreak.synth import synthetic_records, write_jsonl

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
PANELS = ("CN_2000-2009.tsv", "DI_2000-2009.tsv", "DI_2010-2019.tsv")

# the one bound for float cells off the recorded platform:
# |expected - actual| <= FLOAT_BOUND * max(1, |expected|, |actual|)
FLOAT_BOUND = 1e-9

# a number standing alone in file text; one with a point, an exponent, inf
# or nan is a float, the others are integers and must match as text
_NUMBER = re.compile(r"(?<![\w.])(-?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf)|nan)(?![\w.])")


# the OpenBLAS core-name function under the names that numpy's builds export
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def _blas_core() -> str:
    """The OpenBLAS core that numpy's bundled BLAS runs, "" if none is found."""
    here = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(here, pattern))):
            library = ctypes.CDLL(path)
            for symbol in _CORENAME_SYMBOLS:
                corename = getattr(library, symbol, None)
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    return corename().decode("ascii")
    return ""


def _simd() -> str:
    """The SIMD features numpy dispatches to on this host, space-separated."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


def _platform() -> dict[str, str]:
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_core": _blas_core(),
        "simd": _simd(),
    }


def _run_all(out: Path) -> dict[str, bytes]:
    """Run the three golden runs into ``out``; the bytes of every output file.

    Input paths are relative to ``INPUTS``, so the pipeline's config hash
    does not depend on where the repository lies.  Names are prefixed by
    run: ``pipeline/``, ``cluster/`` and ``rank/``.
    """
    here = os.getcwd()
    os.chdir(INPUTS)
    try:
        config = PipelineConfig(
            corpus_path="corpus.jsonl.gz",
            out_root=str(out / "pipeline"),
            analysis_start=1965,
            analysis_end=2004,
            leiden_seed=11,
            comparator_rank_path="comparator.tsv",
            rd_share_path="rd.tsv",
            gdp_path="gdp.tsv",
            gerd_window=(1995, 2004),
        )
        run_dir = out / "pipeline" / run_pipeline(config)["config_hash"]
        cluster = ["cluster", "--series", "series.tsv", "--out-dir", str(out / "cluster")]
        rank = ["rank", "--panel", *PANELS, "--out-dir", str(out / "rank")]
        if cli_main([*cluster, "--seed", "5"]) or cli_main(rank):
            raise AssertionError("a golden CLI run did not exit 0")
    finally:
        os.chdir(here)
    files = {}
    for run, root in (("pipeline", run_dir), ("cluster", out / "cluster"), ("rank", out / "rank")):
        for path in sorted(root.rglob("*")):
            if path.is_file():
                files[f"{run}/{path.relative_to(root).as_posix()}"] = path.read_bytes()
    manifest = json.loads(files["pipeline/manifest.json"])
    for stage in manifest["stages"]:
        del stage["seconds"]
    files["pipeline/manifest.json"] = _dump(manifest).encode("utf-8")
    return files


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _is_float(number: str) -> bool:
    return not number.lstrip("-").isdigit()


def _floats_close(expected: str, actual: str) -> bool:
    """Equal text between the numbers, equal integers, floats within the bound."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return False
    for i, (a, b) in enumerate(zip(want, got)):
        if a == b:
            continue
        if i % 2 == 0 or not (_is_float(a) and _is_float(b)):
            return False
        x, y = float(a), float(b)
        if not abs(x - y) <= FLOAT_BOUND * max(1.0, abs(x), abs(y)):
            return False
    return True


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_outputs(tmp_path):
    golden = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    texts = json.loads(gzip.decompress((GOLDEN / "texts.json.gz").read_bytes()))
    files = _run_all(tmp_path)
    exact = golden["platform"] == _platform()
    expected = golden["digests"]
    problems = [f"missing: {name}" for name in sorted(set(expected) - set(files))]
    problems += [f"unexpected: {name}" for name in sorted(set(files) - set(expected))]
    for name in sorted(set(expected) & set(files)):
        if _digest(files[name]) == expected[name]:
            continue
        actual = files[name].decode("utf-8", errors="replace")
        if exact or name not in texts:
            problems.append(f"digest differs: {name}")
        elif name == "pipeline/manifest.json":
            want, got = json.loads(texts[name]), json.loads(actual)
            for manifest in (want, got):
                for output in texts:
                    manifest["outputs"].pop(output.removeprefix("pipeline/"), None)
            if want != got:
                problems.append(f"differs beyond float-file digests: {name}")
        elif not _floats_close(texts[name], actual):
            problems.append(f"float values differ beyond {FLOAT_BOUND}: {name}")
    assert not problems, (
        f"{len(problems)} of {len(expected)} golden outputs differ "
        f"(golden made on {golden['platform']}, here {_platform()}):\n" + "\n".join(problems)
    )


def write_golden(scratch: Path) -> None:
    """Record the digests and float-file texts of the current outputs."""
    files = _run_all(scratch)
    digests = {name: _digest(data) for name, data in files.items()}
    (GOLDEN / "digests.json").write_text(
        _dump({"platform": _platform(), "digests": digests}), encoding="utf-8"
    )
    texts = {
        name: data.decode("utf-8")
        for name, data in files.items()
        if name == "pipeline/manifest.json"
        or (not name.endswith(".snap") and any(map(_is_float, _NUMBER.findall(data.decode("utf-8")))))
    }
    payload = json.dumps(texts, indent=0, sort_keys=True).encode("utf-8")
    (GOLDEN / "texts.json.gz").write_bytes(gzip.compress(payload, mtime=0))


def write_inputs() -> None:
    """Draw the golden inputs (``--inputs``); the committed files are one draw."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    write_jsonl(synthetic_records(2000, seed=17), INPUTS / "corpus.jsonl.gz", compress=True)
    codes = [f"{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(40)]
    indicators = {
        "comparator.tsv": ((c, p, (7 * i + p) % 40 + 1) for p in (2000, 2005) for i, c in enumerate(codes)),
        "rd.tsv": ((c, y, 1.0 + 0.05 * i) for i, c in enumerate(codes) for y in range(1995, 2005)),
        "gdp.tsv": ((c, y, 50.0 * (i + 1)) for i, c in enumerate(codes) for y in range(1995, 2005)),
    }
    for name, rows in indicators.items():
        lines = ["country\tperiod\tvalue", *("\t".join(map(str, row)) for row in rows)]
        (INPUTS / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    rng = np.random.default_rng(5)
    years = np.arange(1980, 2010)
    t = (years - years[0]) / (len(years) - 1)
    shapes = (  # (consolidating, disruptive) share: early rise, late rise, hump
        lambda c: (0.6 / (1 + np.exp(-12 * (t - c))), 0.1 + 0 * t),
        lambda c: (0.1 + 0 * t, 0.6 / (1 + np.exp(-12 * (t - c - 0.3)))),
        lambda c: (0.5 * np.exp(-((t - c) ** 2) / 0.02), 0.3 * np.exp(-((t - c) ** 2) / 0.02)),
    )
    lines = ["subfield\tyear\tn_total\tn_bt\tn_cn\tn_di\tscaled_cn\tscaled_di\tflags"]
    for k, subfield in enumerate(range(3101, 3113)):
        cn, di = shapes[k % 3](float(rng.uniform(0.3, 0.5)))
        total = np.round(20 * np.exp(2 * t)).astype(int)
        n_cn, n_di = rng.binomial(total, cn).tolist(), rng.binomial(total, di).tolist()
        for year, n, c, d in zip(years.tolist(), total.tolist(), n_cn, n_di):
            cells = (subfield, year, n, c + d, c, d, c / n, d / n, "-")
            lines.append("\t".join(map(str, cells)))
    (INPUTS / "series.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    countries = [codes[i] for i in range(12)]
    subfields = list(range(3101, 3116))
    capability = np.linspace(1.0, 0.1, len(countries))
    ease = np.linspace(1.0, 0.2, len(subfields))
    for name in PANELS:
        counts = rng.poisson(8 * np.outer(capability, ease) ** 1.5)
        counts[-1] = 0  # a country with no breakthrough, pruned by the ranking
        header = "\t".join(["country", *map(str, subfields)])
        rows = ("\t".join([c, *map(str, row)]) for c, row in zip(countries, counts.tolist()))
        (INPUTS / name).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    if "--inputs" in sys.argv[1:]:
        write_inputs()
    with tempfile.TemporaryDirectory() as scratch:
        write_golden(Path(scratch))
    print(f"wrote {GOLDEN / 'digests.json'} and {GOLDEN / 'texts.json.gz'}", file=sys.stderr)

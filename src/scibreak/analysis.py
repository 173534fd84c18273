"""Comparison statistics: rank correlation, power-law fits, indicators.

These operate on plain mappings and delimited text files so rankings
produced by the pipeline can be compared against external country
indicators (h-index style rankings, research expenditure, GDP).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np


class InsufficientDataError(ValueError):
    """Too few common entities to compute a statistic."""


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    residual: float  # sum of squared log-residuals


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ascending ranks, ties receiving the average of their positions.

    A group of c equal values ending at position e (1-based) shares rank
    e - (c - 1) / 2, a half-integer, so the ranks are exact.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(
    rank_a: Mapping[str, float], rank_b: Mapping[str, float]
) -> float:
    """Spearman rank correlation over the intersection of keys.

    Values are re-ranked on the common set with average ranks for ties, then
    Pearson-correlated.  Fewer than 3 common keys, or a constant side, is an
    InsufficientDataError.
    """
    common = sorted(set(rank_a) & set(rank_b))
    if len(common) < 3:
        raise InsufficientDataError(
            f"need >= 3 common entities, got {len(common)}"
        )
    ra = _average_ranks([float(rank_a[k]) for k in common])
    rb = _average_ranks([float(rank_b[k]) for k in common])
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        raise InsufficientDataError("rank variance is zero on one side")
    return float(da @ db) / denom


def loglog_fit(
    x: Sequence[float], y: Sequence[float]
) -> PowerLawFit:
    """Least-squares line on (ln x, ln y); the slope is the exponent."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise ValueError(f"need >= 3 points, got {len(xs)}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("power-law fit requires finite values")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("power-law fit requires strictly positive values")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    return PowerLawFit(float(slope), float(math.exp(intercept)), residual)


def finite_float(text: str) -> float:
    """``float(text)``; a value that is not finite is a ``ValueError`` too."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def check_positive_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is positive and finite; the test
    is written so that nan fails it too."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def read_delimited(path: str | Path) -> tuple[list[str], list[dict[str, str]]]:
    """Header names and rows of a delimited text file with a header line.

    The delimiter is the first of tab, comma and semicolon found in the
    header line, tab if it holds none of them.  A UTF-8 byte order mark
    before the header is not part of the first name.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = fh.readline()
        fh.seek(0)
        delimiter = next((d for d in "\t,;" if d in header), "\t")
        reader = csv.DictReader(fh, delimiter=delimiter)
        return list(reader.fieldnames or ()), list(reader)


_Column = tuple[str, Callable[[str], object]]


def _parsed_rows(rows: list[dict[str, str]], columns: Sequence[_Column]) -> list[tuple]:
    """The cells of ``columns`` in each row, each read by its parser; a row
    too short for a column or with a cell its parser refuses is skipped."""
    out = []
    for row in rows:
        cells = [row[name] for name, _ in columns]
        if None in cells:  # the row has fewer fields than the header
            continue
        try:
            out.append(tuple(parse(cell) for (_, parse), cell in zip(columns, cells)))
        except ValueError:
            continue
    return out


def read_columns(path: str | Path, *columns: _Column) -> list[tuple]:
    """The parsed cells of ``columns``, named exactly as in the header, in
    each row of a delimited file (see :func:`read_delimited`) that holds
    them all.  A column the header lacks is a ``ValueError``."""
    fieldnames, rows = read_delimited(path)
    for name, _ in columns:
        if name not in fieldnames:
            raise ValueError(f"{path}: header {fieldnames} has no column {name!r}")
    return _parsed_rows(rows, columns)


def read_indicator_file(path: str | Path) -> dict[tuple[str, int], float]:
    """Value of each (country, period) in a delimited indicator file.

    The header must name country, period and value columns, in any case;
    a file with no header holds no values.  Rows with unparseable periods
    or values, or values that are not finite, are skipped, and the last row
    of a repeated (country, period) counts.
    """
    fieldnames, rows = read_delimited(path)
    if not fieldnames:
        return {}
    fields = {name.strip().lower(): name for name in fieldnames}
    try:
        names = [fields[k] for k in ("country", "period", "value")]
    except KeyError:
        raise ValueError(
            f"{path}: indicator file must have country/period/value "
            f"columns, found {fieldnames}"
        ) from None
    parsers = (lambda cell: cell.strip().upper(), int, finite_float)
    return {(c, p): v for c, p, v in _parsed_rows(rows, list(zip(names, parsers)))}


def gerd_means(
    rd_share: Mapping[tuple[str, int], float],
    gdp: Mapping[tuple[str, int], float],
    window: tuple[int, int],
) -> dict[str, float]:
    """Mean research expenditure (share/100 * GDP) per country over a window.

    Both mappings are keyed by (country, year), as
    :func:`read_indicator_file` returns them.  Years missing either series
    are skipped; countries with no usable year are omitted.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    countries = sorted({c for c, _ in rd_share} & {c for c, _ in gdp})
    out: dict[str, float] = {}
    for country in countries:
        products = [
            rd_share[(country, year)] / 100.0 * gdp[(country, year)]
            for year in range(lo, hi + 1)
            if (country, year) in rd_share and (country, year) in gdp
        ]
        if products:
            out[country] = sum(products) / len(products)
    return out

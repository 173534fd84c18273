"""Rank correlation, power-law fitting, and indicator file handling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scibreak.analysis import (
    InsufficientDataError,
    gerd_means,
    loglog_fit,
    read_indicator_file,
    spearman,
)

from oracles import normal_equations_loglog, spearman_no_ties, spearman_with_ties


class TestSpearman:
    def test_identical_rankings(self):
        ranks = {"a": 1, "b": 2, "c": 3, "d": 4}
        assert spearman(ranks, ranks) == 1.0

    def test_reversed_rankings(self):
        a = {"a": 1, "b": 2, "c": 3, "d": 4}
        b = {"a": 4, "b": 3, "c": 2, "d": 1}
        assert spearman(a, b) == -1.0

    def test_three_point_half(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"x": 1, "y": 3, "z": 2}
        assert spearman(a, b) == 0.5

    def test_matches_closed_form_without_ties(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            a_vals = rng.permutation(n) + rng.random(n) * 0.1
            b_vals = rng.permutation(n) + rng.random(n) * 0.1
            keys = [f"k{i}" for i in range(n)]
            mine = spearman(dict(zip(keys, a_vals)), dict(zip(keys, b_vals)))
            assert mine == pytest.approx(
                spearman_no_ties(a_vals.tolist(), b_vals.tolist()), abs=1e-12
            )

    def test_intersection_only(self):
        a = {"a": 1, "b": 2, "c": 3, "only_a": 9}
        b = {"a": 1, "b": 2, "c": 3, "only_b": 9}
        assert spearman(a, b) == 1.0

    def test_average_ranks_for_ties(self):
        # hand-computed: a ranks (1.5, 1.5, 3), b ranks (1, 2, 3)
        a = {"x": 5, "y": 5, "z": 9}
        b = {"x": 1, "y": 2, "z": 3}
        da = np.array([1.5, 1.5, 3.0]) - 2.0
        db = np.array([1.0, 2.0, 3.0]) - 2.0
        expected = float(da @ db) / math.sqrt(float(da @ da) * float(db @ db))
        assert spearman(a, b) == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.5, -0.0, 0.0, 1.0, 2.0, 2.5]),
                st.integers(-2, 2),
            ),
            min_size=3,
            max_size=30,
        )
    )
    def test_ties_match_the_tie_averaging_oracle(self, pairs):
        # few distinct values, so most draws hold ties on both sides
        a, b = (list(column) for column in zip(*pairs))
        assume(len(set(a)) > 1 and len(set(b)) > 1)
        keys = [f"k{i:02d}" for i in range(len(pairs))]
        mine = spearman(dict(zip(keys, a)), dict(zip(keys, b)))
        assert mine == spearman_with_ties(a, b)

    def test_too_few_common(self):
        with pytest.raises(InsufficientDataError):
            spearman({"a": 1, "b": 2}, {"a": 1, "b": 2})
        with pytest.raises(InsufficientDataError):
            spearman({"a": 1, "b": 2, "c": 3}, {"x": 1, "y": 2, "z": 3})

    def test_constant_side_rejected(self):
        a = {"a": 1, "b": 1, "c": 1}
        b = {"a": 1, "b": 2, "c": 3}
        with pytest.raises(InsufficientDataError):
            spearman(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(6))))
    def test_invariant_under_monotone_transform(self, values):
        keys = [f"k{i}" for i in range(6)]
        base = dict(zip(keys, [float(v) for v in values]))
        other = {k: float(i) for i, k in enumerate(keys)}
        transformed = {k: math.exp(0.5 * v) + 3 for k, v in base.items()}
        assert spearman(base, other) == pytest.approx(
            spearman(transformed, other), abs=1e-12
        )


class TestLoglogFit:
    def test_exact_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        fit = loglog_fit(xs, [2.0 * x**1.5 for x in xs])
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-12)
        assert fit.residual <= 1e-24

    def test_constant_y(self):
        fit = loglog_fit([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-14)
        assert fit.prefactor == pytest.approx(5.0, rel=1e-12)

    def test_noisy_fit_matches_normal_equations(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            xs = rng.uniform(0.1, 50.0, size=n)
            ys = 0.7 * xs**1.8 * np.exp(rng.normal(0, 0.2, size=n))
            fit = loglog_fit(xs, ys)
            slope, prefactor = normal_equations_loglog(xs, ys)
            assert fit.exponent == pytest.approx(slope, rel=1e-9)
            assert fit.prefactor == pytest.approx(prefactor, rel=1e-9)

    def test_rescaling_changes_only_prefactor(self):
        rng = np.random.default_rng(73)
        xs = rng.uniform(1, 10, size=12)
        ys = 3.0 * xs**0.7 * np.exp(rng.normal(0, 0.1, size=12))
        base = loglog_fit(xs, ys)
        scaled = loglog_fit(xs * 4.0, ys)
        assert scaled.exponent == pytest.approx(base.exponent, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            loglog_fit([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0, 3.0], [1.0, 2.0])
        # an inf once reached np.polyfit: "SVD did not converge"
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                loglog_fit([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
            with pytest.raises(ValueError, match="finite"):
                loglog_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 4.0])


class TestIndicatorFiles:
    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "gerd.tsv"
        path.write_text(
            "country\tperiod\tvalue\nUS\t2005\t2.5\nil\t2005\t4.1\nxx\tbad\t1\n"
            "DE\t2005\tinf\nFR\t2005\tnan\nES\t2005\t-inf\n",
            encoding="utf-8",
        )
        assert read_indicator_file(path) == {("US", 2005): 2.5, ("IL", 2005): 4.1}

    def test_csv_detected(self, tmp_path):
        path = tmp_path / "gdp.csv"
        path.write_text("country,period,value\nDE,2001,3.2\n", encoding="utf-8")
        assert read_indicator_file(path) == {("DE", 2001): 3.2}

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("nation\tyear\tamount\nUS\t2001\t1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_indicator_file(path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # a BOM once read as part of the first name: "must have
        # country/period/value columns, found ['\ufeffcountry', ...]"
        path = tmp_path / "gdp.csv"
        path.write_text("\ufeffcountry,period,value\nDE,2001,3.2\n", encoding="utf-8")
        assert read_indicator_file(path) == {("DE", 2001): 3.2}

    def test_last_row_of_a_repeated_key_counts(self, tmp_path):
        path = tmp_path / "gdp.tsv"
        path.write_text(
            "Country\tPERIOD\tvalue\nDE\t2001\t3.2\nUS\t2001\t1.0\nde\t2001\t4.5\n"
            "DE\t2001\tnan\nDE\t2001\n",
            encoding="utf-8",
        )
        assert read_indicator_file(path) == {("DE", 2001): 4.5, ("US", 2001): 1.0}

    def test_file_without_header_holds_no_values(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert read_indicator_file(path) == {}


class TestGerdMeans:
    def test_windowed_product_mean_over_covered_years(self):
        rd = {("US", 2000): 2.0, ("US", 2001): 3.0, ("US", 2005): 9.0}  # 2005 outside
        gdp = {("US", 2000): 100.0, ("US", 2001): 200.0}
        # 2002 and 2003 lack both series: the mean is over the two covered years
        assert gerd_means(rd, gdp, (2000, 2003)) == {"US": pytest.approx((2.0 + 6.0) / 2)}

    def test_countries_without_overlap_omitted(self):
        rd = {("US", 2000): 2.0}
        gdp = {("DE", 2000): 50.0}
        assert gerd_means(rd, gdp, (2000, 2001)) == {}

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            gerd_means({}, {}, (2005, 2000))

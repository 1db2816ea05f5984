"""Tests for repro.util: RNG plumbing, table rendering, validation, and
the improvement percentage the rendered reports print."""

import numpy as np
import pytest

from repro.core import StepMetrics, summarize_improvement
from repro.util import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
    format_series,
    format_table,
    make_rng,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).integers(0, 1000, size=10)
        b = make_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 10**9, size=10)
        b = make_rng(2).integers(0, 10**9, size=10)
        assert not np.array_equal(a, b)

    def test_passthrough_generator(self):
        rng = np.random.default_rng(7)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestFormatTable:
    def test_headers_and_rows(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 3]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.5" in out and "x" in out

    def test_title(self):
        out = format_table(["c"], [[1]], title="Table I")
        assert out.startswith("Table I")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_precision(self):
        out = format_table(["v"], [[1.23456789]])
        assert "1.235" in out


class TestFormatSeries:
    def test_alignment(self):
        out = format_series("hop-bytes", [0, 1], [5.25, 2.44])
        assert "hop-bytes" in out and "5.25" in out

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("s", [1, 2], [1.0])


class TestPercent:
    """Every report's "improvement over scratch" is
    :func:`~repro.core.summarize_improvement`: positive when the candidate
    is cheaper, 0 when the baseline did no work."""

    @staticmethod
    def _improvement(new, old):
        def run(measured):
            return [
                StepMetrics(
                    step=0, n_nests=1, n_retained=1,
                    predicted_redist=measured, measured_redist=measured,
                    hop_bytes_avg=0.0, hop_bytes_total=0.0, overlap_fraction=1.0,
                    exec_predicted=0.0, exec_actual=0.0,
                )
            ]

        return summarize_improvement(run(old), run(new))

    def test_improvement(self):
        assert self._improvement(75.0, 100.0) == pytest.approx(25.0)

    def test_regression_negative(self):
        assert self._improvement(110.0, 100.0) == pytest.approx(-10.0)

    def test_zero_old(self):
        assert self._improvement(5.0, 0.0) == 0.0


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)
        with pytest.raises(ValueError, match="x must be positive, got 0"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -3.5)
        with pytest.raises(ValueError):  # NaN is not > 0
            check_positive("x", float("nan"))

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        check_non_negative("x", 2.5)
        with pytest.raises(ValueError, match="x must be non-negative, got -1"):
            check_non_negative("x", -1)
        with pytest.raises(ValueError):  # NaN is not >= 0
            check_non_negative("x", float("nan"))

    def test_check_in_range(self):
        check_in_range("x", 5, 0, 10)
        check_in_range("x", 0, 0, 10)  # bounds are inclusive
        check_in_range("x", 10, 0, 10)
        with pytest.raises(ValueError, match=r"x must be in \[0, 10\], got 11"):
            check_in_range("x", 11, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", -0.1, 0, 10)

    def test_check_type(self):
        check_type("x", 5, int)
        check_type("x", "s", (int, str))
        with pytest.raises(TypeError, match="x must be int, got str"):
            check_type("x", "s", int)

    def test_check_type_names_all_alternatives(self):
        with pytest.raises(TypeError, match="x must be int or float, got str"):
            check_type("x", "s", (int, float))

"""Tests for repro.util.validation."""

import math

import pytest

from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    lookup,
)


class TestLookup:
    def test_returns_the_entry(self):
        table = {"a": int, "b": float}
        assert lookup("widget", table, "b") is float

    def test_unknown_name_names_kind_name_and_sorted_options(self):
        table = {"gamma": 1, "alpha": 2, "beta": 3}
        with pytest.raises(ValueError) as err:
            lookup("widget", table, "delta")
        assert str(err.value) == (
            "unknown widget 'delta'; expected one of ['alpha', 'beta', 'gamma']"
        )


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3) == 3.0

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    @pytest.mark.parametrize("bad", [-0.001, float("nan"), float("-inf")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_non_negative("x", bad)


class TestCheckInRange:
    def test_inclusive_endpoints(self):
        assert check_in_range("x", 0, 0, 1) == 0.0
        assert check_in_range("x", 1, 0, 1) == 1.0

    def test_exclusive_endpoints_rejected(self):
        with pytest.raises(ValueError):
            check_in_range("x", 0, 0, 1, inclusive=False)
        with pytest.raises(ValueError):
            check_in_range("x", 1, 0, 1, inclusive=False)

    def test_exclusive_interior_accepted(self):
        assert check_in_range("x", 0.5, 0, 1, inclusive=False) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range("x", 2, 0, 1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            check_in_range("x", math.nan, 0, 1)


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability("p", ok) == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_probability("p", bad)

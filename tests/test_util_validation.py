"""Tests for repro.util.validation."""

import math

import pytest

from repro.util.errors import ValidationError
from repro.util.validation import check_fraction, check_non_negative, check_positive

CHECKS = [check_positive, check_non_negative, check_fraction]


class TestNumericChecks:
    def test_positive_accepts_positive(self):
        assert check_positive(3.5, "x") == 3.5

    def test_positive_rejects_zero(self):
        with pytest.raises(ValidationError, match="x"):
            check_positive(0, "x")

    def test_positive_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1, "x")

    def test_positive_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive(float("nan"), "x")

    def test_positive_rejects_infinity(self):
        with pytest.raises(ValidationError):
            check_positive(math.inf, "x")

    def test_positive_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive(True, "x")

    def test_positive_rejects_string(self):
        with pytest.raises(ValidationError):
            check_positive("3", "x")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "x")

    def test_fraction_bounds(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0
        with pytest.raises(ValidationError):
            check_fraction(1.2, "x")


class TestEveryCheck:
    @pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, True, "1", None],
        ids=["nan", "inf", "-inf", "bool", "str", "none"],
    )
    def test_rejects_non_finite_and_non_numbers(self, check, value):
        with pytest.raises(ValidationError, match="x"):
            check(value, "x")

    @pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
    def test_returns_a_float(self, check):
        result = check(1, "x")
        assert result == 1.0 and type(result) is float

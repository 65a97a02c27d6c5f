"""Argument validation helpers.

Every public entry point of the library validates its inputs through these
helpers so that misuse produces a consistent :class:`ValidationError` with a
message naming the offending parameter, rather than an obscure ``KeyError``
deep inside a simulation loop.
"""

from __future__ import annotations

from repro.util.errors import ValidationError

__all__ = ["check_positive", "check_non_negative", "check_fraction"]


def check_positive(value: float, name: str) -> float:
    """Ensure ``value`` is a strictly positive finite number and return it."""
    value = _check_number(value, name)
    if value <= 0:
        raise ValidationError(f"{name} must be strictly positive, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Ensure ``value`` is a non-negative finite number and return it."""
    value = _check_number(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1] and return it."""
    value = _check_number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_number(value: float, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value

"""Small statistics helpers used by the monitoring collector and QoE metrics."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from repro.util.errors import ValidationError
from repro.util.validation import check_fraction

__all__ = ["Ewma", "weighted_percentile", "weighted_mean"]


def weighted_mean(values: Sequence[float], weights: Sequence[int]) -> float:
    """Mean of ``values`` with non-negative integer multiplicities ``weights``.

    Bitwise equivalent to the ``math.fsum`` mean of the expanded sequence
    where each value appears ``weight`` times — the per-session view of
    class-level QoE records that each stand for a whole cohort of identical
    sessions.  The weighted sum is accumulated exactly (float ``value``
    times integer ``weight`` is an exact rational) and rounded once, which
    is precisely what ``math.fsum`` over the expansion computes.
    """
    if len(values) != len(weights):
        raise ValidationError("values and weights must have the same length")
    total_weight = sum(weights)
    if total_weight <= 0:
        raise ValidationError("cannot compute a weighted mean of zero total weight")
    exact = sum(
        Fraction(value) * weight for value, weight in zip(values, weights)
    )
    return float(exact) / total_weight


def weighted_percentile(
    values: Sequence[float], weights: Sequence[int], fraction: float
) -> float:
    """Percentile of ``values`` repeated with integer multiplicities ``weights``.

    The linear-interpolated percentile of the expanded sequence (each value
    appears ``weight`` times), computed without materialising it — a
    weight-``n`` value occupies ``n`` consecutive positions of the
    conceptual sorted list, and the interpolated position is located by a
    cumulative scan.
    """
    check_fraction(fraction, "fraction")
    if len(values) != len(weights):
        raise ValidationError("values and weights must have the same length")
    pairs = sorted(
        (float(value), int(weight))
        for value, weight in zip(values, weights)
        if weight > 0
    )
    total_weight = sum(weight for _, weight in pairs)
    if total_weight <= 0:
        raise ValidationError("cannot compute a weighted percentile of zero total weight")
    if total_weight == 1:
        return pairs[0][0]
    position = fraction * (total_weight - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    blend = position - lower

    def value_at(index: int) -> float:
        cumulative = 0
        for value, weight in pairs:
            cumulative += weight
            if index < cumulative:
                return value
        return pairs[-1][0]  # pragma: no cover - index is always < total_weight

    if lower == upper:
        return value_at(lower)
    low_value, high_value = value_at(lower), value_at(upper)
    return low_value * (1 - blend) + high_value * blend


class Ewma:
    """Exponentially weighted moving average.

    Used by the monitoring collector to smooth link-load estimates, as a real
    SNMP-based monitor would to avoid reacting to a single noisy sample.
    """

    def __init__(self, alpha: float = 0.5, initial: float | None = None) -> None:
        self.alpha = check_fraction(alpha, "alpha")
        if self.alpha == 0.0:
            raise ValidationError("alpha must be strictly positive for the EWMA to update")
        self._value = initial

    @property
    def value(self) -> float:
        """Current smoothed value (0.0 before the first update)."""
        return self._value if self._value is not None else 0.0

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new smoothed value."""
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = self.alpha * float(sample) + (1 - self.alpha) * self._value
        return self._value

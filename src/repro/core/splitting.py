"""Approximation of fractional split ratios with bounded ECMP entries.

Routers hash traffic *evenly* over their equal-cost FIB entries, so the only
way Fibbing can realise a fractional split such as 1/3 vs 2/3 is to install
an integer number of entries per next hop (1 entry toward B and 2 toward R1
in the paper's Fig. 1c).  The total number of entries per prefix is bounded
by the router's ECMP table size, so arbitrary fractions must be approximated.

:func:`approximate_ratios` searches the feasible denominators up to the
table size in increasing order with the largest-remainder method, returning
the weight vector with the smallest L1 error (ties broken toward fewer
entries, i.e. fewer fake nodes to inject) and stopping at the first
denominator that realises the split exactly.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.util.errors import ControllerError, ValidationError
from repro.util.validation import check_positive

__all__ = ["approximate_ratios", "split_error", "weights_to_fractions"]


def _normalize(fractions: Mapping[str, float]) -> Dict[str, float]:
    for key, value in fractions.items():
        if value < 0:
            raise ValidationError(f"split fraction for {key!r} is negative: {value}")
    positive = {key: float(value) for key, value in fractions.items() if value > 0}
    if not positive:
        raise ValidationError("cannot approximate an empty or all-zero split")
    total = sum(positive.values())
    return {key: value / total for key, value in positive.items()}


def _largest_remainder(fractions: Dict[str, float], denominator: int) -> Dict[str, int]:
    """Integer weights summing to ``denominator`` via the largest-remainder method."""
    ideal = {key: fraction * denominator for key, fraction in fractions.items()}
    weights = {key: int(value) for key, value in ideal.items()}
    assigned = sum(weights.values())
    remainders = sorted(
        fractions,
        key=lambda key: (ideal[key] - weights[key], fractions[key], key),
        reverse=True,
    )
    index = 0
    while assigned < denominator:
        weights[remainders[index % len(remainders)]] += 1
        assigned += 1
        index += 1
    return {key: weight for key, weight in weights.items() if weight > 0}


def weights_to_fractions(weights: Mapping[str, int]) -> Dict[str, float]:
    """Normalise integer weights back into fractions (the realised split)."""
    total = sum(weights.values())
    if total <= 0:
        raise ValidationError("weights must sum to a positive total")
    return {key: weight / total for key, weight in weights.items() if weight > 0}


def _l1_distance(desired: Mapping[str, float], weights: Mapping[str, int]) -> float:
    """L1 distance between the normalised ``desired`` split and the realised one."""
    realised = weights_to_fractions(weights) if weights else {}
    # Summed in sorted key order: a float sum over a set would follow
    # PYTHONHASHSEED in its last ulp.
    keys = sorted(set(desired) | set(realised))
    return sum(abs(desired.get(key, 0.0) - realised.get(key, 0.0)) for key in keys)


def split_error(fractions: Mapping[str, float], weights: Mapping[str, int]) -> float:
    """L1 distance between the desired fractions and the realised split.

    The error ranges from 0 (exact) to 2 (completely disjoint supports).
    """
    return _l1_distance(_normalize(fractions), weights)


def approximate_ratios(
    fractions: Mapping[str, float],
    max_entries: int = 16,
) -> Dict[str, int]:
    """Best integer-weight approximation of ``fractions`` with at most ``max_entries`` entries.

    Denominators from 1 to ``max_entries`` are tried in order with the
    largest-remainder method; the weights with the lowest L1 error win, and
    among equally good candidates the one using the fewest entries is kept
    (each extra entry is an extra fake node to inject and maintain).  The
    search therefore ends at the first denominator whose error is zero: no
    larger one can do better, and every smaller one did worse.

    >>> approximate_ratios({"B": 1 / 3, "R1": 2 / 3}, max_entries=16)
    {'B': 1, 'R1': 2}
    """
    if max_entries < 1:
        raise ControllerError(f"max_entries must be >= 1, got {max_entries}")
    desired = _normalize(fractions)
    # The error of a candidate is ``split_error(desired, candidate)``, which
    # normalises its first argument again — and dividing an already
    # normalised split by its sum can still move the last ulp.  Done once
    # here instead of once per denominator.
    target = _normalize(desired)
    best_weights: Dict[str, int] | None = None
    best_error: float | None = None
    for denominator in range(1, max_entries + 1):
        weights = _largest_remainder(desired, denominator)
        error = round(_l1_distance(target, weights), 12)
        if error == 0:
            return weights
        # Largest-remainder weights sum to the denominator, so an equal
        # error later on always costs more entries: only a smaller one wins.
        if best_error is None or error < best_error:
            best_error = error
            best_weights = weights
    assert best_weights is not None  # max_entries >= 1 guarantees one candidate
    return best_weights

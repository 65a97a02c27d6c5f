"""Tests for splitting-ratio approximation."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import splitting
from repro.core.splitting import approximate_ratios, split_error, weights_to_fractions
from repro.util.errors import ControllerError, ValidationError

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")


class TestApproximateRatios:
    def test_exact_one_third_two_thirds(self):
        assert approximate_ratios({"B": 1 / 3, "R1": 2 / 3}, max_entries=16) == {"B": 1, "R1": 2}

    def test_even_split_uses_two_entries(self):
        assert approximate_ratios({"R2": 0.5, "R3": 0.5}, max_entries=16) == {"R2": 1, "R3": 1}

    def test_single_next_hop(self):
        assert approximate_ratios({"X": 1.0}, max_entries=16) == {"X": 1}

    def test_unnormalized_input_accepted(self):
        assert approximate_ratios({"X": 20.0, "Y": 10.0}, max_entries=16) == {"X": 2, "Y": 1}

    def test_prefers_fewest_entries_among_equal_error(self):
        # 0.5/0.5 is representable with 2, 4, 6, ... entries; 2 must win.
        weights = approximate_ratios({"X": 0.5, "Y": 0.5}, max_entries=32)
        assert sum(weights.values()) == 2

    def test_respects_table_size_of_one(self):
        weights = approximate_ratios({"X": 0.6, "Y": 0.4}, max_entries=1)
        assert weights == {"X": 1}

    def test_small_table_approximates(self):
        weights = approximate_ratios({"X": 0.7, "Y": 0.3}, max_entries=4)
        assert sum(weights.values()) <= 4
        assert split_error({"X": 0.7, "Y": 0.3}, weights) <= 0.2

    def test_larger_table_never_increases_error(self):
        target = {"a": 0.55, "b": 0.30, "c": 0.15}
        previous_error = None
        for size in [2, 4, 8, 16, 32]:
            error = split_error(target, approximate_ratios(target, max_entries=size))
            if previous_error is not None:
                assert error <= previous_error + 1e-12
            previous_error = error

    def test_exact_sixteenths_with_large_table(self):
        target = {"a": 5 / 16, "b": 11 / 16}
        weights = approximate_ratios(target, max_entries=16)
        assert split_error(target, weights) == pytest.approx(0.0, abs=1e-9)

    def test_zero_fraction_dropped(self):
        weights = approximate_ratios({"X": 0.8, "Y": 0.2, "Z": 0.0}, max_entries=8)
        assert "Z" not in weights

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            approximate_ratios({"X": 0.0}, max_entries=4)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValidationError):
            approximate_ratios({"X": -0.5, "Y": 1.5}, max_entries=4)

    def test_invalid_table_size_rejected(self):
        with pytest.raises(ControllerError):
            approximate_ratios({"X": 1.0}, max_entries=0)


class TestErrorAndFractions:
    def test_weights_to_fractions_normalises(self):
        assert weights_to_fractions({"a": 1, "b": 3}) == {"a": 0.25, "b": 0.75}

    def test_weights_to_fractions_rejects_zero_total(self):
        with pytest.raises(ValidationError):
            weights_to_fractions({"a": 0})

    def test_split_error_zero_for_exact_match(self):
        assert split_error({"a": 0.25, "b": 0.75}, {"a": 1, "b": 3}) == pytest.approx(0.0)

    def test_split_error_two_for_disjoint_supports(self):
        assert split_error({"a": 1.0}, {"b": 1}) == pytest.approx(2.0)

    def test_split_error_is_symmetric_in_magnitude(self):
        error = split_error({"a": 0.5, "b": 0.5}, {"a": 3, "b": 1})
        assert error == pytest.approx(0.5)

    def test_split_error_bits_do_not_follow_the_hash_seed(self):
        # Five terms whose float sum depends on the order they are added in;
        # summing them in set order made the last ulp differ between hash
        # seeds 0 and 3.
        code = (
            "from repro.core.splitting import split_error\n"
            "print(split_error("
            "{'R1': 0.23796462709189137, 'R2': 0.5442292252959519, "
            "'R3': 0.36995516654807925, 'R4': 0.6039200385961945, "
            "'R5': 0.625720304108054}, "
            "{'R1': 1, 'R2': 1, 'R3': 4, 'R4': 3, 'R5': 2}).hex())"
        )
        bits = set()
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC_DIR)
            result = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True,
            )
            bits.add(result.stdout.strip())
        assert len(bits) == 1, bits


# ---------------------------------------------------------------------- #
# The early exit against the exhaustive search
# ---------------------------------------------------------------------- #
def exhaustive_ratios(fractions, max_entries):
    """Every denominator tried and scored from scratch; lowest (error, entries) wins."""
    desired = splitting._normalize(fractions)
    best_weights = None
    best_key = None
    for denominator in range(1, max_entries + 1):
        weights = splitting._largest_remainder(desired, denominator)
        key = (round(split_error(desired, weights), 12), sum(weights.values()))
        if best_key is None or key < best_key:
            best_key = key
            best_weights = weights
    return best_weights


NEXT_HOPS = ["B", "R1", "R2", "R3", "Core10", "Pop7a"]


@st.composite
def splits(draw):
    """1-6 next hops; free floats or exact k/n shares; scaled; in any dict order."""
    names = draw(st.permutations(NEXT_HOPS))[: draw(st.integers(1, len(NEXT_HOPS)))]
    if draw(st.booleans()):
        parts = [draw(st.integers(1, 12)) for _ in names]
        values = [part / sum(parts) for part in parts]
    else:
        values = [
            draw(st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)) for _ in names
        ]
    scale = draw(st.sampled_from([1.0, 1.0, 3.0, 0.125, 31e6, 1 / 7]))
    return {name: value * scale for name, value in zip(names, values)}


class TestEarlyExitEqualsExhaustiveSearch:
    @settings(max_examples=400, deadline=None)
    @given(splits(), st.integers(min_value=1, max_value=32))
    def test_same_weights_in_the_same_order(self, fractions, max_entries):
        found = approximate_ratios(fractions, max_entries=max_entries)
        expected = exhaustive_ratios(fractions, max_entries)
        assert list(found.items()) == list(expected.items())

    @pytest.mark.parametrize(
        "fractions, stops_at",
        [
            ({"X": 1.0}, 1),
            ({"X": 31e6}, 1),
            ({"B": 1 / 3, "R1": 2 / 3}, 3),
            ({"R2": 0.5, "R3": 0.5}, 2),
            ({"a": 0.55, "b": 0.30, "c": 0.15}, 16),  # exact only at 20: searches to the end
        ],
    )
    def test_search_stops_at_the_first_exact_denominator(self, monkeypatch, fractions, stops_at):
        tried = []
        original = splitting._largest_remainder

        def counting(desired, denominator):
            tried.append(denominator)
            return original(desired, denominator)

        monkeypatch.setattr(splitting, "_largest_remainder", counting)
        weights = approximate_ratios(fractions, max_entries=16)
        assert tried == list(range(1, stops_at + 1))
        assert weights == exhaustive_ratios(fractions, 16)

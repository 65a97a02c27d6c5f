"""Tests for max-min fair allocation (progressive filling)."""

import pytest

from repro.dataplane.fairness import max_min_fair_allocation
from repro.util.errors import ValidationError

LINK = ("X", "Y")
LINK2 = ("Y", "Z")


class TestBasicSharing:
    def test_single_flow_gets_its_demand_when_capacity_allows(self):
        rates = max_min_fair_allocation({0: [LINK]}, {0: 10.0}, {LINK: 100.0})
        assert rates[0] == pytest.approx(10.0)

    def test_single_flow_capped_by_capacity(self):
        rates = max_min_fair_allocation({0: [LINK]}, {0: 200.0}, {LINK: 100.0})
        assert rates[0] == pytest.approx(100.0)

    def test_two_flows_share_bottleneck_evenly(self):
        rates = max_min_fair_allocation(
            {0: [LINK], 1: [LINK]}, {0: 100.0, 1: 100.0}, {LINK: 100.0}
        )
        assert rates[0] == pytest.approx(50.0)
        assert rates[1] == pytest.approx(50.0)

    def test_small_demand_frees_capacity_for_others(self):
        rates = max_min_fair_allocation(
            {0: [LINK], 1: [LINK]}, {0: 10.0, 1: 1000.0}, {LINK: 100.0}
        )
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(90.0)

    def test_flow_with_empty_path_gets_demand(self):
        rates = max_min_fair_allocation({0: []}, {0: 42.0}, {})
        assert rates[0] == 42.0

    def test_zero_demand_flow_gets_zero(self):
        rates = max_min_fair_allocation({0: [LINK]}, {0: 0.0}, {LINK: 10.0})
        assert rates[0] == 0.0


class TestMultiHop:
    def test_bottleneck_is_the_tightest_link(self):
        rates = max_min_fair_allocation(
            {0: [LINK, LINK2]}, {0: 100.0}, {LINK: 80.0, LINK2: 30.0}
        )
        assert rates[0] == pytest.approx(30.0)

    def test_classic_three_flow_example(self):
        """Two links; flow A uses both, flows B and C use one each.

        The textbook max-min solution gives the long flow the smaller fair
        share of its two bottlenecks.
        """
        flows = {0: [LINK, LINK2], 1: [LINK], 2: [LINK2]}
        demands = {0: 100.0, 1: 100.0, 2: 100.0}
        capacities = {LINK: 100.0, LINK2: 60.0}
        rates = max_min_fair_allocation(flows, demands, capacities)
        assert rates[0] == pytest.approx(30.0)
        assert rates[2] == pytest.approx(30.0)
        assert rates[1] == pytest.approx(70.0)

    def test_no_link_oversubscribed(self):
        flows = {i: [LINK, LINK2] for i in range(7)}
        demands = {i: 50.0 for i in range(7)}
        capacities = {LINK: 100.0, LINK2: 140.0}
        rates = max_min_fair_allocation(flows, demands, capacities)
        assert sum(rates.values()) <= 100.0 + 1e-6
        assert all(rate >= 0 for rate in rates.values())

    def test_total_equals_capacity_when_saturated(self):
        flows = {i: [LINK] for i in range(10)}
        demands = {i: 100.0 for i in range(10)}
        rates = max_min_fair_allocation(flows, demands, {LINK: 64.0})
        assert sum(rates.values()) == pytest.approx(64.0)
        assert all(rate == pytest.approx(6.4) for rate in rates.values())


class TestValidation:
    def test_missing_demand_rejected(self):
        with pytest.raises(ValidationError):
            max_min_fair_allocation({0: [LINK]}, {}, {LINK: 10.0})

    def test_unknown_link_rejected(self):
        with pytest.raises(ValidationError):
            max_min_fair_allocation({0: [LINK]}, {0: 1.0}, {})

    def test_negative_demand_rejected(self):
        with pytest.raises(ValidationError):
            max_min_fair_allocation({0: [LINK]}, {0: -1.0}, {LINK: 10.0})

    def test_empty_input_gives_empty_output(self):
        assert max_min_fair_allocation({}, {}, {}) == {}


class TestCountMultiplicity:
    """``counts=``: one count-n entity == n identical count-1 entities."""

    def test_count_n_equals_n_singletons_bitwise(self):
        demand = 13.370001
        capacity = 100.0
        n = 7
        singles = max_min_fair_allocation(
            {i: [LINK] for i in range(n)},
            {i: demand for i in range(n)},
            {LINK: capacity},
        )
        bundled = max_min_fair_allocation(
            {0: [LINK]}, {0: demand}, {LINK: capacity}, counts={0: n}
        )
        # Bitwise, not approx: the kernel must drain the link once per
        # round with the exact integer multiplicity.
        assert all(rate == bundled[0] for rate in singles.values())

    def test_mixed_counts_classic_example(self):
        """The three-flow textbook case with the long flow as a cohort."""
        flows = {0: [LINK, LINK2], 1: [LINK], 2: [LINK2]}
        demands = {0: 100.0, 1: 100.0, 2: 100.0}
        capacities = {LINK: 100.0, LINK2: 60.0}
        expanded = dict(flows)
        expanded[3] = flows[0]
        rates = max_min_fair_allocation(
            flows, demands, capacities, counts={0: 2}
        )
        reference = max_min_fair_allocation(
            expanded, {**demands, 3: 100.0}, capacities
        )
        assert rates[0] == reference[0] == reference[3]
        assert rates[1] == reference[1]
        assert rates[2] == reference[2]

    def test_invalid_count_rejected(self):
        with pytest.raises(ValidationError):
            max_min_fair_allocation(
                {0: [LINK]}, {0: 1.0}, {LINK: 10.0}, counts={0: 0}
            )


class TestGbitScaleEpsilon:
    """Regression for the absolute 1e-6 bit/s epsilon (now capacity-relative).

    At 100+ Gbit/s capacities, one ulp is ~1.5e-5 bit/s: the old absolute
    threshold was *below* the rounding noise of the capacity drain, so a
    saturated link could keep a phantom sliver of headroom (or a satisfied
    demand a phantom deficit) and the filling loop would spin on it.  The
    relative ``rate_tolerance`` keeps the same semantics at every magnitude.
    """

    def test_saturated_terabit_link_splits_exactly(self):
        n = 10
        capacity = 400e9  # one ulp here is ~6e-5 > the old 1e-6 epsilon
        rates = max_min_fair_allocation(
            {i: [LINK] for i in range(n)},
            {i: capacity for i in range(n)},
            {LINK: capacity},
        )
        assert sum(rates.values()) == pytest.approx(capacity, rel=1e-12)
        for rate in rates.values():
            assert rate == pytest.approx(capacity / n, rel=1e-12)

    def test_demand_met_exactly_at_gbit_scale(self):
        # Non-round Gbit/s demands with spare capacity: every entity gets
        # its demand bit for bit, no epsilon-sized shortfall.
        demands = {i: (1.0 + 0.0137 * i) * 1e9 for i in range(5)}
        rates = max_min_fair_allocation(
            {i: [LINK] for i in range(5)}, demands, {LINK: 100e9}
        )
        assert rates == demands

    def test_million_session_cohort_on_terabit_link(self):
        """The flash-crowd shape: 10^6 sessions behind one entity."""
        sessions = 1_000_000
        rates = max_min_fair_allocation(
            {0: [LINK], 1: [LINK]},
            {0: 5e6, 1: 5e6},
            {LINK: 1e12},
            counts={0: sessions, 1: 1},
        )
        # 5 Tbit/s of aggregate demand on 1 Tbit/s: the fair share is
        # capacity / (sessions + 1) per session, for both entities alike.
        assert rates[0] == rates[1]
        assert rates[0] == pytest.approx(1e12 / (sessions + 1), rel=1e-9)

    def test_rate_tolerance_is_relative_above_one(self):
        from repro.dataplane.fairness import RATE_EPSILON, rate_tolerance

        assert rate_tolerance(1e12) == RATE_EPSILON * 1e12
        assert rate_tolerance(1.0) == RATE_EPSILON
        assert rate_tolerance(0.0) == RATE_EPSILON


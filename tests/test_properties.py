"""Property-based tests (hypothesis) on the core data structures and invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.splitting import approximate_ratios, split_error, weights_to_fractions
from repro.dataplane.fairness import max_min_fair_allocation
from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.forwarding import route_flows_hashed, route_fractional
from repro.dataplane.flows import Flow
from repro.igp.graph import ComputationGraph
from repro.igp.network import compute_static_fibs
from repro.igp.spf import compute_spf
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology, demo_lies
from repro.topologies.random import random_topology
from repro.util.prefixes import Prefix, format_ipv4, parse_ipv4
from repro.util.stats import weighted_percentile

# ----------------------------------------------------------------------- #
# Prefix arithmetic
# ----------------------------------------------------------------------- #

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)
lengths = st.integers(min_value=0, max_value=32)


@given(addresses)
def test_ipv4_parse_format_round_trip(address):
    assert parse_ipv4(format_ipv4(address)) == address


@given(addresses, lengths)
def test_prefix_network_is_masked(address, length):
    prefix = Prefix(address, length)
    assert prefix.network % (1 << (32 - length)) == 0
    assert address - prefix.network < 1 << (32 - length)
    assert Prefix(prefix.network, length) is prefix


@given(addresses, lengths)
def test_prefix_interning_means_equality_is_identity(address, length):
    assert Prefix(address, length) is Prefix(address, length)


# ----------------------------------------------------------------------- #
# Splitting-ratio approximation
# ----------------------------------------------------------------------- #

fraction_maps = st.dictionaries(
    keys=st.sampled_from(["a", "b", "c", "d", "e"]),
    values=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=5,
)


@given(fraction_maps, st.integers(min_value=1, max_value=32))
def test_approximation_respects_table_size(fractions, max_entries):
    weights = approximate_ratios(fractions, max_entries=max_entries)
    assert 1 <= sum(weights.values()) <= max_entries
    assert all(weight >= 1 for weight in weights.values())
    assert set(weights) <= set(fractions)


@given(fraction_maps, st.integers(min_value=1, max_value=32))
def test_approximation_error_is_bounded(fractions, max_entries):
    weights = approximate_ratios(fractions, max_entries=max_entries)
    error = split_error(fractions, weights)
    assert 0.0 <= error <= 2.0
    # With a table at least as large as the number of next hops, every next
    # hop can get one entry, so the error stays below the trivial bound of
    # dropping everything but one hop.
    if max_entries >= len(fractions) and len(fractions) > 1:
        single = split_error(fractions, {max(fractions, key=fractions.get): 1})
        assert error <= single + 1e-9


@given(fraction_maps)
def test_large_table_recovers_fractions_closely(fractions):
    weights = approximate_ratios(fractions, max_entries=64)
    realised = weights_to_fractions(weights)
    total = sum(fractions.values())
    for key, value in fractions.items():
        assert abs(realised.get(key, 0.0) - value / total) < 0.05


# ----------------------------------------------------------------------- #
# Max-min fairness
# ----------------------------------------------------------------------- #

demand_lists = st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20)


@given(demand_lists, st.floats(min_value=1.0, max_value=500.0))
def test_single_bottleneck_allocation_invariants(demands, capacity):
    link = ("X", "Y")
    flow_links = {i: [link] for i in range(len(demands))}
    demand_map = {i: demands[i] for i in range(len(demands))}
    rates = max_min_fair_allocation(flow_links, demand_map, {link: capacity})
    total = sum(rates.values())
    # Capacity is never exceeded and no flow exceeds its demand.
    assert total <= capacity + 1e-6
    for i, demand in demand_map.items():
        assert rates[i] <= demand + 1e-9
    # Work conservation: either all demands are met or the link is full.
    if total < sum(demands) - 1e-6:
        assert abs(total - capacity) < 1e-6
    # Max-min property on a single link: an unsatisfied flow receives at
    # least as much as every other flow (nobody could be raised without
    # lowering somebody whose share is not larger).
    for i, rate in rates.items():
        if rate < demand_map[i] - 1e-9:
            assert all(rate >= other - 1e-6 for other in rates.values())


@given(st.integers(min_value=1, max_value=30), st.floats(min_value=1.0, max_value=64.0))
def test_equal_demands_get_equal_shares(count, capacity):
    link = ("X", "Y")
    flow_links = {i: [link] for i in range(count)}
    demands = {i: 10.0 for i in range(count)}
    rates = max_min_fair_allocation(flow_links, demands, {link: capacity})
    values = list(rates.values())
    assert max(values) - min(values) < 1e-6


# ----------------------------------------------------------------------- #
# SPF and forwarding invariants on random topologies
# ----------------------------------------------------------------------- #


@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=4, max_value=12))
def test_spf_triangle_inequality_and_symmetry_free(seed, size):
    """Shortest-path distances obey the triangle inequality over one hop."""
    topology = random_topology(num_routers=size, edge_probability=0.3, seed=seed, with_prefixes=False)
    graph = ComputationGraph.from_topology(topology)
    source = topology.routers[0]
    spf = compute_spf(graph, source)
    for link in topology.links:
        if spf.reachable(link.source) and spf.reachable(link.target):
            assert spf.distance_to(link.target) <= spf.distance_to(link.source) + link.weight + 1e-9


@settings(deadline=None, max_examples=15, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=500), st.integers(min_value=4, max_value=10))
def test_fractional_routing_conserves_traffic(seed, size):
    """Whatever enters the network is either delivered or reported lost."""
    topology = random_topology(num_routers=size, edge_probability=0.4, seed=seed)
    fibs = compute_static_fibs(topology)
    prefix = topology.prefixes[0]
    destination = topology.prefix_attachments(prefix)[0].router
    sources = [router for router in topology.routers if router != destination][:3]
    demands = TrafficMatrix.from_dict({(source, prefix): 10.0 for source in sources})
    outcome = route_fractional(fibs, demands)
    assert outcome.delivered + outcome.undeliverable == pytest.approx(demands.total())
    assert outcome.undeliverable == pytest.approx(0.0)


@settings(deadline=None, max_examples=15, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=500))
def test_hashed_routing_follows_fib_next_hops(salt):
    """Every hop of every hashed flow path must be a next hop the FIB allows."""
    fibs = compute_static_fibs(build_demo_topology(), demo_lies())
    flows = [Flow(flow_id=i, ingress="A", prefix=BLUE_PREFIX, demand=1.0) for i in range(30)]
    outcome = route_flows_hashed(fibs, flows, salt=salt)
    for path in outcome.flow_paths.values():
        assert path.delivered
        for source, target in path.links:
            assert target in fibs[source].lookup(BLUE_PREFIX).split_ratios()


# ----------------------------------------------------------------------- #
# Statistics helpers
# ----------------------------------------------------------------------- #


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_is_bounded_by_min_and_max(values, fraction):
    result = weighted_percentile(values, [1] * len(values), fraction)
    assert min(values) - 1e-9 <= result <= max(values) + 1e-9

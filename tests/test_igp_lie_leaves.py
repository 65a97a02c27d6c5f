"""Differential suite: lies resolved as leaves == lies as SPF nodes.

The product keeps a lie out of the SPF graph: its fake node is an announcer
reached through its anchor (:mod:`repro.igp.rib`).  The oracle in
``tests/oracles.py`` puts every fake node into the graph with its fake link
in both directions and runs Dijkstra over it.  On random graphs with integer
and fractional costs (ties and last-ulp ties included) and random lie sets —
lies anchored at the computing router, several lies per prefix, forwarding
addresses that are not the anchor's neighbours, withdrawals — both must give
byte-identical RIBs (``rib_digest``) and FIBs, and raise
:class:`~repro.util.errors.RoutingError` at the same routers.  The versioned
caches must agree too, and serve every lie step as an SPF hit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.igp.fib import resolve_rib_to_fib
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa
from repro.igp.network import compute_static_fibs
from repro.igp.rib import compute_rib, rib_digest
from repro.igp.rib_cache import RibCache
from repro.topologies.random import random_topology
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix

from oracles import fake_node_fib, fake_node_rib

ROUTERS = [f"R{index}" for index in range(6)]
PREFIXES = [Prefix.parse("10.7.0.0/24"), Prefix.parse("10.7.1.0/24")]
# 0.1 + 0.2 != 0.3: fractional costs tie within the ECMP tolerance but not
# in the last ulp, which is where the order of the lie's float sum shows.
COSTS = st.sampled_from([1.0, 2.0, 3.0, 0.5, 1.5, 0.1, 0.2, 0.3])
METRICS = st.sampled_from([0.0, 1.0, 2.0, 0.5, 0.1, 0.2])
MAX_ECMP = 4  # small enough that several lies on one prefix truncate


def fib_state(fib):
    return {prefix: fib.lookup(prefix) for prefix in fib.prefixes}


def outcome(resolve):
    """What ``resolve()`` returns, or the ``RoutingError`` class if it raises one."""
    try:
        return fib_state(resolve())
    except RoutingError:
        return RoutingError


@st.composite
def worlds(draw):
    routers = ROUTERS[: draw(st.integers(min_value=2, max_value=len(ROUTERS)))]
    node = st.sampled_from(routers)
    edges = draw(st.lists(st.tuples(node, node, COSTS, COSTS), max_size=10))
    announcements = draw(st.lists(st.tuples(node, st.sampled_from(PREFIXES), METRICS), max_size=4))
    lies = draw(
        st.lists(
            st.tuples(
                node,
                COSTS,
                st.sampled_from(PREFIXES),
                METRICS,
                # "ghost" names no router; "f0" names a fake node.
                st.sampled_from(routers + ["ghost", "f0"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    withdrawn = draw(st.lists(st.sampled_from(range(len(lies))), unique=True))
    return routers, edges, announcements, lies, withdrawn


def check(graph, cache):
    """Product == oracle at every router, from scratch and through ``cache``."""
    for router in graph.nodes:
        expected_rib = fake_node_rib(graph, router)
        rib = compute_rib(graph, router)
        assert rib_digest(rib) == rib_digest(expected_rib), router
        assert rib.routes_by_prefix() == expected_rib.routes_by_prefix(), router
        expected = outcome(lambda: fake_node_fib(graph, router, MAX_ECMP))
        assert outcome(lambda: resolve_rib_to_fib(graph, rib, MAX_ECMP)) == expected, router
        assert outcome(lambda: cache.fib(graph, router, MAX_ECMP)) == expected, router


class TestLeafResolutionMatchesFakeNodeSpf:
    @settings(max_examples=200, deadline=None)
    @given(world=worlds())
    def test_live_graph_lie_steps(self, world):
        """Lies added one by one to a live graph, then some withdrawn."""
        routers, edges, announcements, lies, withdrawn = world
        graph = ComputationGraph()
        for router in routers:
            graph.add_node(router)
        for source, target, cost, back in edges:
            if source != target:
                graph.add_edge(source, target, cost)
                graph.add_edge(target, source, back)
        for announcer, prefix, metric in announcements:
            graph.announce(announcer, prefix, metric)
        cache = RibCache()
        check(graph, cache)
        for index, (anchor, link_cost, prefix, prefix_cost, address) in enumerate(lies):
            graph.add_fake_node(f"f{index}", anchor, link_cost, prefix, prefix_cost, address)
            check(graph, cache)
        for index in withdrawn:
            graph.remove_fake_node(f"f{index}")
            check(graph, cache)
        counters = cache.spf_cache.counters
        assert counters.full_recomputes == len(routers)
        assert counters.incremental_updates == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        waves=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=7),
                    st.integers(min_value=0, max_value=7),
                    COSTS,
                    METRICS,
                    st.booleans(),
                ),
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_rebuilt_graph_lie_waves(self, seed, waves):
        """The controller's lineage: ``compute_static_fibs`` per lie set,
        each rebuilt graph chained to the last by ``continue_from``."""
        topology = random_topology(8, edge_probability=0.3, seed=seed)
        routers = topology.routers
        cache = RibCache()
        compute_static_fibs(topology, rib_cache=cache)
        for wave in waves:
            lies = []
            for index, (anchor, hop, link_cost, prefix_cost, adjacent) in enumerate(wave):
                anchor = routers[anchor % len(routers)]
                neighbours = topology.neighbors(anchor)
                address = (
                    neighbours[hop % len(neighbours)]
                    if adjacent and neighbours
                    else routers[hop % len(routers)]
                )
                lies.append(
                    FakeNodeLsa(
                        origin="ctl",
                        fake_node=f"f{index}",
                        anchor=anchor,
                        link_cost=link_cost,
                        prefix=topology.prefixes[hop % len(topology.prefixes)],
                        prefix_cost=prefix_cost,
                        forwarding_address=address,
                    )
                )
            graph = ComputationGraph.from_topology(topology, lies)
            expected = {
                router: outcome(lambda: fake_node_fib(graph, router)) for router in routers
            }
            try:
                fibs = compute_static_fibs(topology, lies, rib_cache=cache)
            except RoutingError:
                # Raised at the first router whose FIB cannot resolve; the
                # next wave repairs from wherever the lineage stopped.
                assert RoutingError in expected.values()
                continue
            assert {router: fib_state(fibs[router]) for router in routers} == expected
        assert cache.spf_cache.counters.incremental_updates == 0

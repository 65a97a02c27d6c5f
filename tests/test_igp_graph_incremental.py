"""Differential suite for the delta-applied computation graph.

A router's :class:`~repro.igp.lsdb.LinkStateDatabase` builds its graph once,
on the first SPF run (a copy of a peer's
:meth:`~repro.igp.graph.ComputationGraph.from_lsdb` build when their LSA
mappings are equal), and from then on applies every installed LSA to that
live graph as one recorded delta step.  ``from_lsdb(live_lsas())`` is the
oracle, and it lives here, wrapped around ``LinkStateDatabase.graph`` — not
behind a switch in ``src/``:

(a) scripted worlds — boot, lie waves, link and weight events, a lie whose
    forwarding adjacency fails and returns, LSA loss, controller crash and
    resync — with live graph == oracle asserted at every SPF run;
(b) a property over arbitrary LSA sequences: live graph == oracle after every
    install, and ``update_spf``/``update_rib`` over the *recorded* change ==
    ``compute_spf``/``compute_rib``;
(c) deltas that cancel inside one ``spf_delay``;
(d) a count guard: a boot calls ``from_lsdb`` once per distinct LSDB
    content (a router that builds early, on a partial database, builds its
    own), and a converged network never calls it again;
(e) the copies a boot hands out: each equals ``from_lsdb`` in insertion order
    too, and changes to one leave its peers, the memo and other networks
    untouched.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import FibbingController
from repro.experiments.scaling import build_ring_topology, churn_requirement
from repro.igp.graph import ComputationGraph, GraphChange
from repro.igp.lsa import FakeNodeLsa, LsaKey, PrefixLsa, RouterLsa
from repro.igp.lsdb import GraphBuilds, LinkStateDatabase
from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.igp.rib import compute_rib, dirty_prefixes, update_rib
from repro.igp.router import RouterTimers
from repro.igp.spf import compute_spf, update_spf
from repro.topologies.demo import build_demo_topology, demo_lies
from repro.topologies.isp import synthetic_isp
from repro.topologies.random import random_topology
from repro.util.errors import TopologyError
from repro.util.prefixes import Prefix


def graph_state(graph):
    """Everything SPF, RIB and FIB resolution can read from a graph."""
    return {
        "edges": graph._edges,
        "redges": graph._redges,
        "announcements": graph._announcements,
        "fake_nodes": graph._fake_nodes,
        "prefix_refs": graph._prefix_refs,
    }


_LIVE_GRAPH = LinkStateDatabase.graph
_FROM_LSDB = ComputationGraph.from_lsdb.__func__


def assert_matches_oracle(lsdb, context=""):
    """The live graph of ``lsdb`` equals a from-scratch build of its live LSAs."""
    live = _LIVE_GRAPH(lsdb)
    oracle = _FROM_LSDB(ComputationGraph, lsdb.live_lsas())
    assert graph_state(live) == graph_state(oracle), f"{lsdb.owner} {context}"
    return live


@pytest.fixture
def oracle_checks(monkeypatch):
    """Compare live graph and oracle on every ``graph()`` call, i.e. every SPF run.

    Returns the list of checked owners, so a test can tell how many ran.
    """
    checked = []

    def graph(self):
        checked.append(self.owner)
        return assert_matches_oracle(self, context=f"(check {len(checked)})")

    monkeypatch.setattr(LinkStateDatabase, "graph", graph)
    return checked


def booted(topology):
    network = IgpNetwork(topology)
    network.start()
    network.converge()
    return network


def fib_state(fibs):
    return {
        name: {prefix: fib.lookup(prefix) for prefix in fib.prefixes}
        for name, fib in fibs.items()
    }


def assert_fibs_match_static(network, lies=()):
    assert fib_state(network.fibs()) == fib_state(
        compute_static_fibs(network.topology, lies)
    )


# ---------------------------------------------------------------------- #
# (a) scripted worlds, oracle equality at every SPF run
# ---------------------------------------------------------------------- #
class TestScriptedWorlds:
    def test_boot_and_lie_waves(self, oracle_checks):
        network = booted(build_demo_topology())
        boot_checks = len(oracle_checks)
        assert boot_checks >= len(network.routers)
        lies = demo_lies()
        network.inject(lies, at_router="R3")
        network.converge()
        assert_fibs_match_static(network, lies)
        # Replace in place: new costs, and one lie moved to another interface.
        replaced = [
            replace(lies[0], sequence=2, link_cost=0.5, prefix_cost=1.5),
            replace(lies[1], sequence=2, forwarding_address="B", prefix_cost=3.0),
            lies[2].refresh(),
        ]
        network.inject(replaced, at_router="R3")
        network.converge()
        assert_fibs_match_static(network, replaced)
        network.inject([lie.withdraw() for lie in replaced], at_router="R3")
        network.converge()
        assert_fibs_match_static(network)
        assert len(oracle_checks) >= boot_checks + 3 * len(network.routers)

    def test_link_and_weight_events(self, oracle_checks):
        network = booted(random_topology(12, edge_probability=0.3, seed=4))
        rng = random.Random(4)
        for _ in range(6):
            first, second = rng.choice(network.topology.undirected_links)
            network.change_weight(first, second, rng.choice([1, 2, 4, 7]))
            network.converge()
            assert_fibs_match_static(network)
        first, second = network.topology.undirected_links[0]
        network.fail_link(first, second)
        network.converge()
        assert_fibs_match_static(network)
        network.restore_link(first, second)
        network.converge()
        assert_fibs_match_static(network)
        assert oracle_checks

    def test_lie_leaves_and_reenters_with_its_forwarding_adjacency(self, oracle_checks):
        network = booted(build_demo_topology())
        lies = demo_lies()
        network.inject(lies, at_router="R3")
        network.converge()
        graphs = [_LIVE_GRAPH(process.lsdb) for process in network.routers.values()]
        assert all(graph.is_fake("fA1") and graph.is_fake("fB") for graph in graphs)
        network.fail_link("A", "R1")  # the adjacency fA1 and fA2 forward over
        network.converge()
        for graph in graphs:
            assert not graph.is_fake("fA1") and not graph.is_fake("fA2")
            assert graph.is_fake("fB")
        network.restore_link("A", "R1")
        network.converge()
        assert all(graph.is_fake("fA1") and graph.is_fake("fA2") for graph in graphs)
        assert_fibs_match_static(network, lies)
        assert oracle_checks

    def test_lsa_loss_diverged_lsdbs(self, oracle_checks):
        """Every router's graph follows its *own* LSDB, whatever it missed."""
        network = booted(random_topology(14, edge_probability=0.25, seed=9))
        network.fabric.set_loss(0.02, random.Random(9))
        rng = random.Random(9)
        attachment = network.topology.routers[0]
        lie_count = 0
        for wave in range(12):
            first, second = rng.choice(network.topology.undirected_links)
            if wave % 3 == 0 and len(network.topology.neighbors(first)) > 1:
                network.fail_link(first, second)
                network.converge()
                network.restore_link(first, second)
            elif wave % 3 == 1:
                network.change_weight(first, second, rng.choice([1, 3, 5]))
            else:
                lie_count += 1
                network.inject(
                    [
                        FakeNodeLsa(
                            origin="ctl",
                            fake_node=f"f{lie_count}",
                            anchor=first,
                            link_cost=1.0,
                            prefix=rng.choice(network.topology.prefixes),
                            prefix_cost=1.0,
                            forwarding_address=second,
                        )
                    ],
                    at_router=attachment,
                )
            network.converge()
        assert network.flooding_stats["messages_dropped"] > 0
        for process in network.routers.values():
            assert_matches_oracle(process.lsdb, "at the end")
        assert oracle_checks

    def test_controller_crash_and_resync(self, oracle_checks):
        topology = build_ring_topology(8, 12)
        network = booted(topology)
        controller = FibbingController(topology, network=network, attachment="R0")
        generations = {index: 0 for index in range(12)}
        rng = random.Random(2)
        for wave in range(12):
            if wave == 6:
                controller.detach()
                controller.resync()
            generations[rng.randrange(12)] += 1
            controller.enforce(
                [churn_requirement(topology, index, generations[index]) for index in range(12)]
            )
            network.converge()
        assert_fibs_match_static(network, controller.active_lies())
        assert oracle_checks


# ---------------------------------------------------------------------- #
# (b) arbitrary LSA sequences
# ---------------------------------------------------------------------- #
ROUTERS = ["R0", "R1", "R2", "R3", "R4"]
PREFIXES = [Prefix.parse(f"10.{index}.0.0/24") for index in range(3)]
COSTS = st.sampled_from([0.5, 1.0, 2.0, 3.0])
WITHDRAWN = st.sampled_from([False, False, False, True])
# An event's sequence number is the highest one issued for its key so far plus
# this: mostly the next instance, sometimes a gap, a duplicate or a stale one
# (so a withdrawal is at times followed by an older instance).
BUMPS = st.sampled_from([1, 1, 1, 1, 1, 3, 0, -1, -2])

# Self-advertisements, one-sided adjacencies and duplicate neighbour entries
# all come out of this; so do routers no LSA ever describes.
router_lsas = st.builds(
    RouterLsa,
    origin=st.sampled_from(ROUTERS),
    links=st.lists(st.tuples(st.sampled_from(ROUTERS), COSTS), max_size=5).map(tuple),
    withdrawn=WITHDRAWN,
)
# "X" never originates a router LSA: a node that exists for its prefix alone.
prefix_lsas = st.builds(
    PrefixLsa,
    origin=st.sampled_from(ROUTERS + ["X"]),
    prefix=st.sampled_from(PREFIXES),
    metric=st.sampled_from([0.0, 1.0, 2.0]),
    withdrawn=WITHDRAWN,
)
# One controller, and fake-node names disjoint from router names: the graph
# has one namespace, and neither builder supports a collision in it.
fake_lsas = st.builds(
    FakeNodeLsa,
    origin=st.just("ctl"),
    fake_node=st.sampled_from(["f0", "f1", "f2"]),
    anchor=st.sampled_from(ROUTERS),
    link_cost=COSTS,
    prefix=st.sampled_from(PREFIXES),
    prefix_cost=st.sampled_from([0.0, 1.0, 2.0]),
    forwarding_address=st.sampled_from(ROUTERS),
    withdrawn=WITHDRAWN,
)
SPF_RUN = "spf"
# Every example starts from a converged ring, so that adjacencies exist to
# re-cost and take away and most lies find their forwarding address up.
RING = [
    RouterLsa(
        origin=name,
        links=((ROUTERS[index - 1], 1.0), (ROUTERS[(index + 1) % len(ROUTERS)], 1.0)),
    )
    for index, name in enumerate(ROUTERS)
] + [PrefixLsa(origin=ROUTERS[index], prefix=prefix) for index, prefix in enumerate(PREFIXES)]
# What fail_link / restore_link / change_weight originate: a ring router's own
# LSA with either neighbour dropped, kept or re-costed.
ring_flaps = st.builds(
    lambda index, left, right: RouterLsa(
        origin=ROUTERS[index],
        links=tuple(
            (ROUTERS[(index + step) % len(ROUTERS)], cost)
            for step, cost in ((-1, left), (1, right))
            if cost is not None
        ),
    ),
    st.integers(min_value=0, max_value=len(ROUTERS) - 1),
    st.sampled_from([None, 1.0, 1.0, 2.0]),
    st.sampled_from([None, 1.0, 1.0, 2.0]),
)
events = st.lists(
    st.one_of(
        st.tuples(
            st.one_of(router_lsas, ring_flaps, ring_flaps, prefix_lsas, fake_lsas, fake_lsas),
            BUMPS,
        ),
        st.just(SPF_RUN),
    ),
    min_size=12,
    max_size=60,
)


class RouteOracle:
    """Per-source SPF and RIB carried from SPF run to SPF run, like a router's caches."""

    def __init__(self):
        self.version = None
        self.state = {}  # source -> (ShortestPaths, Rib)

    def run(self, graph):
        change = None if self.version is None else graph.changes_since(self.version)
        state = {}
        for source in graph.real_nodes:
            full_spf = compute_spf(graph, source)
            full_rib = compute_rib(graph, source, full_spf)
            if change is not None and source in self.state:
                prev_spf, prev_rib = self.state[source]
                spf = update_spf(prev_spf, graph, change.edges)
                assert spf.distance == full_spf.distance, source
                assert spf.next_hops == full_spf.next_hops, source
                assert spf.predecessors == full_spf.predecessors, source
                dirty = dirty_prefixes(prev_rib, prev_spf, graph, spf, change)
                rib = update_rib(prev_rib, graph, spf, dirty)
                assert rib.routes_by_prefix() == full_rib.routes_by_prefix(), source
            state[source] = (full_spf, full_rib)
        self.state = state
        self.version = graph.version
        graph.drop_history()  # as RouterProcess does after its SPF run


def fixed_once_live(lsdb, lsa):
    """Whether ``lsa`` would replace a live prefix LSA or withdraw a live
    router LSA: what a live graph refuses (routers never do either)."""
    current = lsdb.get(lsa.key)
    if current is None or current.withdrawn or lsa.sequence <= current.sequence:
        return False
    if replace(current, sequence=lsa.sequence) == lsa:
        return False  # a refresh
    return isinstance(lsa, PrefixLsa) or (isinstance(lsa, RouterLsa) and lsa.withdrawn)


class TestArbitraryLsaSequences:
    @settings(max_examples=300, deadline=None)
    @given(events=events, boot=st.integers(min_value=0, max_value=len(RING) + 8))
    def test_live_graph_equals_oracle_and_repairs_equal_recomputes(self, events, boot):
        """``boot`` LSAs go in before the graph is first built, the rest are
        deltas; once the graph is live, the deltas it refuses are skipped."""
        lsdb = LinkStateDatabase("R0")
        routes = RouteOracle()
        issued = {}
        for index, event in enumerate([(lsa, 1) for lsa in RING] + events):
            if event == SPF_RUN:
                if index >= boot:
                    routes.run(lsdb.graph())
                continue
            template, bump = event
            highest = issued.get(template.key, 0)
            lsa = replace(template, sequence=max(1, highest + bump))
            if index > boot and fixed_once_live(lsdb, lsa):
                continue
            issued[template.key] = max(lsa.sequence, highest)
            before = lsdb.version
            changed = lsdb.install(lsa)
            assert changed == (lsa.sequence > highest) and lsdb.version == before + changed
            if index >= boot:
                assert_matches_oracle(lsdb, f"after event {index}: {lsa}")
        routes.run(assert_matches_oracle(lsdb, "at the end"))

    def test_refresh_does_not_move_the_graph(self):
        lsdb = LinkStateDatabase("A")
        lsas = [
            RouterLsa(origin="A", links=(("B", 1.0),)),
            RouterLsa(origin="B", links=(("A", 1.0),)),
            PrefixLsa(origin="B", prefix=PREFIXES[0]),
            FakeNodeLsa(
                origin="ctl", fake_node="f0", anchor="A", prefix=PREFIXES[0],
                forwarding_address="B",
            ),
        ]
        for lsa in lsas:
            lsdb.install(lsa)
        graph = lsdb.graph()
        version = graph.version
        for lsa in lsas:
            assert lsdb.install(lsa.refresh())
        assert graph.version == version
        assert graph.changes_since(version).is_empty

    @pytest.mark.parametrize(
        "change",
        ["prefix withdrawn", "prefix re-costed", "router withdrawn"],
    )
    def test_live_graph_refuses_what_routers_never_originate(self, change):
        lsdb = LinkStateDatabase("A")
        router = RouterLsa(origin="B", links=())
        prefix = PrefixLsa(origin="B", prefix=PREFIXES[0])
        for lsa in (RouterLsa(origin="A", links=()), router, prefix):
            lsdb.install(lsa)
        graph = lsdb.graph()
        lsa = {
            "prefix withdrawn": prefix.withdraw(),
            "prefix re-costed": replace(prefix, sequence=2, metric=3.0),
            "router withdrawn": router.withdraw(),
        }[change]
        assert fixed_once_live(lsdb, lsa)
        version = graph.version
        with pytest.raises(TopologyError):
            lsdb.install(lsa)
        assert graph.version == version
        assert graph.announcers(PREFIXES[0]) == {"B": 0.0}

    def test_first_announcement_and_stale_withdrawal_apply_to_a_live_graph(self):
        lsdb = LinkStateDatabase("A")
        lsdb.install(RouterLsa(origin="A", links=(("B", 1.0),)))
        lsdb.install(RouterLsa(origin="B", links=(("A", 1.0),)))
        graph = lsdb.graph()
        late = PrefixLsa(origin="B", prefix=PREFIXES[1], metric=2.0)
        assert lsdb.install(late)  # boot ordering: the announcement after the graph
        assert graph.announcers(PREFIXES[1]) == {"B": 2.0}
        never_live = PrefixLsa(origin="X", prefix=PREFIXES[2]).withdraw()
        assert lsdb.install(never_live)
        assert_matches_oracle(lsdb)


# ---------------------------------------------------------------------- #
# One applied LSA = one log step
# ---------------------------------------------------------------------- #
class TestLogCountsLsas:
    def test_a_lie_is_one_step_however_much_it_moves(self):
        lsdb = LinkStateDatabase("A")
        for lsa in (
            RouterLsa(origin="A", links=(("B", 1.0), ("C", 1.0))),
            RouterLsa(origin="B", links=(("A", 1.0),)),
            RouterLsa(origin="C", links=(("A", 1.0),)),
        ):
            lsdb.install(lsa)
        graph = lsdb.graph()
        lie = FakeNodeLsa(
            origin="ctl", fake_node="f0", anchor="A", prefix=PREFIXES[0],
            forwarding_address="B",
        )
        before = graph.version
        lsdb.install(lie)
        assert len(graph._delta_log) == 1
        # Replaced in place: out and back in with new content, still one step.
        lsdb.install(replace(lie, sequence=2, forwarding_address="C", link_cost=2.0))
        assert len(graph._delta_log) == 2
        # A lie is not an SPF node: its steps name its prefix and no edge.
        assert graph.changes_since(before) == GraphChange(prefixes=frozenset({PREFIXES[0]}))
        # A router LSA that drops an adjacency and the lie that rode on it.
        lsdb.install(RouterLsa(origin="C", links=(), sequence=2))
        assert len(graph._delta_log) == 3
        assert not graph.is_fake("f0")
        change = graph.changes_since(0)
        assert change.prefixes == {PREFIXES[0]} and len(change.edges) == 2
        assert_matches_oracle(lsdb)

    def test_hundred_lie_wave_needs_no_full_spf(self):
        """Four steps per lie would overflow the 256-step log between two SPF
        runs of one router and silently fall back to a full Dijkstra."""
        topology = random_topology(30, edge_probability=0.15, seed=1)
        network = booted(topology)
        after_boot = network.spf_stats["spf_full_recomputes"]
        rng = random.Random(1)
        lies = []
        for index in range(100):
            anchor = rng.choice(topology.routers)
            lies.append(
                FakeNodeLsa(
                    origin="ctl",
                    fake_node=f"f{index}",
                    anchor=anchor,
                    link_cost=1.0,
                    prefix=rng.choice(topology.prefixes),
                    prefix_cost=float(rng.randint(1, 4)),
                    forwarding_address=rng.choice(topology.neighbors(anchor)),
                )
            )
        network.inject(lies, at_router=topology.routers[0])
        network.converge()
        assert network.spf_stats["spf_full_recomputes"] == after_boot
        assert_fibs_match_static(network, lies)


# ---------------------------------------------------------------------- #
# (c) deltas that cancel inside one spf_delay
# ---------------------------------------------------------------------- #
class TestCancellingDeltas:
    def test_fail_and_restore_before_any_spf_run(self, oracle_checks):
        network = booted(build_demo_topology())
        before = {name: process.fib for name, process in network.routers.items()}
        installs = {name: process.fib_version for name, process in network.routers.items()}
        hits = network.spf_stats["spf_cache_hits"]
        full = network.spf_stats["spf_full_recomputes"], network.spf_stats["rib_full_recomputes"]
        network.fail_link("B", "R2")
        network.restore_link("B", "R2")  # same instant: no router ran SPF in between
        network.converge()
        assert_fibs_match_static(network)
        # The graph moved and moved back, so its version moved: where the
        # per-SPF rebuild diffed two equal graphs into a pure cache hit, the
        # live graph hands SPF two deltas that cancel.  The repair finds
        # nothing to do and returns the previous objects, which the router
        # installs again — one equal FIB per router, no full recompute.
        for name, process in network.routers.items():
            assert process.fib is before[name]
            assert process.fib_version == installs[name] + 1
        stats = network.spf_stats
        assert stats["spf_cache_hits"] == hits
        assert (stats["spf_full_recomputes"], stats["rib_full_recomputes"]) == full
        assert oracle_checks


# ---------------------------------------------------------------------- #
# (d) count guard
# ---------------------------------------------------------------------- #
@pytest.fixture
def builds(monkeypatch):
    """Record every ``from_lsdb`` call and every database's first build.

    Returns ``(calls, contents, owners)``: one entry per ``from_lsdb`` call,
    and per first build (in build order) the LSA mapping the database held
    and its owner.
    """
    calls, contents, owners = [], [], []

    def counting(cls, lsas):
        calls.append(1)
        return _FROM_LSDB(cls, lsas)

    def recording(self, lsdb):
        contents.append(dict(lsdb._lsas))
        owners.append(lsdb.owner)
        return _BUILD(self, lsdb)

    monkeypatch.setattr(ComputationGraph, "from_lsdb", classmethod(counting))
    monkeypatch.setattr(GraphBuilds, "build", recording)
    return calls, contents, owners


_BUILD = GraphBuilds.build


def distinct(contents):
    return [content for index, content in enumerate(contents) if content not in contents[:index]]


class TestFromLsdbCallCount:
    def test_one_build_per_boot_content_then_none(self, builds):
        calls, contents, _ = builds
        network = booted(build_demo_topology())
        assert len(contents) == len(network.routers)
        assert len(calls) == len(distinct(contents)) == 1
        del calls[:]
        lies = demo_lies()
        network.inject(lies, at_router="R3")
        network.converge()
        network.fail_link("B", "R2")
        network.converge()
        network.restore_link("B", "R2")
        network.converge()
        network.inject([lie.withdraw() for lie in lies], at_router="R3")
        network.converge()
        assert calls == []
        assert len(contents) == len(network.routers)
        assert_fibs_match_static(network)

    def test_a_router_that_builds_early_falls_back_to_its_own_build(self, builds):
        calls, contents, owners = builds
        network = IgpNetwork(build_demo_topology())
        # R1 runs its first SPF at once, on its own LSAs alone.
        network.routers["R1"].timers = RouterTimers(spf_delay=0.0)
        network.start()
        network.converge()
        assert len(distinct(contents)) == len(calls) == 2
        assert owners[0] == "R1" and len(contents[0]) < len(network.routers["R1"].lsdb)
        for process in network.routers.values():
            assert_matches_oracle(process.lsdb, "after boot")
        assert_fibs_match_static(network)


# ---------------------------------------------------------------------- #
# (e) a boot's shared builds: copies, one per router
# ---------------------------------------------------------------------- #
def ordered(mapping):
    """``mapping`` as nested item lists, so that ``==`` compares insertion order too."""
    return [
        (key, ordered(value) if isinstance(value, dict) else value)
        for key, value in mapping.items()
    ]


def ordered_state(graph):
    return {name: ordered(part) for name, part in graph_state(graph).items()}


def shares_a_dict(first, second):
    """Whether two graphs hold any edge or announcement dict in common."""
    for name, part in graph_state(first).items():
        other = graph_state(second)[name]
        if part is other or any(
            isinstance(value, dict) and value is other.get(key)
            for key, value in part.items()
        ):
            return True
    return False


class TestSharedBootBuilds:
    @pytest.mark.parametrize(
        "topology",
        [
            build_demo_topology,
            lambda: random_topology(12, edge_probability=0.3, seed=4),
            lambda: synthetic_isp(core_size=6, pops=6, seed=7),
        ],
    )
    def test_every_router_holds_the_from_lsdb_build_in_its_order(self, builds, topology):
        calls, _, _ = builds
        network = booted(topology())
        assert len(calls) == 1
        for process in network.routers.values():
            graph = process.lsdb.graph()
            oracle = _FROM_LSDB(ComputationGraph, process.lsdb.live_lsas())
            assert ordered_state(graph) == ordered_state(oracle), process.name
            assert graph.version == 0 and graph.deltas_since(0) == ()

    def test_lies_in_the_boot_database_are_tracked_per_router(self, builds):
        calls, _, _ = builds
        network = IgpNetwork(build_demo_topology())
        network.start()
        lies = demo_lies()
        network.inject(lies, at_router="R3")  # flooded before any router's first SPF
        network.converge()
        assert len(calls) == 1
        graphs = [process.lsdb.graph() for process in network.routers.values()]
        assert all(graph.is_fake("fA1") and graph.is_fake("fB") for graph in graphs)
        assert_fibs_match_static(network, lies)
        network.fail_link("A", "R1")  # the adjacency fA1 and fA2 forward over
        network.converge()
        for graph in graphs:
            assert not graph.is_fake("fA1") and not graph.is_fake("fA2")
            assert graph.is_fake("fB")
        network.restore_link("A", "R1")
        network.converge()
        assert all(graph.is_fake("fA1") and graph.is_fake("fA2") for graph in graphs)
        assert_fibs_match_static(network, lies)
        assert len(calls) == 1

    def test_a_change_to_one_router_leaves_its_peers_untouched(self, builds):
        calls, _, owners = builds
        network = booted(build_demo_topology())
        # The router whose from_lsdb build the memo copied for the others.
        target = network.routers[owners[0]].lsdb
        peers = [process.lsdb for process in network.routers.values() if process.lsdb is not target]
        before = {lsdb.owner: (ordered_state(lsdb.graph()), lsdb.graph().version) for lsdb in peers}
        graph = target.graph()
        lie = replace(demo_lies()[0], sequence=1)
        target.install(lie)
        assert graph.is_fake(lie.fake_node)
        own = target.get(LsaKey(kind="router", origin=target.owner))
        lost = own.links[0][0]
        target.install(
            replace(own, sequence=own.sequence + 1, links=own.links[1:])
        )
        assert lost not in graph.successors(target.owner)
        assert target.owner not in graph.successors(lost)
        assert graph.version > 0
        assert_matches_oracle(target, "after its own changes")
        for lsdb in peers:
            assert (ordered_state(lsdb.graph()), lsdb.graph().version) == before[lsdb.owner]
            assert not lsdb.graph().is_fake(lie.fake_node)
        # The memo's build did not move either: a late database on the boot
        # content gets a copy equal to a fresh from_lsdb build.
        late = LinkStateDatabase("late")
        late.builds = peers[0].builds
        for lsa in peers[0].all_lsas():
            late.install(lsa)
        built = len(calls)
        oracle = _FROM_LSDB(ComputationGraph, late.live_lsas())
        assert ordered_state(late.graph()) == ordered_state(oracle)
        assert len(calls) == built

    def test_no_two_graphs_share_a_dict_within_or_across_networks(self):
        networks = [booted(build_demo_topology()) for _ in range(2)]
        assert networks[0].routers["A"].lsdb.builds is not networks[1].routers["A"].lsdb.builds
        graphs = [
            process.lsdb.graph() for network in networks for process in network.routers.values()
        ]
        assert len({id(graph) for graph in graphs}) == len(graphs)
        for index, graph in enumerate(graphs):
            for other in graphs[index + 1:]:
                assert not shares_a_dict(graph, other)


class TestCopy:
    def test_a_copy_has_the_state_in_order_and_fresh_history(self):
        lsdb = LinkStateDatabase("A")
        for lsa in (
            RouterLsa(origin="A", links=(("B", 1.0), ("C", 2.0))),
            RouterLsa(origin="B", links=(("A", 1.0),)),
            RouterLsa(origin="C", links=(("A", 2.0),)),
            PrefixLsa(origin="C", prefix=PREFIXES[1], metric=1.0),
        ):
            lsdb.install(lsa)
        graph = lsdb.graph()
        lsdb.install(
            FakeNodeLsa(
                origin="ctl", fake_node="f0", anchor="A", prefix=PREFIXES[0],
                forwarding_address="B",
            )
        )
        lsdb.install(PrefixLsa(origin="B", prefix=PREFIXES[2], metric=3.0))
        assert graph.version > 0 and graph._delta_log
        copy = graph.copy()
        assert ordered_state(copy) == ordered_state(graph)
        assert copy.version == 0 and copy._delta_log == []
        assert copy.changes_since(0).is_empty and copy.deltas_since(graph.version) is None
        assert copy.fake_info("f0") is graph.fake_info("f0")
        assert not shares_a_dict(copy, graph)
        copy.remove_edge("A", "C")
        copy.remove_fake_node("f0")
        copy.announce("A", PREFIXES[2], 0.0)
        assert_matches_oracle(lsdb, "after its copy moved")
        assert graph.is_fake("f0") and graph.announcers(PREFIXES[2]) == {"B": 3.0}

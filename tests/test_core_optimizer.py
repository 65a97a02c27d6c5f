"""Tests for the min-max link-utilisation LP."""

import heapq
import random

import numpy as np
import pytest
from scipy import sparse

from repro.core.optimizer import MinMaxLoadOptimizer, _remove_cycles
from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.forwarding import route_fractional
from repro.dataplane.linkstats import LinkLoads
from repro.igp.network import compute_static_fibs
from repro.igp.topology import Topology
from repro.topologies.demo import BLUE_PREFIX, build_demo_topology
from repro.topologies.isp import synthetic_isp
from repro.topologies.random import random_topology
from repro.topologies.zoo import dumbbell
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix
from repro.util.units import mbps


class TestDemoInstance:
    def test_fig2_steady_state_objective(self, fig2_demands):
        """The min-max optimum of the t>35s situation is (31+31/3)/2 / 32."""
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        result = optimizer.optimize(fig2_demands)
        expected = (mbps(31) + mbps(31) / 3) / 2 / mbps(32)
        assert result.objective == pytest.approx(expected, rel=1e-4)

    def test_fractions_match_paper_splits(self, fig2_demands):
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        fractions = optimizer.optimize(fig2_demands).to_fractions()[BLUE_PREFIX]
        assert fractions["A"]["B"] == pytest.approx(1 / 3, abs=1e-3)
        assert fractions["A"]["R1"] == pytest.approx(2 / 3, abs=1e-3)
        assert fractions["B"]["R2"] == pytest.approx(0.5, abs=1e-3)
        assert fractions["B"]["R3"] == pytest.approx(0.5, abs=1e-3)

    def test_flow_conservation_holds(self, fig2_demands):
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        result = optimizer.optimize(fig2_demands)
        flows = result.flows[BLUE_PREFIX]
        for router in ["A", "B", "R1", "R2", "R3", "R4"]:
            inbound = sum(v for (s, t), v in flows.items() if t == router)
            outbound = sum(v for (s, t), v in flows.items() if s == router)
            demand = fig2_demands.rate(router, BLUE_PREFIX)
            assert outbound - inbound == pytest.approx(demand, rel=1e-6, abs=1.0)

    def test_optimum_beats_default_routing(self, fig2_demands):
        topology = build_demo_topology()
        optimizer = MinMaxLoadOptimizer(topology)
        optimum = optimizer.optimize(fig2_demands).objective
        default = route_fractional(
            compute_static_fibs(topology), fig2_demands
        ).loads.max_utilization(topology)
        assert optimum < default

    def test_single_prefix_subset_optimisation(self, fig2_demands):
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        result = optimizer.optimize(fig2_demands, prefixes=[BLUE_PREFIX])
        assert result.prefixes == (BLUE_PREFIX,)

    def test_link_loads_view(self, fig2_demands):
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        loads = optimizer.optimize(fig2_demands).link_loads()
        assert loads.max_utilization(build_demo_topology()) == pytest.approx(0.6458, abs=1e-3)


class TestNoiseFloor:
    def test_a_prefix_with_a_tiny_share_keeps_its_flows(self):
        """A prefix carrying 1e-5 of the offered load is routed, not LP noise:
        its flows survive the solver-noise threshold and deliver its demand."""
        topology = build_demo_topology()
        tiny = Prefix.parse("10.9.0.0/24")
        topology.attach_prefix("R4", tiny, cost=0.0)
        share = mbps(62) * 1e-5
        demands = TrafficMatrix.from_dict({
            ("A", BLUE_PREFIX): mbps(31),
            ("B", BLUE_PREFIX): mbps(31),
            ("B", tiny): share,
        })
        flows = MinMaxLoadOptimizer(topology).optimize(demands).flows[tiny]
        assert flows
        for router in topology.routers:
            outbound = sum(v for (s, t), v in flows.items() if s == router)
            inbound = sum(v for (s, t), v in flows.items() if t == router)
            net = {"B": share, "R4": -share}.get(router, 0.0)
            assert outbound - inbound == pytest.approx(net, rel=1e-6, abs=1e-6), router


class TestPathStretch:
    def test_unrestricted_lp_spreads_single_source_over_three_paths(self):
        demands = TrafficMatrix.from_dict({("B", BLUE_PREFIX): mbps(31)})
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        fractions = optimizer.optimize(demands).to_fractions()[BLUE_PREFIX]
        # Without a stretch limit the LP also detours through A-R1-R4.
        assert len(fractions["B"]) == 3

    def test_stretch_one_keeps_only_reasonable_paths(self):
        demands = TrafficMatrix.from_dict({("B", BLUE_PREFIX): mbps(31)})
        optimizer = MinMaxLoadOptimizer(build_demo_topology(), max_stretch=1.0)
        fractions = optimizer.optimize(demands).to_fractions()[BLUE_PREFIX]
        assert set(fractions["B"]) == {"R2", "R3"}
        assert fractions["B"]["R2"] == pytest.approx(0.5, abs=1e-3)

    def test_stretch_zero_forces_shortest_paths(self):
        demands = TrafficMatrix.from_dict({("A", BLUE_PREFIX): mbps(10)})
        optimizer = MinMaxLoadOptimizer(build_demo_topology(), max_stretch=0.0)
        fractions = optimizer.optimize(demands).to_fractions()[BLUE_PREFIX]
        assert fractions["A"] == {"B": 1.0}

    def test_negative_stretch_rejected(self):
        with pytest.raises(ControllerError):
            MinMaxLoadOptimizer(build_demo_topology(), max_stretch=-1.0)


class TestGeneralProperties:
    def test_objective_can_exceed_one_when_overloaded(self):
        topology = dumbbell(pairs=1, edge_capacity=mbps(10))
        prefix = topology.attachments_of("Dst0")[0].prefix
        demands = TrafficMatrix.from_dict({("Src0", prefix): mbps(20)})
        result = MinMaxLoadOptimizer(topology).optimize(demands)
        assert result.objective > 1.0

    def test_background_load_shifts_optimum(self):
        topology = build_demo_topology()
        demands = TrafficMatrix.from_dict({("B", BLUE_PREFIX): mbps(10)})
        background = LinkLoads()
        background.add("B", "R2", mbps(30))
        with_background = MinMaxLoadOptimizer(topology, background=background).optimize(demands)
        without = MinMaxLoadOptimizer(topology).optimize(demands)
        assert with_background.objective > without.objective
        # With a nearly full B-R2, most demand must move to B-R3.
        fractions = with_background.to_fractions()[BLUE_PREFIX]
        assert fractions["B"].get("R3", 0.0) > 0.5

    def test_unknown_prefix_rejected(self):
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        demands = TrafficMatrix.from_dict({("A", "203.0.113.0/24"): 1.0})
        with pytest.raises(Exception):
            optimizer.optimize(demands)

    def test_empty_demands_rejected(self):
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        with pytest.raises(ControllerError):
            optimizer.optimize(TrafficMatrix())

    def test_solution_has_no_cycles(self):
        for seed in range(3):
            topology = random_topology(10, seed=seed)
            prefix = topology.prefixes[0]
            ingresses = [r for r in topology.routers if r != topology.prefix_attachments(prefix)[0].router]
            demands = TrafficMatrix.from_dict({(ingresses[0], prefix): mbps(5), (ingresses[1], prefix): mbps(5)})
            result = MinMaxLoadOptimizer(topology).optimize(demands)
            flows = result.flows[prefix]
            # Kahn-style check: positive-flow subgraph must be a DAG.
            nodes = {n for link in flows for n in link}
            edges = {link for link, v in flows.items() if v > 1e-6}
            removed = True
            while removed and edges:
                removed = False
                sinks = {n for n in nodes if not any(s == n for s, _ in edges)}
                new_edges = {(s, t) for (s, t) in edges if t not in sinks and s not in sinks}
                if new_edges != edges:
                    edges = new_edges
                    removed = True
                nodes = {n for link in edges for n in link}
            assert not edges, f"cycle remaining in LP solution for seed {seed}"

    def test_objective_never_above_worst_single_path(self, fig2_demands):
        """Optimal min-max cannot be worse than any feasible routing."""
        topology = build_demo_topology()
        result = MinMaxLoadOptimizer(topology).optimize(fig2_demands)
        default_util = route_fractional(
            compute_static_fibs(topology), fig2_demands
        ).loads.max_utilization(topology)
        assert result.objective <= default_util + 1e-9

    def test_min_fraction_filtering(self, fig2_demands):
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        result = optimizer.optimize(fig2_demands)
        coarse = result.to_fractions(min_fraction=0.4)
        # At A, the 1/3 share toward B falls below the 0.4 threshold and is
        # dropped; the remaining fraction is renormalised to 1.0.
        assert coarse[BLUE_PREFIX]["A"] == {"R1": pytest.approx(1.0)}


class TestBackgroundLoadAwareCaching:
    """The measurement-driven path: every solve reads the current background.

    Background loads are live measurements; the optimizer keeps no LP
    solution memo, so the next solve after a measurement moved always sees
    the new loads.
    """

    def background(self, load=mbps(4)):
        loads = LinkLoads()
        loads.add("R1", "R4", load)
        return loads

    def test_changed_background_misses_exact_cache(self, fig2_demands):
        topology = build_demo_topology()
        optimizer = MinMaxLoadOptimizer(topology, background=self.background())
        first = optimizer.optimize(fig2_demands)
        optimizer.background = self.background(mbps(12))
        changed = optimizer.optimize(fig2_demands)
        # The second solve actually saw the new background (R1->R4 carries
        # 12 of 32 Mbit/s, so less optimised flow fits there).
        assert changed.objective > first.objective
        fresh = MinMaxLoadOptimizer(topology, background=self.background(mbps(12)))
        assert changed == fresh.optimize(fig2_demands)


# ---------------------------------------------------------------------- #
# The LP handed to the solver: array assembly against the scalar oracle
# ---------------------------------------------------------------------- #
def reference_distance_to_prefix(topology, prefix):
    """Backward multi-source Dijkstra, rebuilt from the topology on every call."""
    reverse = {router: [] for router in topology.routers}
    for link in topology.links:
        reverse[link.target].append((link.source, link.weight))
    distances = {}
    heap = []
    for attachment in topology.prefix_attachments(prefix):
        heapq.heappush(heap, (attachment.cost, attachment.router))
    while heap:
        cost, node = heapq.heappop(heap)
        if node in distances:
            continue
        distances[node] = cost
        for predecessor, weight in reverse[node]:
            if predecessor not in distances:
                heapq.heappush(heap, (cost + weight, predecessor))
    return distances


def reference_linprog_arguments(optimizer, demands, prefixes):
    """The scalar LP assembly ``optimize`` used before it went to arrays.

    One Python iteration per (prefix, router, link): slow, but every
    coefficient is written exactly where the model's docstring says it
    goes, which makes it the oracle for the index arithmetic.
    """
    topology = optimizer.topology
    links = [link.key for link in topology.links]
    link_index = {key: i for i, key in enumerate(links)}
    capacities = np.array([topology.link(*key).capacity for key in links])

    num_links = len(links)
    num_vars = len(prefixes) * num_links + 1  # +1 for theta
    theta_index = num_vars - 1
    routers = topology.routers

    objective = np.full(num_vars, 0.0)
    objective[theta_index] = 1.0
    scale = max(demands.total(), 1.0)
    objective[:theta_index] = optimizer.flow_penalty / scale

    eq_rows, eq_cols, eq_vals, eq_rhs = [], [], [], []
    row = 0
    for p_index, prefix in enumerate(prefixes):
        attachments = {
            attachment.router for attachment in topology.prefix_attachments(prefix)
        }
        per_ingress = demands.demands_for(prefix)
        base = p_index * num_links
        for router in routers:
            if router in attachments:
                continue
            for link_key, link_idx in link_index.items():
                source, target = link_key
                if source == router:
                    eq_rows.append(row)
                    eq_cols.append(base + link_idx)
                    eq_vals.append(1.0)
                elif target == router:
                    eq_rows.append(row)
                    eq_cols.append(base + link_idx)
                    eq_vals.append(-1.0)
            eq_rhs.append(per_ingress.get(router, 0.0))
            row += 1

    ub_rows, ub_cols, ub_vals, ub_rhs = [], [], [], []
    for link_idx, link_key in enumerate(links):
        for p_index in range(len(prefixes)):
            ub_rows.append(link_idx)
            ub_cols.append(p_index * num_links + link_idx)
            ub_vals.append(1.0)
        ub_rows.append(link_idx)
        ub_cols.append(theta_index)
        ub_vals.append(-float(capacities[link_idx]))
        background_load = 0.0
        if optimizer.background is not None:
            background_load = optimizer.background.load(*link_key)
        ub_rhs.append(-background_load)

    a_eq = sparse.coo_matrix((eq_vals, (eq_rows, eq_cols)), shape=(row, num_vars)).tocsr()
    a_ub = sparse.coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(num_links, num_vars)).tocsr()

    bounds = [(0.0, None)] * num_vars
    if optimizer.max_stretch is not None:
        for p_index, prefix in enumerate(prefixes):
            base = p_index * num_links
            distances = reference_distance_to_prefix(topology, prefix)
            for link_key, link_idx in link_index.items():
                source, target = link_key
                source_dist = distances.get(source)
                target_dist = distances.get(target)
                weight = topology.link(source, target).weight
                usable = (
                    source_dist is not None
                    and target_dist is not None
                    and weight + target_dist <= source_dist + optimizer.max_stretch + 1e-9
                )
                if not usable:
                    bounds[base + link_idx] = (0.0, 0.0)

    return {
        "c": objective,
        "A_ub": a_ub,
        "b_ub": np.array(ub_rhs),
        "A_eq": a_eq,
        "b_eq": np.array(eq_rhs),
        "bounds": bounds,
    }


def assert_same_lp(actual, expected):
    """Bit-for-bit equality of two ``linprog`` argument sets (``-0.0 != 0.0``)."""
    assert set(actual) == set(expected)
    for name in ("c", "b_ub", "b_eq"):
        assert actual[name].dtype == expected[name].dtype == np.float64, name
        assert actual[name].tobytes() == expected[name].tobytes(), name
    for name in ("A_ub", "A_eq"):
        ours, theirs = actual[name], expected[name]
        assert ours.shape == theirs.shape, name
        assert ours.has_canonical_format and theirs.has_canonical_format, name
        assert ours.indptr.tolist() == theirs.indptr.tolist(), name
        assert ours.indices.tolist() == theirs.indices.tolist(), name
        assert ours.data.tobytes() == theirs.data.tobytes(), name
    unbounded = np.array(
        [(low, np.inf if high is None else high) for low, high in expected["bounds"]],
        dtype=float,
    )
    assert actual["bounds"].shape == unbounded.shape
    assert actual["bounds"].tobytes() == unbounded.tobytes()


def isp_instance():
    topology = synthetic_isp(6, 6, 2)
    rng = random.Random(3)
    demands = TrafficMatrix()
    for prefix in rng.sample(topology.prefixes, 5):
        announcing = {a.router for a in topology.prefix_attachments(prefix)}
        for ingress in rng.sample([r for r in topology.routers if r not in announcing], 3):
            demands.add(ingress, prefix, mbps(rng.randint(1, 9)))
    return topology, demands


def multi_homed_instance():
    """Blue announced at C (cost 0) and at R3 (cost 2): two sinks, two stretch sources."""
    topology = build_demo_topology()
    topology.attach_prefix("R3", BLUE_PREFIX, cost=2.0)
    demands = TrafficMatrix.from_dict({("A", BLUE_PREFIX): mbps(9), ("B", BLUE_PREFIX): mbps(4)})
    return topology, demands


def announcing_ingress_instance():
    """6 of the 10 Mbit/s enter at C, which announces blue: delivered locally, no row."""
    topology = build_demo_topology()
    demands = TrafficMatrix.from_dict({("C", BLUE_PREFIX): mbps(6), ("A", BLUE_PREFIX): mbps(4)})
    return topology, demands


def unreachable_router_instance():
    """``Stub`` hears from A over a one-way link and has no way out (no stretch distance)."""
    topology = build_demo_topology()
    topology.add_router("Stub")
    topology.add_directed_link("A", "Stub", weight=1.0)
    topology.add_router("Island")
    demands = TrafficMatrix.from_dict({("A", BLUE_PREFIX): mbps(9), ("B", BLUE_PREFIX): mbps(4)})
    return topology, demands


def demo_instance():
    topology = build_demo_topology()
    demands = TrafficMatrix.from_dict({("A", BLUE_PREFIX): mbps(31), ("B", BLUE_PREFIX): mbps(31)})
    return topology, demands


def some_background(topology):
    background = LinkLoads()
    for index, link in enumerate(topology.links):
        if index % 3 == 0:
            background.add(link.source, link.target, mbps(1) + 1000.0 * index)
    return background


LP_INSTANCES = {
    "fig2-demo": demo_instance,
    "synthetic-isp": isp_instance,
    "multi-homed-prefix": multi_homed_instance,
    "ingress-announces-prefix": announcing_ingress_instance,
    "unreachable-router": unreachable_router_instance,
}


class TestAssemblyMatchesScalarOracle:
    """``_linprog_arguments`` hands HiGHS the very LP the triple loop built."""

    @pytest.mark.parametrize("with_background", [False, True], ids=["no-bg", "bg"])
    @pytest.mark.parametrize("max_stretch", [None, 0.0, 1.0], ids=["free", "stretch0", "stretch1"])
    @pytest.mark.parametrize("instance", sorted(LP_INSTANCES))
    def test_lp_inputs_bit_identical(self, instance, max_stretch, with_background):
        topology, demands = LP_INSTANCES[instance]()
        background = some_background(topology) if with_background else None
        optimizer = MinMaxLoadOptimizer(topology, background=background, max_stretch=max_stretch)
        prefixes = tuple(sorted(set(demands.prefixes)))
        actual = optimizer._linprog_arguments(demands, prefixes)
        assert_same_lp(actual, reference_linprog_arguments(optimizer, demands, prefixes))
        # The solver accepts it, and a second assembly off the warm model
        # is the same LP again.
        assert optimizer.optimize(demands).feasible
        assert_same_lp(optimizer._linprog_arguments(demands, prefixes), actual)

    def test_prefix_subset_and_explicit_zero_background(self):
        """A prefix subset keeps block offsets right; ``-0.0`` survives on b_ub."""
        topology, demands = isp_instance()
        optimizer = MinMaxLoadOptimizer(topology, background=LinkLoads(), max_stretch=1.0)
        prefixes = tuple(sorted(demands.prefixes))[1:4]
        actual = optimizer._linprog_arguments(demands, prefixes)
        assert_same_lp(actual, reference_linprog_arguments(optimizer, demands, prefixes))
        assert np.signbit(actual["b_ub"]).all()

    def test_every_router_announces_the_prefix(self):
        """No conservation row at all: an empty ``A_eq`` of the right width."""
        topology = Topology()
        topology.add_routers(["X", "Y"])
        topology.add_link("X", "Y")
        topology.attach_prefix("X", "10.9.0.0/24")
        topology.attach_prefix("Y", "10.9.0.0/24")
        demands = TrafficMatrix.from_dict({("X", "10.9.0.0/24"): mbps(1)})
        optimizer = MinMaxLoadOptimizer(topology, max_stretch=1.0)
        prefixes = tuple(demands.prefixes)
        actual = optimizer._linprog_arguments(demands, prefixes)
        assert actual["A_eq"].shape == (0, 3)
        assert_same_lp(actual, reference_linprog_arguments(optimizer, demands, prefixes))
        assert optimizer.optimize(demands).flows == {prefixes[0]: {}}


class TestModelInvalidation:
    """One long-lived optimizer tracks its topology: after every kind of
    mutation its answer is a freshly constructed optimizer's, to the repr."""

    def check(self, optimizer, demands):
        fresh = MinMaxLoadOptimizer(
            optimizer.topology, background=optimizer.background, max_stretch=optimizer.max_stretch
        )
        assert repr(optimizer.optimize(demands)) == repr(fresh.optimize(demands))

    def test_result_follows_every_topology_and_background_change(self):
        topology, demands = isp_instance()
        optimizer = MinMaxLoadOptimizer(topology, max_stretch=1.0)
        self.check(optimizer, demands)

        some_link = topology.links[0]
        topology.set_weight(some_link.source, some_link.target, some_link.weight + 3)
        self.check(optimizer, demands)

        topology.remove_link("Core0", "Core1")
        self.check(optimizer, demands)
        topology.add_link("Core0", "Core1", weight=5, capacity=mbps(20))
        self.check(optimizer, demands)

        prefix = demands.prefixes[0]
        topology.attach_prefix("Core2", prefix, cost=1.0)
        self.check(optimizer, demands)

        topology.add_router("Spare")
        self.check(optimizer, demands)
        topology.add_link("Spare", "Core3", weight=1, capacity=mbps(50))
        topology.add_link("Spare", "Core4", weight=1, capacity=mbps(50))
        self.check(optimizer, demands)

        optimizer.background = some_background(topology)
        self.check(optimizer, demands)
        optimizer.max_stretch = None
        self.check(optimizer, demands)

    def test_reassigned_topology_object_is_noticed(self):
        """Two topologies can share a revision number; the model keys on the object too."""

        def line(capacity):
            topology = Topology()
            topology.add_routers(["X", "Y", "Z"])
            topology.add_link("X", "Y", capacity=capacity)
            topology.add_link("Y", "Z", capacity=capacity)
            topology.attach_prefix("Z", "10.9.0.0/24")
            return topology

        wide, narrow = line(mbps(10)), line(mbps(5))
        assert wide.revision == narrow.revision
        demands = TrafficMatrix.from_dict({("X", "10.9.0.0/24"): mbps(1)})
        optimizer = MinMaxLoadOptimizer(wide)
        assert optimizer.optimize(demands).objective == pytest.approx(0.1)
        optimizer.topology = narrow
        assert optimizer.optimize(demands).objective == pytest.approx(0.2)


class TestUnknownIngress:
    def test_demand_entering_outside_the_topology_is_refused(self):
        """It used to be skipped silently: 1 of 6 Mbit/s planned, healthy objective."""
        optimizer = MinMaxLoadOptimizer(build_demo_topology())
        demands = TrafficMatrix.from_dict(
            {("A", BLUE_PREFIX): mbps(1), ("Nowhere", BLUE_PREFIX): mbps(5)}
        )
        with pytest.raises(ControllerError, match=r"'Nowhere'.*not a router") as raised:
            optimizer.optimize(demands)
        assert str(BLUE_PREFIX) in str(raised.value)

    def test_demand_entering_where_the_prefix_is_announced_stays_legal(self):
        topology, demands = announcing_ingress_instance()
        result = MinMaxLoadOptimizer(topology).optimize(demands)
        carried_out_of_a = sum(v for (s, _), v in result.flows[BLUE_PREFIX].items() if s == "A")
        assert carried_out_of_a == pytest.approx(mbps(4), rel=1e-6)
        assert not any(source == "C" for source, _ in result.flows[BLUE_PREFIX])

    def test_unknown_ingress_of_a_prefix_not_being_optimised_is_ignored(self):
        topology = build_demo_topology()
        topology.attach_prefix("R4", "10.77.0.0/24")
        demands = TrafficMatrix.from_dict(
            {("A", BLUE_PREFIX): mbps(1), ("Nowhere", "10.77.0.0/24"): mbps(5)}
        )
        result = MinMaxLoadOptimizer(topology).optimize(demands, prefixes=[BLUE_PREFIX])
        assert result.feasible


class TestCycleRemoval:
    def test_cycle_is_cancelled_and_the_rest_kept(self):
        flows = {
            ("s", "a"): 5.0,
            ("a", "b"): 7.0,
            ("b", "c"): 2.0,
            ("c", "a"): 2.0,
            ("b", "t"): 5.0,
        }
        assert _remove_cycles(flows) == {("s", "a"): 5.0, ("a", "b"): 5.0, ("b", "t"): 5.0}
        assert flows[("a", "b")] == 7.0  # the input is left alone

    def test_first_cycle_in_sorted_start_order_goes_first(self):
        """Two cycles sharing a->b: the one found from the smallest start
        node, following successors in insertion order, is cancelled first."""
        flows = {
            ("a", "b"): 3.0,
            ("b", "c"): 2.0,
            ("c", "a"): 2.0,
            ("b", "d"): 2.0,
            ("d", "a"): 2.0,
        }
        # a->b->c->a goes first (slack 2) and leaves a->b with 1, which then
        # bounds what the second cycle a->b->d->a can cancel.
        assert _remove_cycles(flows) == {("b", "d"): 1.0, ("d", "a"): 1.0}

    def test_acyclic_flow_is_returned_unchanged(self):
        flows = {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "d"): 1.0, ("c", "d"): 1.0}
        assert _remove_cycles(flows) == flows


class TestWorkGuards:
    def test_stretch_distances_run_once_per_prefix_on_an_unchanged_topology(self, monkeypatch):
        """Five reactions, each with a changed demand, on a 60-router ISP."""
        topology = synthetic_isp(20, 20, 2, seed=5)
        assert topology.num_routers == 60
        rng = random.Random(1)
        prefixes = rng.sample(topology.prefixes, 6)
        runs = []
        original = MinMaxLoadOptimizer._distance_to_prefix

        def counting(self, prefix):
            runs.append(prefix)
            return original(self, prefix)

        monkeypatch.setattr(MinMaxLoadOptimizer, "_distance_to_prefix", counting)
        optimizer = MinMaxLoadOptimizer(topology, max_stretch=1.0)
        for reaction in range(5):
            demands = TrafficMatrix()
            for prefix in prefixes:
                announcing = {a.router for a in topology.prefix_attachments(prefix)}
                ingress = next(r for r in topology.routers if r not in announcing)
                demands.add(ingress, prefix, mbps(2 + reaction))
            assert optimizer.optimize(demands).feasible
        assert sorted(runs) == sorted(prefixes)

        topology.set_weight("Core0", "Core1", 7)
        optimizer.optimize(demands)
        assert len(runs) == 2 * len(prefixes)

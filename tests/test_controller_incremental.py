"""Differential property tests for the incremental controller reconciler.

Mirror of the PR 1–3 suites at the top of the stack: after an arbitrary
sequence of requirement additions/updates/removals, link-weight events, and
alarm-driven ``react()`` calls through the on-demand load
balancer, the plan-cache reconciler (:class:`FibbingController`) must be
indistinguishable from the clear-and-replay oracle of ``tests/oracles.py``:
the installed lie sets (exact
:class:`~repro.igp.lsa.FakeNodeLsa` objects, fake-node names included), the
``current_fibs()`` of every router, and the data-plane rates/paths of a flow
population routed over those FIBs all bit-identical.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.augmentation import synthesize_lie_shapes
from repro.core.controller import FibbingController
from repro.core.lies import lie_set_digest
from repro.core.loadbalancer import OnDemandLoadBalancer
from repro.core.policies import LoadBalancerPolicy
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.engine import DataPlaneEngine
from repro.experiments.scaling import build_ring_topology, churn_requirement
from repro.monitoring.alarms import AlarmEvent
from repro.topologies.random import random_topology
from repro.util.errors import ControllerError
from repro.util.timeline import Timeline

from oracles import ClearAndReplayBalancer, ClearAndReplayController


class StubClients:
    """Stands in for the client registry: a directly mutable demand matrix."""

    def __init__(self):
        self.matrix = TrafficMatrix()

    def demand_matrix(self):
        return self.matrix


class DualControllerDriver:
    """Drives a reconciler and a clear-and-replay oracle in lockstep.

    Both controllers manage the same (shared) topology and see the same
    requirement waves, topology events and react() calls; a data-plane
    engine per side routes an identical flow population over each
    controller's FIB view.  Any divergence — a lie, a FIB entry, a flow
    rate — is a plan-cache bug.
    """

    def __init__(self, seed, num_routers=10, edge_probability=0.3):
        self.rng = random.Random(seed)
        self.topology = random_topology(
            num_routers, edge_probability=edge_probability, seed=seed
        )
        self.incremental = FibbingController(self.topology)
        self.oracle = ClearAndReplayController(self.topology)
        self.clients = StubClients()
        policy = LoadBalancerPolicy()
        self.balancers = {
            "incremental": OnDemandLoadBalancer(self.incremental, self.clients, policy=policy),
            "oracle": ClearAndReplayBalancer(self.oracle, self.clients, policy=policy),
        }
        self.requirements = {}  # prefix -> DestinationRequirement
        self.steps_applied = 0
        self.reactions = 0

        # One engine per controller view, fed the same flow population.
        self.engines = {}
        for key, controller in (("incremental", self.incremental), ("oracle", self.oracle)):
            self.engines[key] = DataPlaneEngine(
                self.topology,
                controller.static_fibs,
                Timeline(),
            )
        self.flow_ids = []
        prefixes = self.topology.prefixes
        for index in range(3 * len(prefixes)):
            ingress = self.rng.choice(self.topology.routers)
            prefix = prefixes[index % len(prefixes)]
            demand = self.rng.uniform(0.3, 4.0) * 1e6
            for engine in self.engines.values():
                flow = engine.add_flow(ingress, prefix, demand, label="diff")
            self.flow_ids.append(flow.flow_id)

    # -------------------------------------------------------------- #
    # Requirement generation
    # -------------------------------------------------------------- #
    def _random_requirement(self, prefix):
        """A random realisable requirement for ``prefix`` (or ``None``)."""
        rng = self.rng
        announcers = {
            attachment.router
            for attachment in self.topology.prefix_attachments(prefix)
        }
        candidates = [
            router
            for router in self.topology.routers
            if router not in announcers and self.topology.neighbors(router)
        ]
        if not candidates:
            return None
        next_hops = {}
        for router in rng.sample(candidates, min(len(candidates), rng.randint(1, 2))):
            neighbors = self.topology.neighbors(router)
            chosen = rng.sample(neighbors, rng.randint(1, min(3, len(neighbors))))
            next_hops[router] = {hop: rng.randint(1, 3) for hop in chosen}
        requirement = DestinationRequirement(prefix=prefix, next_hops=next_hops)
        try:
            # Realisability pre-check with the pure planning core; both
            # controllers would reject (or accept) identically, but a raise
            # inside a batched enforce would leave half the wave committed.
            requirement.validate(self.topology)
            synthesize_lie_shapes(
                self.topology, requirement, baseline_fibs=self.oracle.baseline_fibs()
            )
        except ControllerError:
            return None
        return requirement

    # -------------------------------------------------------------- #
    # Mutations
    # -------------------------------------------------------------- #
    def _enforce_wave(self):
        wave = RequirementSet(self.requirements.values())
        for controller in (self.incremental, self.oracle):
            controller.enforce(wave)

    def apply(self, action):
        rng = self.rng
        if action in ("add", "update"):
            if action == "update" and self.requirements:
                prefix = rng.choice(sorted(self.requirements))
            else:
                prefix = rng.choice(self.topology.prefixes)
            requirement = self._random_requirement(prefix)
            if requirement is None:
                return False
            self.requirements[prefix] = requirement
            self._enforce_wave()
        elif action == "remove":
            if not self.requirements:
                return False
            prefix = rng.choice(sorted(self.requirements))
            del self.requirements[prefix]
            for controller in (self.incremental, self.oracle):
                controller.clear_prefix(prefix)
            self._enforce_wave()
        elif action == "reenforce":
            # The steady-state wave: nothing changed, everything should be
            # a plan-cache hit on the incremental side.
            self._enforce_wave()
        elif action == "weight":
            links = self.topology.undirected_links
            source, target = links[rng.randrange(len(links))]
            self.topology.set_weight(source, target, rng.choice([1, 2, 3, 5]))
            self._enforce_wave()
        elif action == "react":
            if rng.random() < 0.5 or not len(self.clients.matrix):
                matrix = TrafficMatrix()
                for _ in range(rng.randint(1, 3)):
                    matrix.add(
                        rng.choice(self.topology.routers),
                        rng.choice(self.topology.prefixes),
                        round(rng.uniform(1.0, 8.0) * 1e6, 3),
                    )
                self.clients.matrix = matrix
            # else: unchanged demands — the whole reaction should be served
            # from the plan cache on the incremental side.
            self.reactions += 1
            event = AlarmEvent(time=float(self.reactions), hot_links=())
            for balancer in self.balancers.values():
                balancer.react(event)
            # react() withdraws lies for prefixes its optimisation did not
            # touch; drop the manual bookkeeping so later waves re-plan.
            installed = set(self.incremental.registry.prefixes())
            self.requirements = {
                prefix: requirement
                for prefix, requirement in self.requirements.items()
                if prefix in installed
            }
        else:  # pragma: no cover - defensive
            raise ValueError(action)
        self.steps_applied += 1
        return True

    # -------------------------------------------------------------- #
    # The differential oracle
    # -------------------------------------------------------------- #
    def check(self, context=""):
        incremental, oracle = self.incremental, self.oracle
        assert incremental.registry.active_lsas() == oracle.registry.active_lsas(), context

        inc_fibs = incremental.current_fibs()
        ref_fibs = oracle.current_fibs()
        assert set(inc_fibs) == set(ref_fibs), context
        for router in sorted(ref_fibs):
            assert inc_fibs[router].prefixes == ref_fibs[router].prefixes, (
                f"{context} router={router}"
            )
            for prefix in ref_fibs[router].prefixes:
                assert inc_fibs[router].lookup(prefix) == ref_fibs[router].lookup(prefix), (
                    f"{context} router={router} prefix={prefix}"
                )

        for engine in self.engines.values():
            engine.notify_routing_change()
        inc_engine = self.engines["incremental"]
        ref_engine = self.engines["oracle"]
        for flow_id in self.flow_ids:
            assert inc_engine.flow_rate(flow_id) == ref_engine.flow_rate(flow_id), (
                f"{context} flow={flow_id}"
            )
            assert inc_engine.flow_path(flow_id) == ref_engine.flow_path(flow_id), (
                f"{context} flow={flow_id}"
            )
        for link in self.topology.links:
            assert inc_engine.link_rate(*link.key) == ref_engine.link_rate(*link.key), (
                f"{context} link={link.key}"
            )

        # The oracle re-plans everything: any reuse would make it a second
        # incremental controller.
        ref = oracle.reconciler.counters
        assert ref.plan_cache_hits == 0, context
        assert ref.merge_cache_hits == 0, context


ACTIONS = (
    "add",
    "update",
    "update",
    "remove",
    "reenforce",
    "weight",
    "react",
)


class TestDifferentialRandomized:
    """Seeded randomized sequences; jointly >= 250 mutation steps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mutation_sequence(self, seed):
        driver = DualControllerDriver(seed)
        driver.check(context=f"seed={seed} initial")
        steps = 0
        while steps < 25:
            action = driver.rng.choice(ACTIONS)
            if not driver.apply(action):
                continue
            steps += 1
            driver.check(context=f"seed={seed} step={steps} action={action}")
        assert driver.steps_applied >= 25

    def test_plan_cache_actually_skips_work(self):
        """Across a steady churn most plans must be cache hits, not replans."""
        driver = DualControllerDriver(seed=42)
        added = 0
        while added < 4:
            if driver.apply("add"):
                added += 1
                driver.check()
        for step in range(8):
            driver.apply("reenforce" if step % 4 else "update")
            driver.check()
        counters = driver.incremental.reconciler.counters
        assert counters.plans_served == (
            counters.plan_cache_hits + counters.plans_recomputed
        )
        assert counters.plan_cache_hits > counters.plans_recomputed
        # The oracle never touches the plan-cache counters.
        ref = driver.oracle.reconciler.counters
        assert ref.plan_cache_hits == 0
        # Churn accounting is mode-independent: both engines moved the same
        # lies over the same history.
        assert ref.lies_injected == counters.lies_injected
        assert ref.lies_retracted == counters.lies_retracted


class TestDifferentialHypothesis:
    """Hypothesis-driven action sequences on a smaller topology."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=6),
    )
    def test_any_action_sequence_matches_the_oracle(self, seed, actions):
        driver = DualControllerDriver(seed, num_routers=7, edge_probability=0.35)
        for index, action in enumerate(actions):
            if driver.apply(action):
                driver.check(context=f"seed={seed} step={index} action={action}")


class TestThresholdAndCounters:
    """The no-op fast path and the re-plan accounting, down to exact counts."""

    def build_requirement(self, driver):
        prefix = driver.topology.prefixes[0]
        requirement = driver._random_requirement(prefix)
        assert requirement is not None
        return requirement

    def test_noop_wave_is_all_plan_cache_hits(self):
        driver = DualControllerDriver(seed=7)
        while not driver.apply("add"):
            pass
        while not driver.apply("add"):
            pass
        driver.check()
        controller = driver.incremental
        counters = controller.reconciler.counters
        hits_before = counters.plan_cache_hits
        recomputed_before = counters.plans_recomputed
        messages_before = controller.stats.messages_sent
        count = len(driver.requirements)
        driver.apply("reenforce")
        driver.check(context="no-op wave")
        assert counters.plan_cache_hits == hits_before + count
        assert counters.plans_recomputed == recomputed_before
        assert controller.stats.messages_sent == messages_before
        # Every skipped plan keeps its installed lies.
        assert counters.lies_kept >= controller.active_lie_count()

    def test_a_mostly_dirty_wave_replans_only_its_dirty_requirements(self):
        """However much of a wave moved, clean requirements are never
        re-planned, and the lies still match the oracle's name for name."""
        topology = build_ring_topology(8, 8)
        controller = FibbingController(topology)
        oracle = ClearAndReplayController(topology)
        for generations in ([0] * 8, [1] * 7 + [0]):
            wave = [
                churn_requirement(topology, index, generation)
                for index, generation in enumerate(generations)
            ]
            controller.enforce(wave)
            oracle.enforce(wave)
        counters = controller.reconciler.counters
        assert counters.plans_recomputed == 8 + 7
        assert counters.plan_cache_hits == 1
        assert lie_set_digest(controller.active_lies()) == lie_set_digest(
            oracle.active_lies()
        )

    def test_topology_change_invalidates_clean_requirements(self):
        """A weight change moves the graph version: nothing may be skipped."""
        driver = DualControllerDriver(seed=3)
        while not driver.apply("add"):
            pass
        driver.check()
        counters = driver.incremental.reconciler.counters
        hits_before = counters.plan_cache_hits
        recomputed_before = counters.plans_recomputed
        assert driver.apply("weight")
        driver.check(context="after weight change")
        assert counters.plans_recomputed > recomputed_before
        assert counters.plan_cache_hits == hits_before

    def test_clear_prefix_drops_the_skip_bookkeeping(self):
        driver = DualControllerDriver(seed=5)
        while not driver.apply("add"):
            pass
        (prefix,) = list(driver.requirements)
        requirement = driver.requirements[prefix]
        driver.check()
        for controller in (driver.incremental, driver.oracle):
            controller.clear_prefix(prefix)
        driver.check(context="after clear")
        counters = driver.incremental.reconciler.counters
        recomputed_before = counters.plans_recomputed
        # Same requirement, same version — but the lies are gone, so the
        # reconciler must re-plan (a skip here would leave the prefix bare).
        for controller in (driver.incremental, driver.oracle):
            controller.enforce([requirement])
        driver.check(context="re-enforce after clear")
        assert counters.plans_recomputed > recomputed_before
        assert driver.incremental.active_lie_count(prefix) == driver.oracle.active_lie_count(prefix)


class TestReactCaching:
    """Whole-reaction reuse: merged weight maps and requirement plans.

    The LP itself is re-solved on every reaction; what a steady reaction
    reuses is everything downstream of it.
    """

    def build(self, seed=19):
        driver = DualControllerDriver(seed=seed)
        # Demands near the link capacities (from non-announcing ingresses),
        # so the LP must spread traffic off the shortest paths and the
        # reaction actually installs lies (tiny demands would be pruned
        # down to an empty requirement set).
        matrix = TrafficMatrix()
        prefixes = driver.topology.prefixes
        for index in range(3):
            prefix = prefixes[index % len(prefixes)]
            announcers = {
                attachment.router
                for attachment in driver.topology.prefix_attachments(prefix)
            }
            ingress = next(
                router
                for router in driver.topology.routers[index:]
                if router not in announcers
            )
            matrix.add(ingress, prefix, (20.0 + 5.0 * index) * 1e6)
        driver.clients.matrix = matrix
        return driver

    def test_repeated_alarm_with_steady_demands_reuses_the_plans(self):
        driver = self.build()
        for balancer in driver.balancers.values():
            balancer.react(AlarmEvent(time=1.0, hot_links=()))
        driver.check(context="first reaction")
        counters = driver.incremental.reconciler.counters
        # The workload premise: the reaction did plan requirements.
        assert counters.plans_recomputed > 0
        for balancer in driver.balancers.values():
            balancer.react(AlarmEvent(time=2.0, hot_links=()))
        driver.check(context="second reaction")
        assert counters.merge_cache_hits > 0
        # An unchanged reaction is pure reuse: no plan was recomputed and
        # no lie moved on the wire.
        assert counters.plan_cache_hits > 0
        # The oracle-side balancer never got a plan cache.
        assert driver.oracle.reconciler.counters.merge_cache_hits == 0

    def test_demand_change_invalidates_the_lp_reuse(self):
        driver = self.build()
        for balancer in driver.balancers.values():
            balancer.react(AlarmEvent(time=1.0, hot_links=()))
        driver.check()
        driver.clients.matrix = TrafficMatrix.from_dict(
            {(entry.ingress, entry.prefix): entry.rate * 1.5 for entry in driver.clients.matrix.entries()}
        )
        for balancer in driver.balancers.values():
            balancer.react(AlarmEvent(time=2.0, hot_links=()))
        driver.check(context="react after demand change")


class TestNamespaceUnderChurn:
    """Fake-node names are never reused, whatever the churn."""

    @pytest.mark.parametrize("seed", (0, 3, 8))
    def test_no_name_collision_under_churn(self, seed):
        driver = DualControllerDriver(seed)
        removed = []
        for step in range(20):
            action = driver.rng.choice(("add", "add", "update", "remove", "reenforce"))
            before = set(driver.requirements)
            if not driver.apply(action):
                continue
            driver.check(context=f"seed={seed} step={step} action={action}")
            removed.extend(sorted(before - set(driver.requirements)))
            # Every name ever committed, withdrawn lies included, is unique…
            names = [lie.lsa.fake_node for lie in driver.incremental.registry.history()]
            assert len(names) == len(set(names)), f"seed={seed} step={step}"
            # …and no placeholder ever reached the registry.
            assert not any(name.startswith("pending-") for name in names)
        # Re-add previously removed prefixes: names keep advancing.
        for prefix in removed:
            requirement = driver._random_requirement(prefix)
            if requirement is None:
                continue
            driver.requirements[prefix] = requirement
            driver._enforce_wave()
            driver.check(context=f"seed={seed} re-add {prefix}")
            names = [lie.lsa.fake_node for lie in driver.incremental.registry.history()]
            assert len(names) == len(set(names))


class TestWaveShapes:
    """Waves the plan cache must not mistake for clean ones."""

    def one_requirement(self, seed):
        driver = DualControllerDriver(seed)
        while not driver.apply("add"):
            pass
        driver.check()
        (prefix,) = list(driver.requirements)
        update = driver._random_requirement(prefix)
        assert update is not None and update != driver.requirements[prefix]
        return driver, prefix, update

    def test_duplicate_prefix_wave_matches_the_oracle(self):
        """The same prefix twice in one wave: the later requirement must see
        the earlier one's committed lies and withdraw them."""
        driver, prefix, update = self.one_requirement(9)
        requirement = driver.requirements[prefix]
        counters = driver.incremental.reconciler.counters
        hits_before = counters.plan_cache_hits
        recomputed_before = counters.plans_recomputed
        for controller in (driver.incremental, driver.oracle):
            controller.enforce([requirement, update])
        driver.requirements[prefix] = update
        driver.check(context="duplicate-prefix wave")
        assert counters.plan_cache_hits == hits_before + 1
        assert counters.plans_recomputed == recomputed_before + 1

    def test_dirty_then_clean_duplicate_prefix_waves(self):
        driver, prefix, update = self.one_requirement(9)
        counters = driver.incremental.reconciler.counters
        hits_before = counters.plan_cache_hits
        recomputed_before = counters.plans_recomputed
        for controller in (driver.incremental, driver.oracle):
            controller.enforce([update, update])
        driver.requirements[prefix] = update
        driver.check(context="dirty duplicate-prefix wave")
        # The first copy re-plans; the second is clean by then.
        assert counters.plans_recomputed == recomputed_before + 1
        assert counters.plan_cache_hits == hits_before + 1
        messages_before = driver.incremental.stats.messages_sent
        for controller in (driver.incremental, driver.oracle):
            controller.enforce([update, update])
        driver.check(context="clean duplicate-prefix wave")
        assert counters.plan_cache_hits == hits_before + 3
        assert driver.incremental.stats.messages_sent == messages_before

    def test_baseline_supplied_requirement_plans_inline(self):
        """``enforce_requirement(req, baseline_fibs=...)`` plans from scratch,
        moves no plan counter, and drops the prefix's skip bookkeeping so the
        next wave re-plans it."""
        driver, prefix, _update = self.one_requirement(3)
        requirement = driver.requirements[prefix]
        counters = driver.incremental.reconciler.counters
        before = counters.snapshot()
        baseline = driver.oracle.baseline_fibs()
        for controller in (driver.incremental, driver.oracle):
            controller.enforce_requirement(requirement, baseline_fibs=dict(baseline))
        driver.check(context="baseline-supplied requirement")
        after = counters.snapshot()
        assert after["ctl_plans_recomputed"] == before["ctl_plans_recomputed"]
        assert after["ctl_plan_cache_hits"] == before["ctl_plan_cache_hits"]
        driver.apply("reenforce")
        driver.check(context="wave after the inline plan")
        assert counters.plans_recomputed == before["ctl_plans_recomputed"] + 1


class TestRingChurn:
    """The controller-churn workload: a ring whose every requirement needs
    lies.  However large the dirty share of a wave, exactly the dirty
    requirements are re-planned, and the lies match the oracle's."""

    RING = 8
    COUNT = 16
    WAVES = 6

    @pytest.mark.parametrize("dirty", [1, 4, 8, 12, 16])
    def test_any_dirty_share_replans_exactly_the_dirty_requirements(self, dirty):
        topology = build_ring_topology(self.RING, self.COUNT)
        controller = FibbingController(topology)
        oracle = ClearAndReplayController(topology)
        rng = random.Random(dirty)
        generations = [0] * self.COUNT
        for wave in range(self.WAVES):
            if wave:
                for index in rng.sample(range(self.COUNT), dirty):
                    generations[index] += 1
            requirements = [
                churn_requirement(topology, index, generation)
                for index, generation in enumerate(generations)
            ]
            controller.enforce(requirements)
            oracle.enforce(requirements)
            assert controller.registry.active_lsas() == oracle.registry.active_lsas(), (
                f"wave={wave}"
            )
        counters = controller.reconciler.counters
        changed = self.WAVES - 1
        assert counters.plans_recomputed == self.COUNT + dirty * changed
        assert counters.plan_cache_hits == (self.COUNT - dirty) * changed
        reference = oracle.reconciler.counters
        assert counters.lies_injected == reference.lies_injected
        assert counters.lies_retracted == reference.lies_retracted


class TestControllerAge:
    """A wave costs what the wave changes, not what the controller has
    withdrawn before: :class:`~repro.core.lies.Lie` reads per wave stay the
    same however long the churn has run."""

    RING = 8
    PERIOD = 40  # one requirement bumped per wave; weights cycle every 5 bumps

    def count_lie_reads(self, monkeypatch):
        from repro.core.lies import Lie

        reads = {"count": 0}
        original = Lie.__getattribute__

        def counting(lie, name):
            reads["count"] += 1
            return original(lie, name)

        monkeypatch.setattr(Lie, "__getattribute__", counting)
        return reads

    def churn(self, controller, generations, wave):
        index = wave % self.RING
        generations[index] += 1
        controller.enforce([
            churn_requirement(controller.topology, position, generation)
            for position, generation in enumerate(generations)
        ])

    def test_a_dirty_wave_reads_as_many_lies_young_as_old(self, monkeypatch):
        controller = FibbingController(build_ring_topology(self.RING, self.RING))
        generations = [0] * self.RING
        for wave in range(self.PERIOD):
            self.churn(controller, generations, wave)
        reads = self.count_lie_reads(monkeypatch)
        young = []
        for wave in range(self.PERIOD, 2 * self.PERIOD):
            before = reads["count"]
            self.churn(controller, generations, wave)
            young.append(reads["count"] - before)
        history_young = len(controller.registry.history())
        for wave in range(2 * self.PERIOD, 6 * self.PERIOD):
            self.churn(controller, generations, wave)
        old = []
        for wave in range(6 * self.PERIOD, 7 * self.PERIOD):
            before = reads["count"]
            self.churn(controller, generations, wave)
            old.append(reads["count"] - before)
        assert len(controller.registry.history()) > 3 * history_young
        assert old == young

    def test_a_clean_wave_reads_no_lie_however_old(self, monkeypatch):
        controller = FibbingController(build_ring_topology(self.RING, self.RING))
        generations = [0] * self.RING
        for wave in range(3 * self.PERIOD):
            self.churn(controller, generations, wave)
        requirements = [
            churn_requirement(controller.topology, position, generation)
            for position, generation in enumerate(generations)
        ]
        reads = self.count_lie_reads(monkeypatch)
        hits_before = controller.reconciler.counters.plan_cache_hits
        controller.enforce(requirements)
        assert controller.reconciler.counters.plan_cache_hits == hits_before + self.RING
        assert reads["count"] == 0

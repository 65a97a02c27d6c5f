"""Differential property tests for the sharded multi-controller facade.

Top of the PR 1–4 stack: after an arbitrary sequence of requirement
additions/updates/removals, link-weight and capacity events, and
alarm-driven ``react()`` calls through the on-demand load balancer, the
sharded facade (``ShardedFibbingController(shards=N)``, any N) must be
indistinguishable from the single-controller clear-and-replay oracle
(``ClearAndReplayController`` of ``tests/oracles.py``): the installed lie
sets (exact :class:`~repro.igp.lsa.FakeNodeLsa` objects, fake-node names
included), the ``current_fibs()`` of every router, and the data-plane
rates/paths of a flow population routed over those FIBs all bit-identical.

Also covered here: the fake-node namespace partition (no name collision
across shards under add/remove/re-add churn), the ``shard_*`` counter
semantics, and the cross-shard fallback for unpartitionable waves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import (
    ShardedFibbingController,
    default_shard_assignment,
)
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

from test_controller_incremental import ACTIONS, DualControllerDriver


def sharded_factory(shards):
    """An ``incremental_factory`` for the dual driver building the facade."""

    def build(topology, plan_dirty_threshold):
        return ShardedFibbingController(
            topology,
            shards=shards,
            plan_dirty_threshold=plan_dirty_threshold,
        )

    return build


class ShardedDualDriver(DualControllerDriver):
    """The PR 4 dual driver with the sharded facade on the non-oracle side."""

    def __init__(self, seed, shards, plan_dirty_threshold=0.5, **kwargs):
        super().__init__(
            seed,
            plan_dirty_threshold=plan_dirty_threshold,
            incremental_factory=sharded_factory(shards),
            **kwargs,
        )

    @property
    def sharded(self) -> ShardedFibbingController:
        return self.incremental


class TestShardedDifferentialRandomized:
    """Seeded randomized sequences; jointly >= 250 mutation steps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mutation_sequence(self, seed):
        shards = (seed % 4) + 1
        driver = ShardedDualDriver(seed, shards=shards)
        driver.check(context=f"seed={seed} shards={shards} initial")
        steps = 0
        while steps < 25:
            action = driver.rng.choice(ACTIONS)
            if not driver.apply(action):
                continue
            steps += 1
            driver.check(context=f"seed={seed} shards={shards} step={steps} action={action}")
        assert driver.steps_applied >= 25
        # Every wave partitioned cleanly: the differential driver never
        # repeats a prefix within one wave.
        assert driver.sharded.shard_counters.cross_shard_fallbacks == 0


class TestShardedDifferentialHypothesis:
    """Hypothesis-driven action sequences on a smaller topology."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.integers(min_value=1, max_value=4),
        actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=6),
    )
    def test_any_action_sequence_matches_the_oracle(self, seed, shards, actions):
        driver = ShardedDualDriver(
            seed, shards=shards, num_routers=7, edge_probability=0.35
        )
        for index, action in enumerate(actions):
            if driver.apply(action):
                driver.check(
                    context=f"seed={seed} shards={shards} step={index} action={action}"
                )


class TestNamespacePartitioning:
    """Fake-node names never collide across shards, whatever the churn."""

    @pytest.mark.parametrize("seed", (0, 3, 8))
    def test_no_name_collision_under_churn(self, seed):
        driver = ShardedDualDriver(seed, shards=3)
        removed = []
        for step in range(20):
            action = driver.rng.choice(("add", "add", "update", "remove", "reenforce"))
            if action == "remove" and driver.requirements:
                removed.append(sorted(driver.requirements)[0])
            if not driver.apply(action):
                continue
            # Every name ever committed, across every shard's full history
            # (withdrawn lies included), is globally unique...
            names = [lie.lsa.fake_node for lie in driver.sharded.registry.history()]
            assert len(names) == len(set(names)), f"seed={seed} step={step}"
            # ...and no placeholder ever reached a registry.
            assert not any(name.startswith("pending-") for name in names)
        # Re-add previously removed prefixes: names keep advancing, never reuse.
        for prefix in removed:
            requirement = driver._random_requirement(prefix)
            if requirement is None:
                continue
            driver.requirements[prefix] = requirement
            driver._enforce_wave()
            driver.check(context=f"seed={seed} re-add {prefix}")
            names = [lie.lsa.fake_node for lie in driver.sharded.registry.history()]
            assert len(names) == len(set(names))

    def test_each_prefix_lives_in_exactly_its_shard(self):
        driver = ShardedDualDriver(2, shards=4)
        added = 0
        while added < 4:
            if driver.apply("add"):
                added += 1
        facade = driver.sharded
        for index, shard in enumerate(facade.shards):
            for prefix in shard.registry.prefixes():
                assert facade.shard_of(prefix) == index

    def test_default_assignment_is_hash_seed_independent(self):
        # Pinned values: sha256-based, so any PYTHONHASHSEED (the CI matrix
        # runs two) and any interpreter produce the same partition.
        assert default_shard_assignment(Prefix.parse("10.0.0.0/24"), 4) == 1
        assert default_shard_assignment(Prefix.parse("10.0.1.0/24"), 4) == 3
        assert default_shard_assignment(Prefix.parse("192.168.0.0/16"), 4) == 2

    def test_assignment_out_of_range_is_rejected(self):
        driver = ShardedDualDriver(0, shards=2)
        facade = ShardedFibbingController(
            driver.topology, shards=2, assignment=lambda prefix, shards: 5
        )
        with pytest.raises(ControllerError):
            facade.shard_of(driver.topology.prefixes[0])


class TestShardCountersAndFallbacks:
    """The shard_* accounting and the serial fallback, down to exact counts."""

    def test_clean_wave_counts_every_populated_shard_clean(self):
        driver = ShardedDualDriver(7, shards=4)
        added = 0
        while added < 4:
            if driver.apply("add"):
                added += 1
                driver.check()
        facade = driver.sharded
        populated = len(
            {facade.shard_of(prefix) for prefix in driver.requirements}
        )
        counters = facade.shard_counters
        clean_before = counters.shards_clean
        messages_before = facade.stats.messages_sent
        driver.apply("reenforce")
        driver.check(context="clean wave")
        assert counters.shards_clean == clean_before + populated
        assert facade.stats.messages_sent == messages_before

    def test_duplicate_prefix_wave_falls_back_serially_and_matches(self):
        driver = ShardedDualDriver(9, shards=3)
        while not driver.apply("add"):
            pass
        driver.check()
        (prefix,) = list(driver.requirements)
        requirement = driver.requirements[prefix]
        update = driver._random_requirement(prefix)
        assert update is not None
        counters = driver.sharded.shard_counters
        fallbacks_before = counters.cross_shard_fallbacks
        # The same prefix twice in one wave: the later requirement must see
        # the earlier one's committed lies, so the facade cannot partition.
        for controller in (driver.incremental, driver.oracle):
            controller.enforce([requirement, update])
        driver.requirements[prefix] = update
        driver.check(context="duplicate-prefix wave")
        assert counters.cross_shard_fallbacks == fallbacks_before + 1

    def test_serial_fallback_accounting_mirrors_the_single_controller(self):
        """The unpartitionable path evaluates the dirty threshold over the
        whole wave, like FibbingController.enforce — a dirty duplicate-
        prefix wave past the threshold counts one facade-level fallback."""
        driver = ShardedDualDriver(9, shards=3, plan_dirty_threshold=0.0)
        while not driver.apply("add"):
            pass
        driver.check()
        (prefix,) = list(driver.requirements)
        update = driver._random_requirement(prefix)
        assert update is not None
        facade = driver.sharded
        fallbacks_before = facade.plan_cache.counters.fallbacks
        for controller in (driver.incremental, driver.oracle):
            controller.enforce([update, update])
        driver.requirements[prefix] = update
        driver.check(context="dirty duplicate-prefix wave")
        assert facade.plan_cache.counters.fallbacks == fallbacks_before + 1
        # A clean duplicate wave afterwards is all plan-cache hits (they are
        # exempt from the threshold-0 fallback only when nothing is dirty).
        hits_before = facade.reconciler.counters.plan_cache_hits
        for controller in (driver.incremental, driver.oracle):
            controller.enforce([update, update])
        driver.check(context="clean duplicate-prefix wave")
        assert facade.reconciler.counters.plan_cache_hits == hits_before + 2

    def test_baseline_supplied_requirement_counts_a_cross_shard_fallback(self):
        """enforce_requirement(req, baseline_fibs=...) plans inline: it
        counts as an unpartitionable wave and moves no ctl_* counter — the
        single controller's equivalent path does not count either."""
        driver = ShardedDualDriver(3, shards=2)
        while not driver.apply("add"):
            pass
        driver.check()
        (prefix,) = list(driver.requirements)
        requirement = driver.requirements[prefix]
        facade = driver.sharded
        baseline = driver.oracle.baseline_fibs()
        ctl_before = facade.reconciler.counters.snapshot()
        fallbacks_before = facade.shard_counters.cross_shard_fallbacks
        for controller in (driver.incremental, driver.oracle):
            controller.enforce_requirement(requirement, baseline_fibs=dict(baseline))
        driver.check(context="baseline-supplied requirement")
        assert facade.shard_counters.cross_shard_fallbacks == fallbacks_before + 1
        ctl_after = facade.reconciler.counters.snapshot()
        assert ctl_after["ctl_plans_recomputed"] == ctl_before["ctl_plans_recomputed"]
        assert ctl_after["ctl_plan_cache_hits"] == ctl_before["ctl_plan_cache_hits"]

    def test_single_shard_facade_matches_and_dispatches_serially(self):
        driver = ShardedDualDriver(4, shards=1)
        applied = 0
        while applied < 5:
            if driver.apply(driver.rng.choice(("add", "update", "reenforce"))):
                applied += 1
                driver.check()
        assert driver.sharded.shard_counters.waves_serial > 0

    def test_per_shard_fallback_localises_the_blast_radius(self):
        """A wave churning one shard trips only that shard's fallback."""
        driver = ShardedDualDriver(12, shards=2, plan_dirty_threshold=0.0)
        added = 0
        while added < 4:
            if driver.apply("add"):
                added += 1
                driver.check()
        facade = driver.sharded
        by_shard = {}
        for prefix in sorted(driver.requirements):
            by_shard.setdefault(facade.shard_of(prefix), []).append(prefix)
        # Seed 12 spreads the requirements over both shards.
        assert len(by_shard) == 2
        target_shard = sorted(by_shard)[0]
        victim = by_shard[target_shard][0]
        update = driver._random_requirement(victim)
        assert update is not None
        driver.requirements[victim] = update
        clean_shard = sorted(by_shard)[1]
        fallbacks_before = facade.shards[clean_shard].reconciler.counters.fallbacks
        hits_before = facade.shards[clean_shard].reconciler.counters.plan_cache_hits
        driver._enforce_wave()
        driver.check(context="one-shard churn")
        # threshold 0: the churned shard falls back, the clean shard does
        # not — its requirements all stay plan-cache hits.
        assert facade.shards[target_shard].reconciler.counters.fallbacks > 0
        assert facade.shards[clean_shard].reconciler.counters.fallbacks == fallbacks_before
        assert facade.shards[clean_shard].reconciler.counters.plan_cache_hits > hits_before

    def test_invalid_knobs_are_rejected(self):
        driver = ShardedDualDriver(0, shards=2)
        with pytest.raises(ControllerError):
            ShardedFibbingController(driver.topology, shards=0)

    def test_stats_surface_the_shard_counters(self):
        driver = ShardedDualDriver(6, shards=2)
        while not driver.apply("add"):
            pass
        snapshot = driver.sharded.stats.snapshot()
        counters = driver.sharded.shard_counters.snapshot()
        for key, value in counters.items():
            assert snapshot[key] == value
        assert snapshot["ctl_plans_recomputed"] > 0

"""Tests for the lie registry and diff-based updates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lies import Lie, LieRegistry, LieState, LieUpdate
from repro.igp.lsa import FakeNodeLsa
from repro.topologies.demo import BLUE_PREFIX
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

OTHER_PREFIX = Prefix.parse("10.7.0.0/24")


def make_lsa(name="f1", anchor="B", forwarding="R3", cost=2.0, prefix=BLUE_PREFIX):
    return FakeNodeLsa(
        origin="ctrl",
        fake_node=name,
        anchor=anchor,
        link_cost=cost / 2,
        prefix=prefix,
        prefix_cost=cost / 2,
        forwarding_address=forwarding,
    )


class TestRegistryBasics:
    def test_commit_injection_registers_active_lie(self):
        registry = LieRegistry()
        update = registry.plan_update(BLUE_PREFIX, [make_lsa()])
        assert len(update.to_inject) == 1
        assert update.to_withdraw == ()
        registry.commit(update, now=5.0)
        assert registry.active_count(BLUE_PREFIX) == 1
        assert registry.active_lies()[0].injected_at == 5.0
        assert registry.prefixes() == [BLUE_PREFIX]

    def test_duplicate_commit_rejected(self):
        registry = LieRegistry()
        update = registry.plan_update(BLUE_PREFIX, [make_lsa()])
        registry.commit(update)
        with pytest.raises(ControllerError):
            registry.commit(update)

    def test_plan_update_rejects_wrong_prefix(self):
        registry = LieRegistry()
        with pytest.raises(ControllerError):
            registry.plan_update(OTHER_PREFIX, [make_lsa(prefix=BLUE_PREFIX)])

    def test_lie_signature_ignores_name(self):
        a = Lie(lsa=make_lsa(name="x"))
        b = Lie(lsa=make_lsa(name="y"))
        assert a.signature == b.signature


class TestDiffing:
    def test_identical_desired_state_is_noop(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        update = registry.plan_update(BLUE_PREFIX, [make_lsa(name="f2")])
        assert update.is_noop
        assert update.unchanged == 1

    def test_new_lie_injected_old_kept(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        desired = [make_lsa(name="f2"), make_lsa(name="f3", anchor="A", forwarding="R1", cost=3.0)]
        update = registry.plan_update(BLUE_PREFIX, desired)
        assert len(update.to_inject) == 1
        assert update.to_inject[0].anchor == "A"
        assert update.to_withdraw == ()
        assert update.unchanged == 1

    def test_obsolete_lie_withdrawn(self):
        registry = LieRegistry()
        registry.commit(
            registry.plan_update(
                BLUE_PREFIX,
                [make_lsa(name="f1"), make_lsa(name="f2", anchor="A", forwarding="R1", cost=3.0)],
            )
        )
        update = registry.plan_update(BLUE_PREFIX, [make_lsa(name="f3")])
        assert len(update.to_withdraw) == 1
        assert update.to_withdraw[0].anchor == "A"
        registry.commit(update, now=9.0)
        assert registry.active_count(BLUE_PREFIX) == 1
        withdrawn = [lie for lie in registry.history() if lie.state is LieState.WITHDRAWN]
        assert withdrawn[0].withdrawn_at == 9.0

    def test_multiplicity_matters_in_diff(self):
        registry = LieRegistry()
        # Two identical-signature lies active (uneven split replication).
        registry.commit(
            registry.plan_update(
                BLUE_PREFIX,
                [make_lsa(name="f1", anchor="A", forwarding="R1", cost=3.0),
                 make_lsa(name="f2", anchor="A", forwarding="R1", cost=3.0)],
            )
        )
        # Desired state only needs one of them: exactly one withdrawal.
        update = registry.plan_update(
            BLUE_PREFIX, [make_lsa(name="f3", anchor="A", forwarding="R1", cost=3.0)]
        )
        assert len(update.to_withdraw) == 1
        assert update.unchanged == 1

    def test_changed_cost_replaces_lie(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1", cost=2.0)]))
        update = registry.plan_update(BLUE_PREFIX, [make_lsa(name="f2", cost=4.0)])
        assert len(update.to_inject) == 1
        assert len(update.to_withdraw) == 1

    def test_prefixes_are_independent(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        registry.commit(
            registry.plan_update(OTHER_PREFIX, [make_lsa(name="f2", prefix=OTHER_PREFIX)])
        )
        update = registry.plan_update(BLUE_PREFIX, [])
        assert len(update.to_withdraw) == 1
        registry.commit(update)
        assert registry.active_count(OTHER_PREFIX) == 1
        assert registry.active_count(BLUE_PREFIX) == 0


class TestClear:
    def test_clear_prefix_plans_all_withdrawals(self):
        registry = LieRegistry()
        registry.commit(
            registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1"), make_lsa(name="f2", anchor="A", forwarding="R1", cost=3.0)])
        )
        update = registry.clear(BLUE_PREFIX)
        assert len(update.to_withdraw) == 2
        registry.commit(update)
        assert len(registry) == 0

    def test_withdraw_unknown_lie_rejected(self):
        registry = LieRegistry()
        from repro.core.lies import LieUpdate

        bogus = LieUpdate(
            prefix=BLUE_PREFIX, to_inject=(), to_withdraw=(make_lsa(name="ghost"),), unchanged=0
        )
        with pytest.raises(ControllerError):
            registry.commit(bogus)

    def test_active_lsas_returns_lsa_objects(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        lsas = registry.active_lsas()
        assert len(lsas) == 1
        assert isinstance(lsas[0], FakeNodeLsa)


class TestWithdrawnLiesLeaveTheIndex:
    """A per-prefix read must cost what that prefix holds, not what the
    registry ever committed: withdrawn lies live on in ``history()`` only."""

    CYCLES = 500

    def churned_registry(self):
        registry = LieRegistry()
        for cycle in range(self.CYCLES):
            registry.commit(registry.plan_update(OTHER_PREFIX, [
                make_lsa(name=f"a{cycle}", prefix=OTHER_PREFIX),
            ]))
            registry.commit(registry.plan_update(OTHER_PREFIX, []), now=float(cycle))
        return registry

    def count_reads_of(self, monkeypatch, prefix):
        """Count every attribute read on a :class:`Lie` that programs ``prefix``.

        ``Lie.prefix`` alone would not see them: a registry that filters
        withdrawn lies by ``state`` first never reads their prefix.
        """
        reads = {"count": 0}
        original = Lie.__getattribute__

        def counting(lie, name):
            if object.__getattribute__(lie, "lsa").prefix == prefix:
                reads["count"] += 1
            return original(lie, name)

        monkeypatch.setattr(Lie, "__getattribute__", counting)
        return reads

    def test_other_prefix_reads_touch_no_withdrawn_lie(self, monkeypatch):
        registry = self.churned_registry()
        reads = self.count_reads_of(monkeypatch, OTHER_PREFIX)
        assert registry.active_lies(BLUE_PREFIX) == []
        assert reads["count"] == 0
        update = registry.plan_update(BLUE_PREFIX, [make_lsa(name="b1")])
        assert len(update.to_inject) == 1
        assert reads["count"] == 0

    def test_withdrawn_lies_stay_in_history(self):
        registry = self.churned_registry()
        history = registry.history()
        assert len(history) == self.CYCLES
        assert all(lie.state is LieState.WITHDRAWN for lie in history)
        assert [lie.withdrawn_at for lie in history] == [
            float(cycle) for cycle in range(self.CYCLES)
        ]
        assert registry.active_count() == 0 and registry.prefixes() == []

    def test_a_withdrawn_name_can_be_injected_again(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        registry.commit(registry.plan_update(BLUE_PREFIX, []))
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1", cost=4.0)]))
        assert [lie.lsa.fake_node for lie in registry.active_lies()] == ["f1"]
        assert len(registry.history()) == 2
        with pytest.raises(ControllerError):
            # The name is taken across prefixes, not just within one.
            registry.commit(LieUpdate(
                prefix=OTHER_PREFIX,
                to_inject=(make_lsa(name="f1", prefix=OTHER_PREFIX),),
                to_withdraw=(),
                unchanged=0,
            ))


THIRD_PREFIX = Prefix.parse("10.9.0.0/24")
UNUSED_PREFIX = Prefix.parse("10.200.0.0/24")
MODEL_PREFIXES = (BLUE_PREFIX, OTHER_PREFIX, THIRD_PREFIX)


def scanned_active_lies(registry, prefix=None):
    """What the indexed reads must return, recomputed by scanning history.

    Every lie the registry ever held is in ``history()`` with its current
    state, so the active view is a filter over it — the linear scan the
    per-prefix index replaces.
    """
    lies = [
        lie for lie in registry.history()
        if lie.state is LieState.ACTIVE and (prefix is None or lie.prefix == prefix)
    ]
    return sorted(lies, key=lambda lie: lie.lsa.fake_node)


class RegistryModelDriver:
    """Random commit / clear / crash-restore sequences against one registry.

    After every step :meth:`check` compares each indexed read with the
    history scan of :func:`scanned_active_lies`.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.registry = LieRegistry()
        self.names = 0
        self.now = 0.0

    def fresh_name(self):
        active = {lie.lsa.fake_node for lie in self.registry.active_lies()}
        retired = sorted(
            {lie.lsa.fake_node for lie in self.registry.history()} - active
        )
        if retired and self.rng.random() < 0.3:
            return self.rng.choice(retired)
        self.names += 1
        return f"f{self.names}"

    def random_lsa(self, prefix):
        rng = self.rng
        return make_lsa(
            name=self.fresh_name(),
            anchor=rng.choice("ABC"),
            forwarding=rng.choice(("R1", "R2")),
            cost=rng.choice((2.0, 3.0)),
            prefix=prefix,
        )

    def apply(self, action, prefix):
        registry, rng = self.registry, self.rng
        self.now += 1.0
        if action == "plan":
            desired = []
            for _ in range(rng.randint(0, 3)):
                lsa = self.random_lsa(prefix)
                if lsa.fake_node not in {item.fake_node for item in desired}:
                    desired.append(lsa)
            registry.commit(registry.plan_update(prefix, desired), now=self.now)
        elif action == "clear_prefix":
            registry.commit(registry.clear(prefix), now=self.now)
        elif action == "clear_all":
            registry.commit(registry.clear(), now=self.now)
        elif action == "crash":
            surviving = registry.active_lsas()
            registry.reset()
            assert registry.history() == []
            assert registry.restore(surviving, now=self.now) == len(surviving)
        elif action == "duplicate":
            active = registry.active_lies()
            if not active:
                return
            before = registry.active_lsas()
            taken = rng.choice(active).lsa
            with pytest.raises(ControllerError):
                registry.commit(LieUpdate(
                    prefix=prefix,
                    to_inject=(make_lsa(name=taken.fake_node, prefix=prefix),),
                    to_withdraw=(),
                    unchanged=0,
                ))
            assert registry.active_lsas() == before
        else:  # pragma: no cover - defensive
            raise ValueError(action)

    def check(self, context=""):
        registry = self.registry
        everything = scanned_active_lies(registry)
        assert registry.active_lies() == everything, context
        assert registry.active_lsas() == [lie.lsa for lie in everything], context
        assert registry.active_count() == len(registry) == len(everything), context
        assert registry.prefixes() == sorted({lie.prefix for lie in everything}), context
        for prefix in MODEL_PREFIXES + (UNUSED_PREFIX,):
            expected = scanned_active_lies(registry, prefix)
            assert registry.active_lies(prefix) == expected, f"{context} {prefix}"
            assert registry.active_count(prefix) == len(expected), f"{context} {prefix}"
            # Re-planning what is installed is a no-op: the index and the
            # signatures it diffs against agree.
            update = registry.plan_update(prefix, [lie.lsa for lie in expected])
            assert update.is_noop and update.unchanged == len(expected), context
        for lie in registry.history():
            if lie.state is LieState.WITHDRAWN:
                assert lie.withdrawn_at is not None, context
                assert lie not in registry.active_lies(lie.prefix), context


MODEL_ACTIONS = ("plan", "plan", "plan", "clear_prefix", "clear_all", "crash", "duplicate")


class TestIndexMatchesTheHistoryScan:
    """The per-prefix index returns exactly what a scan of ``history()``
    filtered to ACTIVE lies returns, under any commit sequence."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_commit_sequence(self, seed):
        driver = RegistryModelDriver(seed)
        for step in range(40):
            action = driver.rng.choice(MODEL_ACTIONS)
            prefix = driver.rng.choice(MODEL_PREFIXES)
            driver.apply(action, prefix)
            driver.check(context=f"seed={seed} step={step} {action} {prefix}")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        steps=st.lists(
            st.tuples(st.sampled_from(MODEL_ACTIONS), st.sampled_from(MODEL_PREFIXES)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_any_commit_sequence(self, seed, steps):
        driver = RegistryModelDriver(seed)
        for index, (action, prefix) in enumerate(steps):
            driver.apply(action, prefix)
            driver.check(context=f"seed={seed} step={index} {action} {prefix}")


class TestIndexEdges:
    def test_withdrawing_a_prefixs_last_lie_drops_the_prefix(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="b1")]))
        registry.commit(registry.plan_update(OTHER_PREFIX, [
            make_lsa(name="o1", prefix=OTHER_PREFIX),
        ]))
        assert registry.prefixes() == sorted([BLUE_PREFIX, OTHER_PREFIX])
        registry.commit(registry.clear(BLUE_PREFIX), now=3.0)
        assert registry.prefixes() == [OTHER_PREFIX]
        assert registry.active_count(BLUE_PREFIX) == 0
        assert registry.active_lies(BLUE_PREFIX) == []
        assert registry.clear(BLUE_PREFIX).is_noop

    def test_restore_indexes_every_prefix(self):
        registry = LieRegistry()
        lsas = [
            make_lsa(name="o2", prefix=OTHER_PREFIX),
            make_lsa(name="b1"),
            make_lsa(name="o1", prefix=OTHER_PREFIX, anchor="C"),
        ]
        assert registry.restore(lsas, now=7.0) == 3
        assert registry.active_count(BLUE_PREFIX) == 1
        assert [lie.lsa.fake_node for lie in registry.active_lies(OTHER_PREFIX)] == [
            "o1", "o2",
        ]
        assert [lie.lsa.fake_node for lie in registry.history()] == ["b1", "o1", "o2"]
        assert all(lie.injected_at == 7.0 for lie in registry.history())

    def test_restore_rejects_a_name_that_is_already_active(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        with pytest.raises(ControllerError):
            registry.restore([make_lsa(name="f1", prefix=OTHER_PREFIX)])
        assert registry.prefixes() == [BLUE_PREFIX]

    def test_reset_forgets_index_and_history(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        registry.commit(registry.plan_update(BLUE_PREFIX, []))
        registry.commit(registry.plan_update(OTHER_PREFIX, [
            make_lsa(name="f2", prefix=OTHER_PREFIX),
        ]))
        registry.reset()
        assert registry.history() == [] and registry.prefixes() == []
        assert len(registry) == 0 and registry.active_lies(OTHER_PREFIX) == []
        # Every name is free again.
        registry.commit(registry.plan_update(OTHER_PREFIX, [
            make_lsa(name="f2", prefix=OTHER_PREFIX),
        ]))
        assert registry.active_count(OTHER_PREFIX) == 1

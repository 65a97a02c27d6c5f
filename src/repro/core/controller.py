"""The Fibbing controller session.

The controller is the component that actually talks to the IGP: it keeps a
registry of the lies it maintains, turns forwarding requirements into lies
(through the augmentation module), reconciles them against the registry, and
ships the difference to the network — either into a live, event-driven
:class:`~repro.igp.network.IgpNetwork` through its attachment router (R3 in
the demo) or, for static analyses, by exposing the active lies for
:func:`~repro.igp.network.compute_static_fibs`.

It also accounts for every LSA it injects or withdraws, which is the raw
material of the control-plane overhead comparison against MPLS RSVP-TE.

A plan cache makes enforcement incremental, skipping every requirement
whose digest and baseline graph version did not move.  The clear-and-replay
controller that re-plans every requirement lives in ``tests/oracles.py``;
``tests/test_controller_incremental.py`` holds this one to it, installed
LSAs (names included) and FIBs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.augmentation import DEFAULT_EPSILON
from repro.core.lies import LieRegistry, LieUpdate
from repro.core.reconciler import LieReconciler, PlanCache
from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.dataplane.path_cache import DataPlaneCounters
from repro.igp.fib import DEFAULT_MAX_ECMP, Fib
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa, Lsa
from repro.igp.network import IgpNetwork, compute_static_fibs
from repro.igp.rib_cache import LazyFibs, RibCache
from repro.igp.spf_cache import SpfCache, SpfCounters
from repro.igp.topology import Topology
from repro.util.counters import Counters, Number, counter, merge_snapshots
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = ["ControllerStats", "ControllerUpdate", "FibbingController"]


@dataclass
class ControllerStats(Counters):
    """Control-plane overhead counters of one controller.

    The five fields are the controller's own.  :meth:`snapshot` appends the
    controller's live SPF/RIB-cache, data-plane and ``ctl_*`` counter sets,
    read at call time: other components read through the controller's
    caches (the load balancer hands the baseline view of
    :meth:`FibbingController.baseline_fibs` to its merger) and advance those
    counters without going through a controller method.
    """

    lies_injected: int = counter("lies_injected")
    lies_withdrawn: int = counter("lies_withdrawn")
    messages_sent: int = counter("messages_sent")
    bytes_sent: int = counter("bytes_sent")
    updates_applied: int = counter("updates_applied")
    #: Set by the owning controller: returns its live counter sets, in
    #: export order (wiring, not an option — hence no constructor argument).
    live_sets: Callable[[], Iterable[Counters]] = field(
        default=tuple, init=False, repr=False, compare=False
    )

    def snapshot(self) -> Dict[str, Number]:
        """Plain-dict copy for reporting: own fields, then every live set."""
        own = super().snapshot()
        return merge_snapshots([own, *(live.snapshot() for live in self.live_sets())])


@dataclass(frozen=True)
class ControllerUpdate:
    """One applied change: which lies were injected and withdrawn, and when."""

    time: float
    injected: Tuple[FakeNodeLsa, ...]
    withdrawn: Tuple[FakeNodeLsa, ...]
    unchanged: int

    @property
    def message_count(self) -> int:
        """LSAs sent to the network by this update."""
        return len(self.injected) + len(self.withdrawn)

    @property
    def is_noop(self) -> bool:
        """Whether nothing had to change."""
        return self.message_count == 0


class FibbingController:
    """Programs per-destination forwarding by injecting lies into the IGP."""

    def __init__(
        self,
        topology: Topology,
        name: str = "fibbing-controller",
        network: Optional[IgpNetwork] = None,
        attachment: Optional[str] = None,
        epsilon: float = DEFAULT_EPSILON,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        """Create a controller for ``topology``."""
        self.topology = topology
        self.name = name
        self.network = network
        self.epsilon = epsilon
        self.registry = LieRegistry(controller=name)
        self.reconciler = LieReconciler(
            registry=self.registry, controller=name, plan_cache=plan_cache
        )
        #: Overhead counters; ``stats.snapshot()`` also reads the live sets.
        self.stats = ControllerStats()
        self.stats.live_sets = self._live_counter_sets
        self.updates: List[ControllerUpdate] = []
        # Baseline view memo keyed on the topology revision:
        # (revision, max_ecmp, view).
        self._baseline_memo: Optional[Tuple[int, int, LazyFibs]] = None
        # Two lineages: the lie-free baseline (read entry by entry when
        # synthesising lies, so it keeps SPF trees only) and the lied-to view
        # (whole FIB sets, to predict/verify the converged FIBs).  Keeping
        # them separate means alternating between the two states never
        # ping-pongs the delta log.
        self.baseline_route_cache = SpfCache()
        self._lied_route_cache = RibCache()
        if network is not None and attachment is None:
            raise ControllerError(
                "an attachment router must be given when the controller drives a live network"
            )
        if attachment is not None and not topology.has_router(attachment):
            raise ControllerError(f"attachment router {attachment!r} is not in the topology")
        self.attachment = attachment
        # Crash state: a detached controller has lost its in-memory lie
        # registry and must resync() from the LSDB before enforcing again.
        self._detached = False
        if network is not None:
            network.register_controller(self)

    @property
    def plan_cache(self) -> PlanCache:
        """The controller's plan cache (shared with its optimizer/merger)."""
        return self.reconciler.plan_cache

    # ------------------------------------------------------------------ #
    # Requirement enforcement
    # ------------------------------------------------------------------ #
    def enforce_requirement(
        self,
        requirement: DestinationRequirement,
        baseline_fibs: Optional[Mapping[str, Fib]] = None,
    ) -> ControllerUpdate:
        """Make the network forward as ``requirement`` asks; returns the applied diff."""
        if baseline_fibs is not None:
            # A caller-supplied baseline cannot be attested to a graph
            # version, so the plan is made from scratch and the prefix's
            # skip bookkeeping is dropped.
            self.reconciler.forget(requirement.prefix)
            plan = self._plan_requirement(requirement, baseline_fibs)
            return self._apply(plan)
        return self.enforce([requirement])[0]

    def enforce(self, requirements: RequirementSet | Iterable[DestinationRequirement]) -> List[ControllerUpdate]:
        """Enforce several requirements as one batched update wave.

        The baseline view is fetched once (memoised while the topology does
        not change; see :meth:`baseline_fibs`), the per-prefix lie diffs are planned
        against the registry, and every resulting LSA is shipped to the
        network in a single injection so the IGP routers see one burst and
        run one SPF/FIB recomputation wave instead of one per requirement.

        A requirement whose digest and baseline graph version are both
        unchanged since its last enforcement is skipped outright (a
        ``ctl_plan_cache_hit``: no validation, no synthesis, no diff — the
        installed lies are kept); only the changed requirements are
        re-planned, however many of them there are.  The installed LSAs are
        bit-identical to the clear-and-replay oracle of ``tests/oracles.py``.
        """
        self._check_attached()
        reqs = list(requirements)
        baseline_fibs = self.baseline_fibs()
        # Plans are made and committed sequentially (so a later requirement
        # for the same prefix sees the earlier one's lies and withdraws
        # them); only the network sends are deferred into the single wave.
        plans: List[LieUpdate] = []
        now = self._now()
        version = self.baseline_route_cache.version
        counters = self.reconciler.counters
        for requirement in reqs:
            if self.reconciler.is_clean(version, requirement):
                counters.plan_cache_hits += 1
                plan = self.reconciler.noop_plan(requirement.prefix)
            else:
                counters.plans_recomputed += 1
                plan = self._plan_requirement(
                    requirement, baseline_fibs, version=version
                )
            self.registry.commit(plan, now=now)
            self.reconciler.mark_enforced(version, requirement)
            plans.append(plan)
        return self._apply_batch(plans, already_committed=True)

    def _plan_requirement(
        self,
        requirement: DestinationRequirement,
        baseline_fibs: Mapping[str, Fib],
        version: Optional[int] = None,
    ) -> LieUpdate:
        """Synthesise the lies for one requirement and diff them vs the registry."""
        desired = self.reconciler.desired_lies(
            topology=self.topology,
            requirement=requirement,
            baseline_fibs=baseline_fibs,
            version=version,
            epsilon=self.epsilon,
        )
        return self.reconciler.reconcile(requirement.prefix, desired)

    def baseline_fibs(self, max_ecmp: int = DEFAULT_MAX_ECMP) -> LazyFibs:
        """Lie-free FIBs of the current topology, resolved only where read.

        A read-only :class:`~repro.igp.rib_cache.LazyFibs` view: a router's
        SPF tree comes from :attr:`baseline_route_cache` on its first read,
        and each ``(router, prefix)`` entry is resolved on its first read, so
        a reaction pays for the routers its requirements name and nothing
        else.  The view is memoised on the topology's
        :attr:`~repro.igp.topology.Topology.revision`: while the topology
        does not change, repeated calls return the same view (and its
        already resolved entries) without rebuilding the graph.
        """
        revision = self.topology.revision
        memo = self._baseline_memo
        if memo is not None and memo[0] == revision and memo[1] == max_ecmp:
            return memo[2]
        fibs = LazyFibs(
            ComputationGraph.from_topology(self.topology),
            self.baseline_route_cache,
            max_ecmp=max_ecmp,
        )
        self._baseline_memo = (revision, max_ecmp, fibs)
        return fibs

    def baseline_version(self) -> int:
        """Version of the current lie-free graph in the baseline lineage.

        This is the version the plan cache keys on; observing the rebuilt
        graph is a no-op when the topology did not change since the last
        baseline computation (and is skipped entirely while the topology
        revision matches the memoised baseline).
        """
        memo = self._baseline_memo
        if memo is not None and memo[0] == self.topology.revision:
            return self.baseline_route_cache.version
        graph = self.baseline_route_cache.observe(
            ComputationGraph.from_topology(self.topology)
        )
        return graph.version

    # ------------------------------------------------------------------ #
    # Crash / recovery
    # ------------------------------------------------------------------ #
    @property
    def detached(self) -> bool:
        """Whether the controller is crashed (must :meth:`resync` first)."""
        return self._detached

    def detach(self) -> None:
        """Simulate a controller crash: all in-memory lie state is lost.

        The lies themselves keep living in the network — fake LSAs sit in
        the routers' LSDBs and the routers keep forwarding on the lied
        topology, which is the paper's graceful-degradation story.  Only
        the controller's volatile state dies: the lie registry, the
        reconciler's enforcement bookkeeping and name counter, the plan
        cache contents and the baseline memo.  Counters survive (they are
        telemetry, not controller memory).  Enforcing while detached
        raises; call :meth:`resync` to re-learn the state from the LSDB.
        """
        self._detached = True
        self.registry.reset()
        self.reconciler.reset()
        self.plan_cache.invalidate()
        self._baseline_memo = None
        self.updates.clear()

    def resync(self) -> int:
        """Rebuild lie state from the network's LSDB after a crash.

        Scans the attachment router's LSDB for fake-node LSAs originated by
        this controller.  Live instances are restored as ACTIVE lies; the
        fake-node name counter resumes from the highest sequence number
        parsed across live *and* withdrawn instances (the LSDB remembers
        withdrawals, so the committed naming history is fully recoverable —
        a restarted controller allocates exactly the names a never-crashed
        one would).  The enforcement bookkeeping starts empty, so the next
        :meth:`enforce` re-plans every requirement, but reconciles against
        the recovered registry and ships only the delta.  Returns the
        number of lies recovered.
        """
        if self.network is None or self.attachment is None:
            raise ControllerError("resync requires a live network attachment")
        lsdb = self.network.routers[self.attachment].lsdb
        surviving: List[FakeNodeLsa] = []
        max_sequence = 0
        for lsa in lsdb.all_lsas():
            if not isinstance(lsa, FakeNodeLsa) or lsa.origin != self.name:
                continue
            max_sequence = max(max_sequence, self._fake_sequence(lsa.fake_node))
            if not lsa.withdrawn:
                surviving.append(lsa)
        self.registry.reset()
        recovered = self.registry.restore(surviving, now=self._now())
        self.reconciler.reset(name_counter=max_sequence)
        self.plan_cache.invalidate()
        self._baseline_memo = None
        self._detached = False
        counters = self.reconciler.counters
        counters.resyncs += 1
        counters.resync_lies_recovered += recovered
        return recovered

    @staticmethod
    def _fake_sequence(fake_node: str) -> int:
        """The allocation sequence number encoded in a fake-node name."""
        return int(fake_node.rsplit("-", 1)[1])

    def clear_prefix(self, prefix: Prefix) -> ControllerUpdate:
        """Withdraw every lie programmed for ``prefix``."""
        plan = self.registry.clear(prefix)
        self.reconciler.forget(prefix)
        return self._apply(plan)

    def clear_all(self) -> List[ControllerUpdate]:
        """Withdraw every lie the controller maintains."""
        return [self.clear_prefix(prefix) for prefix in self.registry.prefixes()]

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    def active_lies(self, prefix: Optional[Prefix] = None) -> List[FakeNodeLsa]:
        """The LSAs of the currently active lies."""
        return self.registry.active_lsas(prefix)

    def active_lie_count(self, prefix: Optional[Prefix] = None) -> int:
        """How many lies are currently active (optionally per prefix)."""
        return self.registry.active_count(prefix)

    def static_fibs(self, max_ecmp: int = DEFAULT_MAX_ECMP) -> Dict[str, Fib]:
        """Converged FIBs of every router under the currently active lies.

        Served through the controller's versioned route cache: when neither
        the topology nor the lie set changed since the previous call the
        cached FIB set is returned outright, and after a lie churn only the
        affected SPF subtrees and dirty prefixes are repaired.
        """
        return compute_static_fibs(
            self.topology,
            self.active_lies(),
            max_ecmp=max_ecmp,
            rib_cache=self._lied_route_cache,
        )

    def current_fibs(self) -> Dict[str, Fib]:
        """FIBs to verify against: the live network's if attached, else static."""
        if self.network is not None:
            return self.network.fibs()
        return self.static_fibs()

    def verify_requirement(
        self,
        requirement: DestinationRequirement,
        fibs: Optional[Mapping[str, Fib]] = None,
        tolerance: float = 1e-6,
    ) -> List[str]:
        """Check that the installed FIBs realise ``requirement``.

        Returns a list of human-readable violations (empty when the network
        forwards exactly as requested).  The on-demand load balancer calls
        this after the IGP has re-converged as a closed-loop sanity check;
        tests use it to prove that synthesised lies do what they promise.
        """
        if fibs is None:
            fibs = self.current_fibs()
        violations: List[str] = []
        for router, weights in requirement:
            total = sum(weights.values())
            expected = {next_hop: weight / total for next_hop, weight in weights.items()}
            fib = fibs.get(router)
            if fib is None or not fib.has_entry(requirement.prefix):
                violations.append(
                    f"{router}: no FIB entry for {requirement.prefix}"
                )
                continue
            realised = fib.split_ratios(requirement.prefix)
            if set(realised) != set(expected):
                violations.append(
                    f"{router}: next hops {sorted(realised)} differ from required "
                    f"{sorted(expected)}"
                )
                continue
            for next_hop, fraction in expected.items():
                if abs(realised[next_hop] - fraction) > tolerance:
                    violations.append(
                        f"{router}: share toward {next_hop} is {realised[next_hop]:.4f}, "
                        f"required {fraction:.4f}"
                    )
        return violations

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        if self.network is not None:
            return self.network.timeline.now
        return 0.0

    def _check_attached(self) -> None:
        """Raise when the controller is crashed and must resync first."""
        if self._detached:
            raise ControllerError(
                f"controller {self.name!r} is detached (crashed); resync() before enforcing"
            )

    def _apply(self, plan: LieUpdate) -> ControllerUpdate:
        return self._apply_batch([plan])[0]

    def _apply_batch(
        self, plans: List[LieUpdate], already_committed: bool = False
    ) -> List[ControllerUpdate]:
        """Ship several per-prefix plans as one LSA wave and commit them.

        All inject/withdraw LSAs of the whole batch enter the network through
        a single :meth:`~repro.igp.network.IgpNetwork.inject` call, so the
        routers' SPF hold-down timers coalesce the burst into one
        recomputation wave.
        """
        self._check_attached()
        now = self._now()
        to_send: List[Lsa] = []
        plan_messages: List[List[Lsa]] = []
        for plan in plans:
            messages: List[Lsa] = list(plan.to_inject)
            messages.extend(lsa.withdraw() for lsa in plan.to_withdraw)
            plan_messages.append(messages)
            to_send.extend(messages)
        if self.network is not None and to_send:
            assert self.attachment is not None  # enforced in __init__
            self.network.inject(to_send, at_router=self.attachment)

        applied: List[ControllerUpdate] = []
        for plan, messages in zip(plans, plan_messages):
            if not already_committed:
                self.registry.commit(plan, now=now)
            update = ControllerUpdate(
                time=now,
                injected=plan.to_inject,
                withdrawn=plan.to_withdraw,
                unchanged=plan.unchanged,
            )
            self.updates.append(update)
            applied.append(update)
            self.reconciler.record_applied(plan)
            self.stats.updates_applied += 1
            self.stats.lies_injected += len(plan.to_inject)
            self.stats.lies_withdrawn += len(plan.to_withdraw)
            self.stats.messages_sent += len(messages)
            self.stats.bytes_sent += sum(lsa.size_bytes for lsa in messages)
        return applied

    def _live_counter_sets(self) -> List[Counters]:
        """The counter sets :attr:`stats` reports besides its own fields."""
        return [
            SpfCounters.total(
                (
                    self.baseline_route_cache.counters,
                    self._lied_route_cache.spf_cache.counters,
                )
            ),
            self._lied_route_cache.counters,
            # The data plane hangs off the live network; its counters are
            # part of the controller's end-to-end reaction accounting.
            self.network.counter_sets()["dataplane"]
            if self.network is not None
            else DataPlaneCounters(),
            self.reconciler.counters,
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FibbingController(name={self.name!r}, active_lies={self.active_lie_count()}, "
            f"attached={'yes' if self.network is not None else 'no'})"
        )

"""Topology augmentation: turning requirements into lies.

Given a per-destination requirement (integer-weighted next hops for a subset
of routers), this module computes the fake-node LSAs to inject so that every
constrained router ends up with exactly the required weighted FIB entries,
while unconstrained routers keep forwarding as before.

Two regimes are handled per constrained router ``u``:

* **Tie mode** — every next hop ``u`` currently uses is also required.  The
  fake paths are given *the same cost* as ``u``'s existing shortest path, so
  the real entries stay and the fake entries add to them (this is exactly
  the demo's Fig. 1c: one fake node ties at B, two tie at A).  For each
  required next hop, ``weight`` entries must exist in total, of which the
  real path already provides one when that next hop is already in use.

* **Override mode** — the requirement excludes at least one next hop ``u``
  currently uses.  The fake paths must then be *strictly cheaper* than the
  real ones so that only fake entries survive; every required next hop gets
  ``weight`` fake nodes at cost ``dist(u) - epsilon(u)``.

The per-router ``epsilon`` grows with the router's baseline IGP distance to
the prefix (routers farther from the destination reduce their cost *more*).
This guarantees that a router's own lies are always strictly cheaper than a
path through another lied-to router: if ``u`` lies on ``y``'s shortest path
then ``dist(y) = dist(y,u) + dist(u)`` and ``dist(u) < dist(y)``, so
``epsilon(y) > epsilon(u)`` makes ``y`` prefer its own lie; if ``u`` is not
on a shortest path the detour costs at least one full weight unit, which the
(sub-unit) epsilons can never compensate.  The same granularity argument
keeps the forwarding of routers without requirements unchanged.  The
construction therefore assumes integer (or at least unit-granular) IGP
weights, which all provided topologies satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.requirements import DestinationRequirement
from repro.igp.fib import Fib
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa
from repro.igp.network import compute_static_fibs
from repro.igp.topology import Topology
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = [
    "LieShape",
    "synthesize_lie_shapes",
    "synthesize_lies",
    "AugmentationError",
    "DEFAULT_EPSILON",
]

#: Default per-level cost reduction used in override mode.  Must stay below
#: the smallest difference between two distinct path costs in the topology
#: (1 for integer IGP weights) divided by the depth of the requirement DAG.
DEFAULT_EPSILON = 1e-3


class AugmentationError(ControllerError):
    """A requirement cannot be turned into lies on the given topology."""


@dataclass(frozen=True)
class LieShape:
    """The name-free content of one lie.

    Everything that determines a lie's effect on routing — anchor, fake-link
    cost, announced prefix cost and forwarding address — but not the fake
    node's name, which is administrative identity assigned by the controller
    only when the lie is actually injected.  Shapes are what the incremental
    controller caches and diffs: two reactions that want the same shapes for
    a prefix need no network messages, whatever names the active lies carry.
    """

    anchor: str
    forwarding_address: str
    link_cost: float
    prefix_cost: float


def _default_name_factory(prefix: Prefix) -> Callable[[str], str]:
    counters: Dict[str, int] = {}

    def make_name(anchor: str) -> str:
        counters[anchor] = counters.get(anchor, 0) + 1
        return f"fake_{anchor}_{prefix.network}_{prefix.length}_{counters[anchor]}"

    return make_name


def _epsilon_ranks(
    requirement: DestinationRequirement,
    baseline_costs: Mapping[str, float],
) -> Dict[str, int]:
    """Rank constrained routers by their baseline distance to the prefix.

    Routers with a strictly larger baseline cost get a strictly larger rank
    (starting at 1); routers at the same cost share a rank.  The override
    cost reduction of a router is ``rank * epsilon``, which is exactly the
    ordering needed so that no router prefers a path through another
    router's lie over its own (see the module docstring).
    """
    ordered_costs = sorted({round(baseline_costs[router], 9) for router in requirement.routers})
    rank_of_cost = {cost: index + 1 for index, cost in enumerate(ordered_costs)}
    return {
        router: rank_of_cost[round(baseline_costs[router], 9)]
        for router in requirement.routers
    }


def synthesize_lie_shapes(
    topology: Topology,
    requirement: DestinationRequirement,
    epsilon: float = DEFAULT_EPSILON,
    baseline_fibs: Optional[Mapping[str, Fib]] = None,
) -> Tuple[LieShape, ...]:
    """Compute the name-free lie shapes enforcing ``requirement``.

    This is the pure planning core of :func:`synthesize_lies`: it validates
    the requirement and derives, per constrained router, the fake-path costs
    and forwarding addresses — everything except the fake-node names, which
    only exist once lies are injected.  The incremental controller caches
    these tuples per ``(baseline graph version, requirement digest)``.
    """
    if epsilon <= 0:
        raise AugmentationError(f"epsilon must be strictly positive, got {epsilon}")
    requirement.validate(topology)
    prefix = requirement.prefix
    if baseline_fibs is None:
        baseline_fibs = compute_static_fibs(topology)

    # Decide the regime globally: ties are only safe when *every* constrained
    # router keeps its current next hops (otherwise another router's cheaper
    # lie could hijack a tie).  As soon as one router needs to drop a current
    # next hop, every constrained router is switched to override mode, with
    # distance-ranked epsilons keeping each router's own lies strictly
    # preferred over anybody else's.
    baseline_state: Dict[str, tuple] = {}
    all_tie = True
    for router in requirement.routers:
        required = requirement.weights_at(router)
        fib = baseline_fibs.get(router)
        if fib is None or not fib.has_entry(prefix):
            raise AugmentationError(
                f"router {router!r} has no baseline route toward {prefix}; cannot anchor lies"
            )
        prefix_fib = fib.lookup(prefix)
        if prefix_fib.local and not prefix_fib.entries:
            raise AugmentationError(
                f"router {router!r} announces {prefix} itself; it cannot be constrained"
            )
        current_next_hops = set(prefix_fib.next_hops())
        baseline_state[router] = (current_next_hops, prefix_fib.cost)
        if not current_next_hops.issubset(set(required)):
            all_tie = False

    ranks = _epsilon_ranks(
        requirement, {router: cost for router, (_, cost) in baseline_state.items()}
    )
    max_rank = max(ranks.values(), default=0)
    if not all_tie and epsilon * max_rank >= 1.0:
        raise AugmentationError(
            f"epsilon {epsilon} is too large for {max_rank} distinct requirement levels; "
            f"cost reductions would exceed the IGP weight granularity"
        )

    shapes: List[LieShape] = []
    for router in requirement.routers:
        required = requirement.weights_at(router)
        current_next_hops, current_cost = baseline_state[router]

        tie_mode = all_tie
        if tie_mode:
            target_cost = current_cost
            already_provided = current_next_hops
        else:
            target_cost = current_cost - epsilon * ranks[router]
            already_provided = set()
        if target_cost <= 0:
            raise AugmentationError(
                f"cannot synthesise lies at {router!r} for {prefix}: target cost "
                f"{target_cost} is not positive"
            )

        if tie_mode and set(required) == current_next_hops and all(
            weight == 1 for weight in required.values()
        ):
            # The IGP already provides exactly the required even split.
            continue

        for next_hop in sorted(required):
            needed = required[next_hop] - (1 if next_hop in already_provided else 0)
            for _ in range(needed):
                link_cost = target_cost / 2.0
                prefix_cost = target_cost - link_cost
                shapes.append(
                    LieShape(
                        anchor=router,
                        forwarding_address=next_hop,
                        link_cost=link_cost,
                        prefix_cost=prefix_cost,
                    )
                )
    return tuple(shapes)


def synthesize_lies(
    topology: Topology,
    requirement: DestinationRequirement,
    controller: str = "fibbing-controller",
    epsilon: float = DEFAULT_EPSILON,
    baseline_fibs: Optional[Mapping[str, Fib]] = None,
    name_factory: Optional[Callable[[str], str]] = None,
) -> List[FakeNodeLsa]:
    """Compute the fake-node LSAs enforcing ``requirement`` on ``topology``.

    Parameters
    ----------
    topology:
        The physical topology (without any lies).
    requirement:
        The per-destination requirement to enforce.  It is validated first.
    controller:
        Identifier used as the LSAs' origin.
    epsilon:
        Per-rank cost reduction used in override mode (see module docstring).
    baseline_fibs:
        Pre-computed lie-free FIBs (optional, avoids recomputing them when
        the caller enforces many requirements on the same topology).
    name_factory:
        Callable mapping an anchor router to a fresh, globally unique fake
        node name.  Defaults to a deterministic per-prefix counter.
    """
    shapes = synthesize_lie_shapes(
        topology, requirement, epsilon=epsilon, baseline_fibs=baseline_fibs
    )
    if name_factory is None:
        name_factory = _default_name_factory(requirement.prefix)
    return [
        FakeNodeLsa(
            origin=controller,
            fake_node=name_factory(shape.anchor),
            anchor=shape.anchor,
            link_cost=shape.link_cost,
            prefix=requirement.prefix,
            prefix_cost=shape.prefix_cost,
            forwarding_address=shape.forwarding_address,
        )
        for shape in shapes
    ]

"""Forwarding requirements: what the controller wants each router to do.

A :class:`DestinationRequirement` describes, for one destination prefix, the
weighted next hops a subset of routers must use.  Routers that do not appear
keep their normal IGP forwarding.  Requirements are the interface between the
optimisation layer (which produces fractional splits) and the augmentation
layer (which turns integer-weighted requirements into lies); they are also a
convenient place to validate that what the controller is about to enforce is
actually realisable: next hops must be physical neighbors, the induced
forwarding graph must be loop-free, and traffic must be able to reach a
router announcing the prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.splitting import approximate_ratios
from repro.igp.topology import Topology
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = ["DestinationRequirement", "RequirementSet"]


@dataclass(frozen=True)
class DestinationRequirement:
    """Weighted next-hop requirements for one destination prefix.

    ``next_hops`` maps a router name to a ``{next_hop: weight}`` dictionary;
    weights are positive integers (the number of ECMP entries the router must
    end up with toward that next hop).
    """

    prefix: Prefix
    next_hops: Mapping[str, Mapping[str, int]]

    def __post_init__(self) -> None:
        frozen: Dict[str, Dict[str, int]] = {}
        for router, hops in self.next_hops.items():
            if not hops:
                raise ControllerError(
                    f"requirement for {self.prefix} gives router {router!r} no next hop"
                )
            cleaned: Dict[str, int] = {}
            for next_hop, weight in hops.items():
                if not isinstance(weight, int) or isinstance(weight, bool):
                    raise ControllerError(
                        f"weight of {router!r}->{next_hop!r} must be an integer, got {weight!r}"
                    )
                if weight < 1:
                    raise ControllerError(
                        f"weight of {router!r}->{next_hop!r} must be >= 1, got {weight}"
                    )
                if next_hop == router:
                    raise ControllerError(f"router {router!r} cannot be its own next hop")
                cleaned[next_hop] = weight
            frozen[router] = cleaned
        object.__setattr__(self, "next_hops", frozen)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_fractions(
        cls,
        prefix: Prefix,
        fractions: Mapping[str, Mapping[str, float]],
        max_entries: int = 16,
    ) -> "DestinationRequirement":
        """Build a requirement from fractional splits (e.g. an LP solution).

        Each router's fractions are independently approximated with at most
        ``max_entries`` ECMP entries (see :mod:`repro.core.splitting`).
        """
        weighted = {
            router: approximate_ratios(split, max_entries=max_entries)
            for router, split in fractions.items()
            if split
        }
        return cls(prefix=prefix, next_hops=weighted)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def routers(self) -> List[str]:
        """Routers constrained by this requirement, sorted."""
        return sorted(self.next_hops)

    def weights_at(self, router: str) -> Dict[str, int]:
        """The weighted next hops required at ``router`` (raises if unconstrained)."""
        try:
            return dict(self.next_hops[router])
        except KeyError:
            raise ControllerError(
                f"router {router!r} is not constrained for {self.prefix}"
            ) from None

    def total_entries(self) -> int:
        """Total number of ECMP entries required across all routers."""
        return sum(sum(hops.values()) for hops in self.next_hops.values())

    def digest(self) -> str:
        """Stable hex digest of this requirement's content.

        Two requirements asking for the same weighted next hops at the same
        routers for the same prefix share a digest, regardless of the dict
        insertion order they were built with.  The incremental controller
        keys its :class:`~repro.core.reconciler.PlanCache` on
        ``(baseline graph version, digest)``, so the digest must not depend
        on object identity or construction history.  The value is memoised
        (the dataclass is frozen, so the content cannot change).
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        hasher = hashlib.sha256()
        hasher.update(str(self.prefix).encode())
        for router in sorted(self.next_hops):
            hasher.update(f"|{router}:".encode())
            hops = self.next_hops[router]
            for next_hop in sorted(hops):
                hasher.update(f"{next_hop}={hops[next_hop]},".encode())
        digest = hasher.hexdigest()
        object.__setattr__(self, "_digest", digest)
        return digest

    def without(self, routers: Iterable[str]) -> "DestinationRequirement":
        """A copy of this requirement with the given routers unconstrained."""
        dropped = set(routers)
        remaining = {
            router: hops for router, hops in self.next_hops.items() if router not in dropped
        }
        return DestinationRequirement(prefix=self.prefix, next_hops=remaining)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, topology: Topology) -> None:
        """Check that the requirement is realisable on ``topology``.

        Raises :class:`ControllerError` when a constrained router or next hop
        does not exist, when a next hop is not a physical neighbor, when the
        induced forwarding graph has a cycle, or when some constrained router
        cannot reach a router announcing the prefix along required edges and
        default IGP forwarding.
        """
        attachment_routers = {
            attachment.router for attachment in topology.prefix_attachments(self.prefix)
        }
        for router, hops in self.next_hops.items():
            if not topology.has_router(router):
                raise ControllerError(
                    f"requirement for {self.prefix} references unknown router {router!r}"
                )
            neighbors = set(topology.neighbors(router))
            for next_hop in hops:
                if not topology.has_router(next_hop):
                    raise ControllerError(
                        f"requirement for {self.prefix} references unknown next hop {next_hop!r}"
                    )
                if next_hop not in neighbors:
                    raise ControllerError(
                        f"{next_hop!r} is not a physical neighbor of {router!r}; Fibbing can "
                        f"only steer traffic over existing links"
                    )
        self._check_acyclic()
        self._check_reaches_destination(attachment_routers)

    def _check_acyclic(self) -> None:
        graph = {router: set(hops) for router, hops in self.next_hops.items()}
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(node: str) -> None:
            if node in done or node not in graph:
                return
            if node in visiting:
                raise ControllerError(
                    f"requirement for {self.prefix} contains a forwarding loop through {node!r}"
                )
            visiting.add(node)
            for successor in graph[node]:
                visit(successor)
            visiting.discard(node)
            done.add(node)

        for node in sorted(graph):
            visit(node)

    def _check_reaches_destination(self, attachment_routers: Set[str]) -> None:
        # Every constrained router must have at least one required next hop
        # that either announces the prefix, or is itself unconstrained (it
        # then follows default IGP forwarding), or recursively reaches one.
        memo: Dict[str, bool] = {}

        def reaches(node: str, trail: Set[str]) -> bool:
            if node in attachment_routers:
                return True
            if node not in self.next_hops:
                # Unconstrained routers follow IGP shortest paths, which by
                # construction reach the announcing router.
                return True
            if node in memo:
                return memo[node]
            if node in trail:
                return False
            trail = trail | {node}
            result = any(reaches(next_hop, trail) for next_hop in self.next_hops[node])
            memo[node] = result
            return result

        for router in self.routers:
            if not reaches(router, set()):
                raise ControllerError(
                    f"requirement for {self.prefix} strands traffic at {router!r}: no required "
                    f"path leads toward a router announcing the prefix"
                )

    def __iter__(self) -> Iterator[Tuple[str, Dict[str, int]]]:
        for router in self.routers:
            yield router, dict(self.next_hops[router])


class RequirementSet:
    """A collection of per-destination requirements, keyed by prefix."""

    def __init__(self, requirements: Iterable[DestinationRequirement] = ()) -> None:
        self._requirements: Dict[Prefix, DestinationRequirement] = {}
        for requirement in requirements:
            self.add(requirement)

    def add(self, requirement: DestinationRequirement) -> None:
        """Add or replace the requirement for its prefix."""
        self._requirements[requirement.prefix] = requirement

    def remove(self, prefix: Prefix) -> None:
        """Drop the requirement for ``prefix`` (raises if absent)."""
        try:
            del self._requirements[prefix]
        except KeyError:
            raise ControllerError(f"no requirement for prefix {prefix}") from None

    def get(self, prefix: Prefix) -> Optional[DestinationRequirement]:
        """The requirement for ``prefix`` or ``None``."""
        return self._requirements.get(prefix)

    @property
    def prefixes(self) -> List[Prefix]:
        """Prefixes with a requirement, sorted."""
        return sorted(self._requirements)

    def validate(self, topology: Topology) -> None:
        """Validate every requirement against ``topology``."""
        for requirement in self:
            requirement.validate(topology)

    def total_entries(self) -> int:
        """Total number of required ECMP entries across all prefixes."""
        return sum(requirement.total_entries() for requirement in self)

    def digest(self) -> str:
        """Stable hex digest of the whole set (order-independent)."""
        hasher = hashlib.sha256()
        for requirement in self:
            hasher.update(requirement.digest().encode())
            hasher.update(b";")
        return hasher.hexdigest()

    def __iter__(self) -> Iterator[DestinationRequirement]:
        for prefix in self.prefixes:
            yield self._requirements[prefix]

    def __len__(self) -> int:
        return len(self._requirements)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._requirements

"""Physical topology model: routers, links and attached destination prefixes.

A :class:`Topology` is the *ground truth* physical network.  It is distinct
from the :class:`~repro.igp.graph.ComputationGraph` that each router derives
from its link-state database: the latter can additionally contain the fake
nodes and links injected by the Fibbing controller.

Links are stored per direction, so asymmetric IGP weights are supported
(weights are symmetric by default, matching the demo).  Every directed link
carries an IGP weight, a capacity in bit/s and a propagation delay in
seconds; the capacity and delay are used by the data plane and the flooding
fabric respectively, while SPF only looks at the weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.util.errors import TopologyError
from repro.util.prefixes import Prefix
from repro.util.units import mbps
from repro.util.validation import check_non_negative, check_positive

__all__ = ["RouterInfo", "Link", "PrefixAttachment", "Topology", "DEFAULT_CAPACITY"]

#: Default link capacity: the demo uses links able to carry roughly 4 MB/s of
#: video traffic (Fig. 2's y-axis saturates at 4e6 byte/s), i.e. 32 Mbit/s.
DEFAULT_CAPACITY = mbps(32)

#: Default one-way propagation delay for links, in seconds.
DEFAULT_DELAY = 0.001


@dataclass(frozen=True)
class RouterInfo:
    """Static description of one router.

    ``name`` is the router identifier used throughout the library (e.g.
    ``"A"`` or ``"R2"``); ``router_id`` is an OSPF-like 32-bit identifier kept
    for realism and used to break ties deterministically.
    """

    name: str
    router_id: int

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Link:
    """A directed physical link ``source -> target``."""

    source: str
    target: str
    weight: float
    capacity: float = DEFAULT_CAPACITY
    delay: float = DEFAULT_DELAY

    def __post_init__(self) -> None:
        check_positive(self.weight, "weight")
        check_positive(self.capacity, "capacity")
        check_non_negative(self.delay, "delay")

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(source, target)`` pair identifying this directed link."""
        return (self.source, self.target)

    def reversed(self, weight: Optional[float] = None) -> "Link":
        """The same physical link seen in the opposite direction."""
        return Link(
            source=self.target,
            target=self.source,
            weight=self.weight if weight is None else weight,
            capacity=self.capacity,
            delay=self.delay,
        )

    def __str__(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass(frozen=True)
class PrefixAttachment:
    """A destination prefix attached to (announced by) a router.

    ``cost`` is the announcement metric (OSPF external metric); the total
    cost of a path to the prefix is the IGP distance to the announcing router
    plus this cost.
    """

    router: str
    prefix: Prefix
    cost: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.cost, "cost")


class Topology:
    """Mutable physical topology: routers, directed links, attached prefixes.

    The class enforces referential integrity (links and prefixes can only
    reference existing routers) and offers convenience constructors for
    undirected (symmetric) links, which is how the paper's figures describe
    the demo network.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._routers: Dict[str, RouterInfo] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._neighbors: Dict[str, Set[str]] = {}
        self._prefixes: Dict[Prefix, List[PrefixAttachment]] = {}
        self._next_router_id = 1
        self._revision = 0

    # ------------------------------------------------------------------ #
    # Routers
    # ------------------------------------------------------------------ #
    def add_router(self, name: str, router_id: Optional[int] = None) -> RouterInfo:
        """Add a router called ``name``; returns its :class:`RouterInfo`."""
        if not name:
            raise TopologyError("router name must be a non-empty string")
        if name in self._routers:
            raise TopologyError(f"router {name!r} already exists")
        if router_id is None:
            router_id = self._next_router_id
        self._next_router_id = max(self._next_router_id, router_id + 1)
        info = RouterInfo(name=name, router_id=router_id)
        self._routers[name] = info
        self._neighbors[name] = set()
        self._revision += 1
        return info

    def add_routers(self, names: Iterable[str]) -> List[RouterInfo]:
        """Add several routers at once (convenience for topology builders)."""
        return [self.add_router(name) for name in names]

    def has_router(self, name: str) -> bool:
        """Whether a router called ``name`` exists."""
        return name in self._routers

    def router(self, name: str) -> RouterInfo:
        """Return the :class:`RouterInfo` for ``name`` (raises if unknown)."""
        try:
            return self._routers[name]
        except KeyError:
            raise TopologyError(f"unknown router {name!r}") from None

    @property
    def revision(self) -> int:
        """Monotone mutation counter, bumped by every topology change.

        A cheap change-detection handle: two reads returning the same value
        guarantee that no router, link, weight or prefix attachment moved in
        between (through the public API).  The incremental controller uses
        it to skip rebuilding and re-diffing the baseline computation graph
        on unchanged topologies.
        """
        return self._revision

    @property
    def routers(self) -> List[str]:
        """Sorted list of router names."""
        return sorted(self._routers)

    @property
    def num_routers(self) -> int:
        """Number of routers in the topology."""
        return len(self._routers)

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #
    def add_directed_link(
        self,
        source: str,
        target: str,
        weight: float = 1.0,
        capacity: float = DEFAULT_CAPACITY,
        delay: float = DEFAULT_DELAY,
    ) -> Link:
        """Add a single directed link; both endpoints must already exist."""
        self.router(source)
        self.router(target)
        if source == target:
            raise TopologyError(f"self-loop on router {source!r} is not allowed")
        key = (source, target)
        if key in self._links:
            raise TopologyError(f"link {source}->{target} already exists")
        link = Link(source=source, target=target, weight=weight, capacity=capacity, delay=delay)
        self._links[key] = link
        self._neighbors[source].add(target)
        self._revision += 1
        return link

    def add_link(
        self,
        first: str,
        second: str,
        weight: float = 1.0,
        capacity: float = DEFAULT_CAPACITY,
        delay: float = DEFAULT_DELAY,
        reverse_weight: Optional[float] = None,
    ) -> Tuple[Link, Link]:
        """Add a bidirectional link (two directed links with shared capacity).

        ``reverse_weight`` allows asymmetric IGP weights; by default both
        directions use ``weight``.
        """
        forward = self.add_directed_link(first, second, weight, capacity, delay)
        backward = self.add_directed_link(
            second, first, weight if reverse_weight is None else reverse_weight, capacity, delay
        )
        return forward, backward

    def remove_link(self, source: str, target: str, both_directions: bool = True) -> None:
        """Remove the link ``source -> target`` (and the reverse by default)."""
        keys = [(source, target)]
        if both_directions:
            keys.append((target, source))
        removed_any = False
        for key in keys:
            if key in self._links:
                del self._links[key]
                removed_any = True
        if not removed_any:
            raise TopologyError(f"no link between {source!r} and {target!r}")
        if (source, target) not in self._links:
            self._neighbors.get(source, set()).discard(target)
        if (target, source) not in self._links:
            self._neighbors.get(target, set()).discard(source)
        self._revision += 1

    def has_link(self, source: str, target: str) -> bool:
        """Whether the directed link ``source -> target`` exists."""
        return (source, target) in self._links

    def link(self, source: str, target: str) -> Link:
        """Return the directed link ``source -> target`` (raises if unknown)."""
        try:
            return self._links[(source, target)]
        except KeyError:
            raise TopologyError(f"unknown link {source}->{target}") from None

    @property
    def links(self) -> List[Link]:
        """All directed links, sorted by (source, target)."""
        return [self._links[key] for key in sorted(self._links)]

    @property
    def undirected_links(self) -> List[Tuple[str, str]]:
        """Unordered link pairs, each reported once with endpoints sorted."""
        seen: Set[Tuple[str, str]] = set()
        for source, target in self._links:
            pair = tuple(sorted((source, target)))
            seen.add(pair)  # type: ignore[arg-type]
        return sorted(seen)

    def neighbors(self, router: str) -> List[str]:
        """Sorted list of routers reachable over one directed link from ``router``."""
        self.router(router)
        return sorted(self._neighbors[router])

    def set_weight(self, source: str, target: str, weight: float, both_directions: bool = True) -> None:
        """Change the IGP weight of an existing link (used by weight-optimisation TE)."""
        check_positive(weight, "weight")
        keys = [(source, target)]
        if both_directions:
            keys.append((target, source))
        for key in keys:
            if key not in self._links:
                raise TopologyError(f"unknown link {key[0]}->{key[1]}")
            old = self._links[key]
            self._links[key] = Link(
                source=old.source,
                target=old.target,
                weight=weight,
                capacity=old.capacity,
                delay=old.delay,
            )
        self._revision += 1

    # ------------------------------------------------------------------ #
    # Prefixes
    # ------------------------------------------------------------------ #
    def attach_prefix(self, router: str, prefix: Prefix | str, cost: float = 0.0) -> PrefixAttachment:
        """Attach (announce) ``prefix`` at ``router`` with metric ``cost``."""
        self.router(router)
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        attachment = PrefixAttachment(router=router, prefix=prefix, cost=cost)
        attachments = self._prefixes.setdefault(prefix, [])
        if any(existing.router == router for existing in attachments):
            raise TopologyError(f"prefix {prefix} already attached to {router!r}")
        attachments.append(attachment)
        self._revision += 1
        return attachment

    @property
    def prefixes(self) -> List[Prefix]:
        """Sorted list of announced prefixes."""
        return sorted(self._prefixes)

    def prefix_attachments(self, prefix: Prefix | str) -> List[PrefixAttachment]:
        """All attachments of ``prefix`` (raises if the prefix is unknown)."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        try:
            return list(self._prefixes[prefix])
        except KeyError:
            raise TopologyError(f"prefix {prefix} is not announced anywhere") from None

    def attachments_of(self, router: str) -> List[PrefixAttachment]:
        """All prefixes announced by ``router``."""
        self.router(router)
        return [
            attachment
            for attachments in self._prefixes.values()
            for attachment in attachments
            if attachment.router == router
        ]

    # ------------------------------------------------------------------ #
    # Whole-topology helpers
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep copy of the topology (links and prefix attachments included)."""
        clone = Topology(name or self.name)
        for router_name in self.routers:
            clone.add_router(router_name, self._routers[router_name].router_id)
        for link in self.links:
            clone.add_directed_link(
                link.source, link.target, link.weight, link.capacity, link.delay
            )
        for prefix, attachments in self._prefixes.items():
            for attachment in attachments:
                clone.attach_prefix(attachment.router, prefix, attachment.cost)
        return clone

    def validate(self) -> None:
        """Check internal invariants; raises :class:`TopologyError` on violation."""
        for (source, target), link in self._links.items():
            if link.key != (source, target):
                raise TopologyError(f"link key mismatch for {source}->{target}")
            if source not in self._routers or target not in self._routers:
                raise TopologyError(f"link {source}->{target} references unknown routers")
        for prefix, attachments in self._prefixes.items():
            for attachment in attachments:
                if attachment.router not in self._routers:
                    raise TopologyError(
                        f"prefix {prefix} attached to unknown router {attachment.router!r}"
                    )

    def __contains__(self, router: str) -> bool:
        return router in self._routers

    def __iter__(self) -> Iterator[str]:
        return iter(self.routers)

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, routers={self.num_routers}, "
            f"links={len(self._links)}, prefixes={len(self._prefixes)})"
        )

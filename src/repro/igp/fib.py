"""Forwarding information base: resolved, weighted next hops per prefix.

This module is where Fibbing's data-plane trick materialises.  The RIB of a
router may contain contributions whose next hop is a *fake node*; the FIB
resolves those to the physical neighbor recorded in the lie's forwarding
address.  Crucially, every fake contribution keeps its own FIB entry even
when several of them resolve to the same physical neighbor — the real system
achieves this by giving each fake node a distinct forwarding address bound to
the same interface — which is what turns a router's even ECMP hashing into an
uneven split (e.g. "R1 twice" in the paper's Fig. 1c gives a 2/3 share).

Contributions over *real* next hops are de-duplicated per neighbor, matching
what an unmodified router does when several equal-cost paths share their
first hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.igp.graph import ComputationGraph
from repro.igp.rib import Rib, Route
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix

__all__ = [
    "FibEntry",
    "PrefixFib",
    "Fib",
    "resolve_rib_to_fib",
    "update_fib",
    "DEFAULT_MAX_ECMP",
]

#: Default bound on the number of equal-cost entries a router installs for a
#: single prefix.  Commodity routers typically support between 16 and 64 ECMP
#: entries; 16 is the conservative figure used by the paper's argument that
#: splitting ratios are approximated with a bounded denominator.
DEFAULT_MAX_ECMP = 16


@dataclass(frozen=True)
class FibEntry:
    """One weighted forwarding entry: send ``weight`` shares to ``next_hop``."""

    next_hop: str
    weight: int
    via_fake: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise RoutingError(f"FIB entry weight must be >= 1, got {self.weight}")


@dataclass(frozen=True)
class PrefixFib:
    """All forwarding entries of one router toward one prefix."""

    prefix: Prefix
    cost: float
    entries: Tuple[FibEntry, ...]
    local: bool = False
    truncated: bool = False

    @property
    def total_weight(self) -> int:
        """Sum of the entry weights (the split denominator)."""
        return sum(entry.weight for entry in self.entries)

    def split_ratios(self) -> Dict[str, float]:
        """Traffic fraction sent to each next hop (empty for local delivery)."""
        total = self.total_weight
        if total == 0:
            return {}
        return {entry.next_hop: entry.weight / total for entry in self.entries}

    def next_hops(self) -> Tuple[str, ...]:
        """Distinct physical next hops, sorted."""
        return tuple(sorted(entry.next_hop for entry in self.entries))


class Fib:
    """Forwarding table of one router: per-prefix weighted next hops."""

    def __init__(self, router: str, prefix_fibs: Mapping[Prefix, PrefixFib]) -> None:
        self.router = router
        self._prefix_fibs = dict(prefix_fibs)
        # Lazily built by via_fake_prefixes(); a Fib is immutable once
        # handed out, so the index never goes stale.
        self._via_fake_index: Optional[Dict[str, Set[Prefix]]] = None

    @property
    def prefixes(self) -> List[Prefix]:
        """Sorted list of prefixes with at least one forwarding entry or local delivery."""
        return sorted(self._prefix_fibs)

    def lookup(self, prefix: Prefix) -> PrefixFib:
        """The forwarding entries toward ``prefix`` (raises if absent)."""
        try:
            return self._prefix_fibs[prefix]
        except KeyError:
            raise RoutingError(f"router {self.router!r} has no FIB entry for {prefix}") from None

    def has_entry(self, prefix: Prefix) -> bool:
        """Whether this FIB can forward traffic toward ``prefix``."""
        return prefix in self._prefix_fibs

    def split_ratios(self, prefix: Prefix) -> Dict[str, float]:
        """Convenience: the per-next-hop traffic fractions for ``prefix``."""
        return self.lookup(prefix).split_ratios()

    def delivers_locally(self, prefix: Prefix) -> bool:
        """Whether ``prefix`` is attached to this router (traffic terminates here)."""
        return prefix in self._prefix_fibs and self._prefix_fibs[prefix].local

    @property
    def entry_count(self) -> int:
        """Total number of installed forwarding entries (all prefixes)."""
        return sum(len(pf.entries) for pf in self._prefix_fibs.values())

    def via_fake_prefixes(self) -> Dict[str, Set[Prefix]]:
        """Index of fake-node name to the prefixes forwarding through it.

        Built lazily on first use and cached (a ``Fib`` is immutable once
        returned).  This is what lets the RIB cache's per-event resolution
        churn check touch only the handful of lie-dependent prefixes instead
        of scanning every installed entry — see
        :meth:`repro.igp.rib_cache.RibCache._fib_dirty`.
        """
        if self._via_fake_index is None:
            index: Dict[str, Set[Prefix]] = {}
            for prefix, prefix_fib in self._prefix_fibs.items():
                for entry in prefix_fib.entries:
                    for fake in entry.via_fake:
                        index.setdefault(fake, set()).add(prefix)
            self._via_fake_index = index
        return self._via_fake_index

    def changed_prefixes(self, other: "Fib") -> Set[Prefix]:
        """Prefixes whose forwarding entry differs between ``self`` and ``other``.

        Covers additions, removals and modifications.  Because incremental
        FIB repair (:func:`update_fib`) carries clean :class:`PrefixFib`
        objects over wholesale, unchanged prefixes are usually dismissed by
        identity without a structural comparison — this is what makes the
        data plane's per-event FIB diff cheap.
        """
        changed: Set[Prefix] = set()
        for prefix, mine in self._prefix_fibs.items():
            theirs = other._prefix_fibs.get(prefix)
            if theirs is None or (theirs is not mine and theirs != mine):
                changed.add(prefix)
        for prefix in other._prefix_fibs:
            if prefix not in self._prefix_fibs:
                changed.add(prefix)
        return changed

    def __iter__(self) -> Iterator[PrefixFib]:
        for prefix in self.prefixes:
            yield self._prefix_fibs[prefix]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Fib(router={self.router!r}, prefixes={len(self._prefix_fibs)})"


def resolve_rib_to_fib(
    graph: ComputationGraph,
    rib: Rib,
    max_ecmp: int = DEFAULT_MAX_ECMP,
) -> Fib:
    """Resolve every RIB route into weighted physical forwarding entries.

    Parameters
    ----------
    graph:
        The computation graph the RIB was derived from (needed to resolve
        fake next hops and to validate forwarding addresses).
    rib:
        The router's RIB.
    max_ecmp:
        Upper bound on the number of entries installed per prefix.  When the
        resolved entries exceed the bound, the lowest-weight entries are
        dropped first (deterministically), and the resulting
        :class:`PrefixFib` is flagged ``truncated``.
    """
    if max_ecmp < 1:
        raise RoutingError(f"max_ecmp must be >= 1, got {max_ecmp}")

    prefix_fibs: Dict[Prefix, PrefixFib] = {}
    for route in rib:
        prefix_fibs[route.prefix] = _resolve_route(graph, rib.router, route, max_ecmp)
    return Fib(rib.router, prefix_fibs)


def update_fib(
    graph: ComputationGraph,
    prev: Fib,
    rib: Rib,
    dirty: Iterable[Prefix],
    max_ecmp: int = DEFAULT_MAX_ECMP,
) -> Fib:
    """Repair ``prev`` by re-resolving only the ``dirty`` prefixes of ``rib``.

    Clean :class:`PrefixFib` objects are carried over wholesale.  ``dirty``
    must cover every prefix whose route changed *and* every prefix whose
    previous entries resolve through a fake node whose metadata (forwarding
    address, anchor) changed — :class:`~repro.igp.rib_cache.RibCache` derives
    both sets from the graph's change log.
    """
    if max_ecmp < 1:
        raise RoutingError(f"max_ecmp must be >= 1, got {max_ecmp}")
    prefix_fibs = dict(prev._prefix_fibs)
    for prefix in dirty:
        if rib.has_route(prefix):
            prefix_fibs[prefix] = _resolve_route(
                graph, rib.router, rib.route(prefix), max_ecmp
            )
        else:
            prefix_fibs.pop(prefix, None)
    return Fib(rib.router, prefix_fibs)


def _resolve_route(
    graph: ComputationGraph,
    router: str,
    route: Route,
    max_ecmp: int,
) -> PrefixFib:
    real_next_hops: Set[str] = set()
    fake_entries: List[Tuple[str, str]] = []  # (fake node, physical next hop)
    local = False

    for contribution in route.contributions:
        if contribution.next_hop is None:
            local = True
            continue
        if contribution.next_hop_is_fake:
            # Only a lie's anchor routes to the fake node itself.
            info = graph.fake_info(contribution.next_hop)
            physical = info.forwarding_address
            _validate_forwarding_address(graph, router, info.name, physical)
            fake_entries.append((info.name, physical))
        else:
            real_next_hops.add(contribution.next_hop)

    entries: Dict[str, Dict[str, object]] = {}
    for next_hop in sorted(real_next_hops):
        entries[next_hop] = {"weight": 1, "via_fake": []}
    for fake_node, physical in sorted(fake_entries):
        slot = entries.setdefault(physical, {"weight": 0, "via_fake": []})
        slot["weight"] = int(slot["weight"]) + 1
        slot["via_fake"].append(fake_node)  # type: ignore[union-attr]

    fib_entries = [
        FibEntry(
            next_hop=next_hop,
            weight=int(slot["weight"]),
            via_fake=tuple(slot["via_fake"]),  # type: ignore[arg-type]
        )
        for next_hop, slot in sorted(entries.items())
        if int(slot["weight"]) > 0
    ]

    truncated = False
    total_entries = sum(entry.weight for entry in fib_entries)
    if total_entries > max_ecmp:
        fib_entries, truncated = _truncate(fib_entries, max_ecmp)

    return PrefixFib(
        prefix=route.prefix,
        cost=route.cost,
        entries=tuple(fib_entries),
        local=local,
        truncated=truncated,
    )


def _truncate(entries: List[FibEntry], max_ecmp: int) -> Tuple[List[FibEntry], bool]:
    """Reduce total entry weight to ``max_ecmp``, largest weights first.

    Keeping the heaviest entries preserves the dominant next hops; at least
    one unit of weight per surviving next hop is retained where possible.
    """
    ordered = sorted(entries, key=lambda entry: (-entry.weight, entry.next_hop))
    budget = max_ecmp
    kept: List[FibEntry] = []
    for entry in ordered:
        if budget <= 0:
            break
        weight = min(entry.weight, budget)
        kept.append(FibEntry(next_hop=entry.next_hop, weight=weight, via_fake=entry.via_fake))
        budget -= weight
    kept.sort(key=lambda entry: entry.next_hop)
    return kept, True


def _validate_forwarding_address(
    graph: ComputationGraph, router: str, fake_node: str, physical: str
) -> None:
    if graph.is_fake(physical):
        raise RoutingError(
            f"fake node {fake_node!r} resolves to another fake node {physical!r}"
        )
    if not graph.has_node(physical):
        raise RoutingError(
            f"fake node {fake_node!r} resolves to unknown next hop {physical!r}"
        )
    if physical not in graph.successors(router):
        raise RoutingError(
            f"fake node {fake_node!r} resolves to {physical!r}, which is not adjacent "
            f"to its anchor {router!r}"
        )

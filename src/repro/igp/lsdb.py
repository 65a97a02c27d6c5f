"""Per-router link-state database (LSDB).

The LSDB stores the most recent instance of every LSA the router has heard
of, keyed by :class:`~repro.igp.lsa.LsaKey`.  Installation follows OSPF
semantics: a higher sequence number replaces an older instance, a withdrawn
instance removes the LSA, and stale or duplicate instances are ignored (and
reported as such so flooding can stop).

The database also owns the router's one live
:class:`~repro.igp.graph.ComputationGraph`.  The first :meth:`graph` call
builds it from the live LSAs, through the :class:`GraphBuilds` memo the
database shares with the other routers of its network: the first database
to build on a given content calls
:meth:`~repro.igp.graph.ComputationGraph.from_lsdb`, and every later one
holding an equal LSA mapping gets a
:meth:`~repro.igp.graph.ComputationGraph.copy` of that build.  A boot, where
every router runs its first SPF on the same flooded database, so costs one
build per distinct content, not one per router; a router whose database
differs when it builds (it ran SPF early, on a partial database) falls back
to its own ``from_lsdb``.  From then on :meth:`install` applies each
accepted LSA to the router's own graph as one recorded delta step, under the
rules ``from_lsdb`` builds by (two-way check for edges; a lie is in the graph
iff its forwarding address is a two-way neighbour of its anchor), so SPF and
RIB repair read what changed from the graph's own log.  A lie LSA moves no
edge, so it costs the routers a RIB repair of its prefix and no SPF.
``from_lsdb(live_lsas())`` stays the oracle the live graph must equal
(``tests/test_igp_graph_incremental.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa, Lsa, LsaKey, PrefixLsa, RouterLsa
from repro.util.errors import TopologyError

__all__ = ["GraphBuilds", "LinkStateDatabase"]


class GraphBuilds:
    """The graphs a set of LSDBs built, by LSDB content.

    An :class:`~repro.igp.network.IgpNetwork` points the databases of all
    its routers at one instance; a database built on its own has a private
    one.  Two databases match only on equal LSA mappings (withdrawn
    instances included).  Flooding hands every router the same LSA objects,
    so comparing two mappings costs a lookup per key and an identity check
    per value.  A match only saves the build: the copy equals what
    ``from_lsdb`` would have built from the same live LSAs.
    """

    def __init__(self) -> None:
        # Per distinct content: the mapping as it was at the build, the
        # graph as built (never mutated), and its live lies in key order.
        self._builds: List[Tuple[Dict[LsaKey, Lsa], ComputationGraph, List[FakeNodeLsa]]] = []

    def build(self, lsdb: "LinkStateDatabase") -> Tuple[ComputationGraph, List[FakeNodeLsa]]:
        """A graph of ``lsdb``'s live LSAs that only the caller holds, and its live lies."""
        lsas = lsdb._lsas
        for content, graph, lies in self._builds:
            if content == lsas:
                return graph.copy(), lies
        live = lsdb.live_lsas()
        graph = ComputationGraph.from_lsdb(live)
        lies = [lsa for lsa in live if isinstance(lsa, FakeNodeLsa)]
        self._builds.append((dict(lsas), graph.copy(), lies))
        return graph, lies


class LinkStateDatabase:
    """Container of the freshest known LSAs, with change detection."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._lsas: Dict[LsaKey, Lsa] = {}
        self._version = 0
        self._graph: Optional[ComputationGraph] = None
        #: The memo :meth:`graph` builds through; an ``IgpNetwork`` shares
        #: one among all its routers.
        self.builds = GraphBuilds()
        # Live lies by anchor, whether or not they are in the graph right
        # now: the ones to re-check when an adjacency of the anchor comes or
        # goes.  Maintained once the live graph exists.
        self._lies_at: Dict[str, Dict[LsaKey, FakeNodeLsa]] = {}

    @property
    def version(self) -> int:
        """Monotonic counter incremented on every effective change."""
        return self._version

    def install(self, lsa: Lsa) -> bool:
        """Install ``lsa`` if it is newer than what the LSDB holds.

        Returns ``True`` when the database changed (the LSA must then be
        flooded onwards and SPF rescheduled) and ``False`` when the instance
        was stale or a duplicate.
        """
        key = lsa.key
        current = self._lsas.get(key)
        if current is not None and lsa.sequence <= current.sequence:
            return False
        # A withdrawal is stored like any other instance, so that older
        # instances arriving later (out-of-order flooding) are recognised as
        # stale.
        self._lsas[key] = lsa
        self._version += 1
        if self._graph is not None:
            self._apply(current, lsa)
        return True

    def get(self, key: LsaKey) -> Optional[Lsa]:
        """The freshest instance for ``key`` (withdrawn instances included)."""
        return self._lsas.get(key)

    def live_lsas(self) -> List[Lsa]:
        """All non-withdrawn LSAs, sorted by key for determinism."""
        return [self._lsas[key] for key in sorted(self._lsas) if not self._lsas[key].withdrawn]

    def all_lsas(self) -> List[Lsa]:
        """Every stored instance, withdrawn ones included (for flooding sync)."""
        return [self._lsas[key] for key in sorted(self._lsas)]

    def graph(self) -> ComputationGraph:
        """The live computation graph of this LSDB (read-only for callers).

        Built from the live LSAs on the first call, through :attr:`builds`:
        a copy of an earlier build when another database of the memo built
        on an equal LSA mapping, else a ``from_lsdb`` build of its own.
        Every later call returns the same object, kept in step by
        :meth:`install` and held by this database alone.
        """
        if self._graph is None:
            self._graph, lies = self.builds.build(self)
            for lie in lies:
                self._lies_at.setdefault(lie.anchor, {})[lie.key] = lie
        return self._graph

    # ------------------------------------------------------------------ #
    # Delta application (one installed LSA = one graph log step)
    # ------------------------------------------------------------------ #
    def _apply(self, old: Optional[Lsa], new: Lsa) -> None:
        """Move the live graph from ``old`` (the instance replaced) to ``new``.

        Once the graph exists only lies come and go: a router re-originates
        its router LSA when an adjacency moves but never withdraws it, and
        announces each prefix once, at boot.  A live prefix LSA replaced or
        withdrawn, or a live router LSA withdrawn, raises
        :class:`TopologyError`.
        """
        if old is not None and old.withdrawn:
            old = None
        if new.withdrawn:
            live = None
        elif old is not None and replace(old, sequence=new.sequence) == new:
            return  # a refresh: the graph, and so its version, must not move
        else:
            live = new
        if old is not None and (
            isinstance(new, PrefixLsa) or (live is None and isinstance(new, RouterLsa))
        ):
            raise TopologyError(
                f"{type(new).__name__} of {new.origin!r} replaced or withdrawn in a live graph"
            )
        with self._graph.one_step():
            if isinstance(new, RouterLsa):
                self._apply_router(new.origin, old, live)
            elif isinstance(new, PrefixLsa):
                if live is not None:
                    self._graph.announce(new.origin, live.prefix, live.metric)
            elif isinstance(new, FakeNodeLsa):
                self._apply_fake(old, live)
            else:  # pragma: no cover - future LSA kinds
                raise TopologyError(f"unsupported LSA type {type(new).__name__}")

    def _apply_router(
        self, origin: str, old: Optional[RouterLsa], new: Optional[RouterLsa]
    ) -> None:
        graph = self._graph
        # ``dict`` keeps the last of duplicate neighbour entries, as from_lsdb does.
        before = dict(old.links) if old is not None else {}
        after = dict(new.links) if new is not None else {}
        if new is not None:
            graph.add_node(origin)
        for neighbor in [*before, *(name for name in after if name not in before)]:
            was, now = before.get(neighbor), after.get(neighbor)
            if was == now:
                continue
            # The two-way check: the adjacency exists while both ends
            # advertise it.  A self-advertisement is its own reverse.
            if neighbor == origin:
                back_was, back_now = was, now
            else:
                back_was = back_now = self._advertised(neighbor, origin)
            existed = was is not None and back_was is not None
            exists = now is not None and back_now is not None
            if exists:
                graph.add_edge(origin, neighbor, now)  # new, or re-costed
                if not existed:
                    graph.add_edge(neighbor, origin, back_now)
            elif existed:
                graph.remove_edge(origin, neighbor)
                if neighbor != origin:
                    graph.remove_edge(neighbor, origin)
            if existed != exists:
                self._recheck_lies(origin, neighbor)
                self._recheck_lies(neighbor, origin)

    def _live_router_lsa(self, router: str) -> Optional[RouterLsa]:
        lsa = self._lsas.get(LsaKey(kind="router", origin=router))
        return lsa if lsa is not None and not lsa.withdrawn else None

    def _advertised(self, router: str, neighbor: str) -> Optional[float]:
        """Cost at which ``router``'s live router LSA advertises ``neighbor``."""
        lsa = self._live_router_lsa(router)
        cost = None
        if lsa is not None:
            for name, link_cost in lsa.links:
                if name == neighbor:
                    cost = link_cost
        return cost

    def _apply_fake(self, old: Optional[FakeNodeLsa], new: Optional[FakeNodeLsa]) -> None:
        if old is not None:
            lies = self._lies_at[old.anchor]
            del lies[old.key]
            if not lies:
                del self._lies_at[old.anchor]
            if self._graph.is_fake(old.fake_node):
                self._graph.remove_fake_node(old.fake_node)
        if new is not None:
            self._lies_at.setdefault(new.anchor, {})[new.key] = new
            self._sync_lie(new)

    def _recheck_lies(self, anchor: str, forwarding_address: str) -> None:
        """Re-evaluate the lies at ``anchor`` that forward to ``forwarding_address``."""
        for lie in self._lies_at.get(anchor, {}).values():
            if lie.forwarding_address == forwarding_address:
                self._sync_lie(lie)

    def _sync_lie(self, lie: FakeNodeLsa) -> None:
        """Put ``lie`` in the graph iff its forwarding adjacency is up."""
        graph = self._graph
        wanted = graph.has_node(lie.anchor) and (
            lie.forwarding_address in graph.successors(lie.anchor)
        )
        if wanted and not graph.is_fake(lie.fake_node):
            graph.add_fake_node(
                name=lie.fake_node,
                anchor=lie.anchor,
                link_cost=lie.link_cost,
                prefix=lie.prefix,
                prefix_cost=lie.prefix_cost,
                forwarding_address=lie.forwarding_address,
            )
        elif not wanted and graph.is_fake(lie.fake_node):
            graph.remove_fake_node(lie.fake_node)

    def __len__(self) -> int:
        return len(self._lsas)

    def __iter__(self) -> Iterator[Lsa]:
        return iter(self.all_lsas())

    def __contains__(self, key: LsaKey) -> bool:
        return key in self._lsas

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        live = len(self.live_lsas())
        return f"LinkStateDatabase(owner={self.owner!r}, lsas={len(self._lsas)}, live={live})"

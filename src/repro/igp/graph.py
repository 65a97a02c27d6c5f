"""The computation graph a router derives from its link-state database.

The graph holds the routers (from :class:`~repro.igp.lsa.RouterLsa`), the
directed weighted edges between them, per-node prefix announcements, and the
Fibbing lies (from :class:`~repro.igp.lsa.FakeNodeLsa`).  SPF
(:mod:`repro.igp.spf`) runs over the routers and edges only.  A lie is a
*leaf*: its fake node hangs off one anchor and so can never shorten a path
between two routers, the way OSPF treats a type-5 LSA as a route and not as
a vertex.  The graph keeps each lie as an announcement of its prefix by the
fake node, plus a :class:`FakeNodeInfo` attachment (anchor, fake-link cost,
forwarding address); route resolution (:mod:`repro.igp.rib`) reaches it
through its anchor, at ``dist(anchor) + link_cost``.  Installing or
withdrawing a lie therefore moves no edge, and an SPF cache sees no delta.

The same class is also buildable straight from a :class:`Topology` plus a
list of lies, which is what the static route computation
(:func:`repro.igp.network.compute_static_fibs`) and the TE baselines use to
avoid running the full event-driven control plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.igp.lsa import FakeNodeLsa, Lsa, PrefixLsa, RouterLsa
from repro.igp.topology import Topology
from repro.util.errors import TopologyError
from repro.util.prefixes import Prefix

__all__ = ["ComputationGraph", "EdgeDelta", "GraphChange", "FakeNodeInfo"]

#: Bounds on the dirty-edge delta log.  When either is exceeded the oldest
#: steps are dropped and caches pinned to versions before the drop must fall
#: back to a full SPF recomputation.
_MAX_LOG_STEPS = 256
_MAX_LOG_EDGES = 4096


@dataclass(frozen=True)
class EdgeDelta:
    """One directed-edge change between two graph versions.

    ``old_cost is None`` means the edge did not exist before; ``new_cost is
    None`` means it no longer exists.  Router insertions and removals are
    fully described by the deltas of their incident edges (an isolated node
    never affects SPF); lies are not nodes and log no edge deltas.
    """

    source: str
    target: str
    old_cost: Optional[float]
    new_cost: Optional[float]


@dataclass(frozen=True)
class GraphChange:
    """Everything that changed between two graph versions.

    ``edges`` are the directed-edge deltas (what SPF repair consumes);
    ``prefixes`` are the prefixes whose announcers changed in any way
    (announcer added/removed, metric changed, or a lie's attachment
    altered).  Every lie change lists its prefix, so ``prefixes`` is what
    per-prefix RIB/FIB dirty tracking starts from: a prefix it does not
    name, and whose announcers' SPF state did not move, resolves to a
    bit-identical route, so its previous :class:`~repro.igp.rib.Route` can
    be reused.
    """

    edges: Tuple[EdgeDelta, ...] = ()
    prefixes: FrozenSet[Prefix] = frozenset()

    @property
    def is_empty(self) -> bool:
        return not (self.edges or self.prefixes)


@dataclass(frozen=True)
class FakeNodeInfo:
    """A lie's attachment: what resolving a route through its fake node needs.

    The fake node ``name`` hangs off ``anchor`` by a link of ``link_cost``
    and announces ``prefix`` at ``prefix_cost``; the anchor sends what it
    routes to the fake node to ``forwarding_address``.
    """

    name: str
    anchor: str
    link_cost: float
    prefix: Prefix
    prefix_cost: float
    forwarding_address: str


#: One entry of the delta log: version after the step, then its edge deltas
#: and touched prefixes.
_LogStep = Tuple[int, Tuple[EdgeDelta, ...], Tuple[Prefix, ...]]


class _OneStep:
    """The context manager behind :meth:`ComputationGraph.one_step`."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "ComputationGraph") -> None:
        self._graph = graph

    def __enter__(self) -> None:
        self._graph._step = []

    def __exit__(self, *exc_info: object) -> None:
        self._graph._close_step()


class ComputationGraph:
    """Directed weighted graph over routers, with prefix announcements and lies."""

    def __init__(self) -> None:
        self._edges: Dict[str, Dict[str, float]] = {}
        self._redges: Dict[str, Dict[str, float]] = {}
        # Announcements by announcer (routers and fake nodes alike) and the
        # same entries indexed by prefix, so ``announcers`` and ``prefixes``
        # need no scan over the announcers.
        self._announcements: Dict[str, Dict[Prefix, float]] = {}
        self._prefix_refs: Dict[Prefix, Dict[str, float]] = {}
        self._fake_nodes: Dict[str, FakeNodeInfo] = {}
        self._version = 0
        # Dirty delta log: (version-after-step, edge deltas, prefixes) — the
        # parts of the step's :class:`GraphChange`, assembled only when a
        # reader asks.  Beyond the edge deltas SPF repair needs, each step
        # carries the prefixes whose announcer map changed, which is what
        # per-prefix RIB/FIB dirty tracking consumes.
        # ``_history_base`` is the oldest version the log can still replay
        # from; ``deltas_since``/``changes_since`` answer ``None`` for
        # anything older.  ``_recording`` is switched off while the builder
        # classmethods run — a freshly built graph has no usable history
        # (``compute_static_fibs``, the one call site that rebuilds per call,
        # gets its single step from ``continue_from``), so logging every
        # construction edge only to discard it would dominate build time.
        # ``_step`` collects the parts of an open :meth:`one_step` block.
        self._delta_log: List[_LogStep] = []
        self._log_edges = 0
        self._history_base = 0
        self._recording = True
        self._step: Optional[List[tuple]] = None

    # ------------------------------------------------------------------ #
    # Versioning / delta log
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotonic counter bumped on every effective mutation."""
        return self._version

    def _record(
        self,
        edges: Tuple[EdgeDelta, ...] = (),
        prefixes: Tuple[Prefix, ...] = (),
    ) -> None:
        """Bump the version and log one delta step (or add to the open one)."""
        self._version += 1
        if not self._recording:
            return
        if self._step is not None:
            self._step.append((edges, prefixes))
        else:
            self._log(edges, prefixes)

    def _log(self, edges: Tuple[EdgeDelta, ...], prefixes: Tuple[Prefix, ...]) -> None:
        self._delta_log.append((self._version, edges, prefixes))
        self._log_edges += len(edges)
        if len(self._delta_log) > _MAX_LOG_STEPS or self._log_edges > _MAX_LOG_EDGES:
            self._trim_log()

    def one_step(self) -> "_OneStep":
        """Context manager logging every mutation made inside it as one step.

        The LSDB wraps the application of one LSA in it, so the log bound
        counts LSAs however many edges, announcements and fake nodes each
        one moves.  Versions taken inside the block cannot be replayed from.
        """
        return _OneStep(self)

    def _close_step(self) -> None:
        parts, self._step = self._step, None
        if len(parts) == 1:
            self._log(*parts[0])
        elif parts:
            self._log(
                tuple(delta for part in parts for delta in part[0]),
                tuple(prefix for part in parts for prefix in part[1]),
            )

    def drop_history(self) -> None:
        """Forget the delta log; only the current version can be continued from.

        For the owner of a live graph whose caches have all caught up with
        the current version (a router after its SPF run).
        """
        self._delta_log = []
        self._log_edges = 0
        self._history_base = self._version

    def _trim_log(self) -> None:
        while self._delta_log and (
            len(self._delta_log) > _MAX_LOG_STEPS or self._log_edges > _MAX_LOG_EDGES
        ):
            version, edges, _ = self._delta_log.pop(0)
            self._log_edges -= len(edges)
            self._history_base = version

    def _reset_history(self) -> None:
        """Forget the construction-time log (used by the builder classmethods)."""
        self._version = 0
        self.drop_history()
        self._recording = True

    def deltas_since(self, version: int) -> Optional[Tuple[EdgeDelta, ...]]:
        """Edge changes between graph state ``version`` and now.

        Returns ``()`` when the graph is unchanged, and ``None`` when the
        delta log no longer reaches back far enough (the caller must then
        recompute from scratch).
        """
        # Kept separate from ``changes_since`` so the per-source SPF hot path
        # does not pay for prefix frozensets it never reads.
        if version == self._version:
            return ()
        if version < self._history_base or version > self._version:
            return None
        collected: List[EdgeDelta] = []
        for step in self._delta_log:
            if step[0] > version:
                collected.extend(step[1])
        return tuple(collected)

    def changes_since(self, version: int) -> Optional[GraphChange]:
        """Full :class:`GraphChange` between graph state ``version`` and now.

        Returns an empty change when the graph is unchanged, and ``None``
        when the delta log no longer reaches back far enough (the caller must
        then recompute from scratch).
        """
        if version == self._version:
            return GraphChange()
        if version < self._history_base or version > self._version:
            return None
        edges: List[EdgeDelta] = []
        prefixes: Set[Prefix] = set()
        for step_version, step_edges, step_prefixes in self._delta_log:
            if step_version > version:
                edges.extend(step_edges)
                prefixes.update(step_prefixes)
        return GraphChange(edges=tuple(edges), prefixes=frozenset(prefixes))

    def continue_from(self, previous: "ComputationGraph") -> None:
        """Chain this (freshly built) graph to ``previous``'s version history.

        When the two states are identical the previous version and delta log
        are adopted unchanged, so caches keyed by version keep hitting.
        Otherwise the edge diff is appended as a single delta step on top of
        the previous history.  This is how the one call site that still
        rebuilds from scratch — ``compute_static_fibs``, and the controller's
        baseline built the same way from the topology — gets incremental SPF
        (an SPF hit when only lies moved); a router's LSDB mutates its live
        graph in place instead and needs no diff.
        """
        if previous is self:
            return
        deltas: List[EdgeDelta] = []
        for source, targets in previous._edges.items():
            new_targets = self._edges.get(source, {})
            for target, old_cost in targets.items():
                new_cost = new_targets.get(target)
                if new_cost is None or new_cost != old_cost:
                    deltas.append(EdgeDelta(source, target, old_cost, new_cost))
        for source, targets in self._edges.items():
            old_targets = previous._edges.get(source, {})
            for target, cost in targets.items():
                if target not in old_targets:
                    deltas.append(EdgeDelta(source, target, None, cost))
        prefix_deltas = {
            prefix
            for prefix in self._prefix_refs.keys() | previous._prefix_refs.keys()
            if self._prefix_refs.get(prefix) != previous._prefix_refs.get(prefix)
        }
        for name in self._fake_nodes.keys() | previous._fake_nodes.keys():
            mine, theirs = self._fake_nodes.get(name), previous._fake_nodes.get(name)
            if mine != theirs:
                prefix_deltas.update(info.prefix for info in (mine, theirs) if info)
        # Keys are compared too so that an isolated node appearing or
        # vanishing (no edge delta) still gets its own version.
        same_state = (
            not deltas
            and not prefix_deltas
            and self._edges.keys() == previous._edges.keys()
        )
        self._history_base = previous._history_base
        self._delta_log = list(previous._delta_log)
        self._log_edges = previous._log_edges
        if same_state:
            self._version = previous._version
        else:
            self._version = previous._version + 1
            self._log(tuple(deltas), tuple(prefix_deltas))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str) -> None:
        """Ensure ``name`` exists in the graph (idempotent)."""
        if name not in self._edges:
            self._edges[name] = {}
            self._redges[name] = {}
            self._version += 1

    def add_edge(self, source: str, target: str, cost: float) -> None:
        """Add (or overwrite) the directed edge ``source -> target`` at ``cost``."""
        delta = self._set_edge(source, target, cost)
        if delta is not None:
            self._record(edges=(delta,))

    def _set_edge(self, source: str, target: str, cost: float) -> Optional[EdgeDelta]:
        """:meth:`add_edge` without the log entry; ``None`` when nothing changed."""
        if cost <= 0:
            raise TopologyError(f"edge {source}->{target} must have positive cost, got {cost}")
        self.add_node(source)
        self.add_node(target)
        cost = float(cost)
        old = self._edges[source].get(target)
        if old == cost:
            return None
        self._edges[source][target] = cost
        self._redges[target][source] = cost
        return EdgeDelta(source, target, old, cost)

    def remove_edge(self, source: str, target: str) -> None:
        """Remove the directed edge ``source -> target`` (raises if absent)."""
        try:
            old = self._edges[source].pop(target)
        except KeyError:
            raise TopologyError(f"no edge {source}->{target}") from None
        del self._redges[target][source]
        self._record(edges=(EdgeDelta(source, target, old, None),))

    def announce(self, node: str, prefix: Prefix, cost: float) -> None:
        """Record that ``node`` announces ``prefix`` at metric ``cost``.

        If the node announces the same prefix several times, the cheapest
        announcement wins (matching OSPF behaviour for duplicate externals).
        """
        if self._set_announcement(node, prefix, cost):
            self.add_node(node)
            self._record(prefixes=(prefix,))

    def _set_announcement(self, node: str, prefix: Prefix, cost: float) -> bool:
        """:meth:`announce` without the node or the log entry; whether anything changed."""
        if cost < 0:
            raise TopologyError(f"announcement cost must be non-negative, got {cost}")
        announcements = self._announcements.setdefault(node, {})
        current = announcements.get(prefix)
        if current is not None and cost >= current:
            return False
        cost = float(cost)
        announcements[prefix] = cost
        self._prefix_refs.setdefault(prefix, {})[node] = cost
        return True

    def _release_prefix(self, prefix: Prefix, node: str) -> None:
        announcers = self._prefix_refs[prefix]
        del announcers[node]
        if not announcers:
            del self._prefix_refs[prefix]

    def add_fake_node(
        self,
        name: str,
        anchor: str,
        link_cost: float,
        prefix: Prefix,
        prefix_cost: float,
        forwarding_address: str,
    ) -> None:
        """Attach a lie, as described by a :class:`FakeNodeLsa`, to ``anchor``.

        The fake node becomes an announcer of ``prefix`` with a
        :class:`FakeNodeInfo` attachment, not a node: it adds no edge, so
        the log step lists its prefix but no edge delta.
        """
        if name in self._fake_nodes:
            raise TopologyError(f"fake node {name!r} already present")
        if anchor not in self._edges:
            raise TopologyError(f"fake node {name!r} anchored at unknown router {anchor!r}")
        if link_cost <= 0:
            raise TopologyError(
                f"fake link {anchor}->{name} must have positive cost, got {link_cost}"
            )
        self._set_announcement(name, prefix, prefix_cost)
        self._fake_nodes[name] = FakeNodeInfo(
            name=name,
            anchor=anchor,
            link_cost=float(link_cost),
            prefix=prefix,
            prefix_cost=float(prefix_cost),
            forwarding_address=forwarding_address,
        )
        self._record(prefixes=(prefix,))

    def remove_fake_node(self, name: str) -> None:
        """Detach a lie: its attachment and its announcement."""
        try:
            info = self._fake_nodes.pop(name)
        except KeyError:
            raise TopologyError(f"{name!r} is not a fake node") from None
        del self._announcements[name]
        self._release_prefix(info.prefix, name)
        self._record(prefixes=(info.prefix,))

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def from_lsdb(cls, lsas: Iterable[Lsa]) -> "ComputationGraph":
        """Build the graph from the live LSAs of a link-state database.

        Directed edges are only added when *both* endpoints advertised them
        (OSPF's two-way connectivity check).  A fake-node LSA is ignored while
        its anchor is gone or its forwarding address is not a two-way
        neighbour of the anchor — as OSPF ignores an external LSA whose
        forwarding address is unreachable — so a failed adjacency falls back
        to plain IGP paths until the link returns.
        """
        graph = cls()
        graph._recording = False  # no usable history during construction
        router_lsas: List[RouterLsa] = []
        prefix_lsas: List[PrefixLsa] = []
        fake_lsas: List[FakeNodeLsa] = []
        for lsa in lsas:
            if lsa.withdrawn:
                continue
            if isinstance(lsa, RouterLsa):
                router_lsas.append(lsa)
            elif isinstance(lsa, PrefixLsa):
                prefix_lsas.append(lsa)
            elif isinstance(lsa, FakeNodeLsa):
                fake_lsas.append(lsa)
            else:  # pragma: no cover - future LSA kinds
                raise TopologyError(f"unsupported LSA type {type(lsa).__name__}")

        advertised: Dict[Tuple[str, str], float] = {}
        for lsa in router_lsas:
            graph.add_node(lsa.origin)
            for neighbor, cost in lsa.links:
                advertised[(lsa.origin, neighbor)] = cost
        for (source, target), cost in advertised.items():
            if (target, source) in advertised:
                graph.add_edge(source, target, cost)

        for lsa in prefix_lsas:
            graph.announce(lsa.origin, lsa.prefix, lsa.metric)

        for lsa in fake_lsas:
            if lsa.forwarding_address in graph._edges.get(lsa.anchor, ()):
                graph.add_fake_node(
                    name=lsa.fake_node,
                    anchor=lsa.anchor,
                    link_cost=lsa.link_cost,
                    prefix=lsa.prefix,
                    prefix_cost=lsa.prefix_cost,
                    forwarding_address=lsa.forwarding_address,
                )
        graph._reset_history()
        return graph

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        lies: Iterable[FakeNodeLsa] = (),
    ) -> "ComputationGraph":
        """Build the graph straight from the physical topology plus optional lies."""
        graph = cls()
        graph._recording = False  # no usable history during construction
        for router in topology.routers:
            graph.add_node(router)
        for link in topology.links:
            graph.add_edge(link.source, link.target, link.weight)
        for prefix in topology.prefixes:
            for attachment in topology.prefix_attachments(prefix):
                graph.announce(attachment.router, prefix, attachment.cost)
        for lie in lies:
            if lie.withdrawn:
                continue
            graph.add_fake_node(
                name=lie.fake_node,
                anchor=lie.anchor,
                link_cost=lie.link_cost,
                prefix=lie.prefix,
                prefix_cost=lie.prefix_cost,
                forwarding_address=lie.forwarding_address,
            )
        graph._reset_history()
        return graph

    def copy(self) -> "ComputationGraph":
        """A structural copy of this graph with fresh history (version 0, empty log).

        The copy owns its edge and announcement dicts, filled in this graph's
        insertion order (ties iterate in that order), and shares the frozen
        :class:`FakeNodeInfo` attachments.  This is how routers that boot on
        the same LSDB content share one :meth:`from_lsdb` build
        (:class:`~repro.igp.lsdb.GraphBuilds`).
        """
        graph = type(self)()
        graph._edges = {node: dict(targets) for node, targets in self._edges.items()}
        graph._redges = {node: dict(sources) for node, sources in self._redges.items()}
        graph._announcements = {
            node: dict(prefixes) for node, prefixes in self._announcements.items()
        }
        graph._prefix_refs = {
            prefix: dict(announcers) for prefix, announcers in self._prefix_refs.items()
        }
        graph._fake_nodes = dict(self._fake_nodes)
        return graph

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[str]:
        """All SPF node names, sorted: the routers (a fake node is no node)."""
        return sorted(self._edges)

    real_nodes = nodes

    @property
    def fake_nodes(self) -> Dict[str, FakeNodeInfo]:
        """Mapping of fake node name to its lie attachment."""
        return dict(self._fake_nodes)

    def is_fake(self, node: str) -> bool:
        """Whether ``node`` is a fake node."""
        return node in self._fake_nodes

    def fake_info(self, node: str) -> FakeNodeInfo:
        """Attachment of a fake node (raises for real nodes)."""
        try:
            return self._fake_nodes[node]
        except KeyError:
            raise TopologyError(f"{node!r} is not a fake node") from None

    def attachment(self, node: str) -> Optional[FakeNodeInfo]:
        """Attachment of ``node`` if it is a fake node, else ``None``."""
        return self._fake_nodes.get(node)

    def has_node(self, node: str) -> bool:
        """Whether ``node`` is an SPF node of the graph (a fake node is not)."""
        return node in self._edges

    def successors(self, node: str) -> Mapping[str, float]:
        """Outgoing edges of ``node`` as a ``{neighbor: cost}`` mapping."""
        try:
            return self._edges[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def predecessors_of(self, node: str) -> Mapping[str, float]:
        """Incoming edges of ``node`` as a ``{neighbor: cost}`` mapping."""
        try:
            return self._redges[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def edge_cost(self, source: str, target: str) -> float:
        """Cost of the directed edge ``source -> target`` (raises if absent)."""
        successors = self.successors(source)
        try:
            return successors[target]
        except KeyError:
            raise TopologyError(f"no edge {source}->{target}") from None

    @property
    def prefixes(self) -> List[Prefix]:
        """All announced prefixes, sorted."""
        return sorted(self._prefix_refs)

    def announcers(self, prefix: Prefix) -> Dict[str, float]:
        """Mapping of announcer (router or fake node) to metric for ``prefix``."""
        return dict(self._prefix_refs.get(prefix, {}))

    def announcements_of(self, node: str) -> Dict[Prefix, float]:
        """All prefixes announced by ``node`` (router or fake node) with their metrics."""
        return dict(self._announcements.get(node, {}))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        edges = sum(len(targets) for targets in self._edges.values())
        return (
            f"ComputationGraph(nodes={len(self._edges)}, edges={edges}, "
            f"fake_nodes={len(self._fake_nodes)}, prefixes={len(self.prefixes)})"
        )

"""Routing of traffic over installed FIBs.

Two complementary models are provided, matching how the paper's numbers were
produced:

* **Fluid (fractional) mode** — aggregate demands are split *exactly*
  according to each router's FIB weights (this is the long-run average of
  ECMP hashing over many flows).  Used for the static Fig. 1 loads and by
  the TE baselines.
* **Hash mode** — each individual flow is pinned at every router to a single
  next hop chosen by a deterministic hash of the flow id, weighted by the
  FIB entry weights.  This reproduces real ECMP behaviour (a single flow
  never splits) and is what the Fig. 2 time-series experiment uses.

Both modes detect forwarding loops and refuse to silently lose traffic:
fluid mode raises, hash mode records the flow as looping (so tests can
assert that Fibbing never creates loops).
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.flows import Flow
from repro.dataplane.linkstats import LinkLoads
from repro.igp.fib import Fib
from repro.util.errors import RoutingError
from repro.util.prefixes import Prefix

__all__ = [
    "ForwardingOutcome",
    "FlowPath",
    "ClassPathGroup",
    "forwarding_graph",
    "route_fractional",
    "route_flows_hashed",
    "route_class_sessions",
]


@dataclass(frozen=True)
class FlowPath:
    """The routers traversed by one flow, in order, plus its delivery status."""

    flow_id: int
    hops: Tuple[str, ...]
    delivered: bool
    looped: bool = False

    @property
    def links(self) -> Tuple[Tuple[str, str], ...]:
        """The directed links traversed by the flow."""
        return tuple(zip(self.hops, self.hops[1:]))


@dataclass
class ForwardingOutcome:
    """Result of routing a demand set or flow set over the current FIBs."""

    loads: LinkLoads
    delivered: float = 0.0
    undeliverable: float = 0.0
    flow_paths: Dict[int, FlowPath] = field(default_factory=dict)

    @property
    def loss_fraction(self) -> float:
        """Fraction of the offered load that could not be delivered."""
        total = self.delivered + self.undeliverable
        return self.undeliverable / total if total > 0 else 0.0


def forwarding_graph(
    fibs: Mapping[str, Fib], prefix: Prefix
) -> Dict[str, Dict[str, float]]:
    """Per-destination forwarding graph: ``{router: {next_hop: fraction}}``.

    Routers that deliver the prefix locally map to an empty dictionary.
    Routers without any FIB entry for the prefix are simply absent.
    """
    graph: Dict[str, Dict[str, float]] = {}
    for router, fib in fibs.items():
        if not fib.has_entry(prefix):
            continue
        prefix_fib = fib.lookup(prefix)
        if prefix_fib.local:
            graph[router] = {}
        else:
            graph[router] = prefix_fib.split_ratios()
    return graph


def _topological_order(graph: Dict[str, Dict[str, float]]) -> List[str]:
    """Topological order of the per-destination forwarding graph.

    Raises :class:`RoutingError` when the graph contains a cycle, i.e. when
    the installed FIBs would forward traffic in a loop.
    """
    in_degree: Dict[str, int] = {node: 0 for node in graph}
    for node, next_hops in graph.items():
        for next_hop in next_hops:
            if next_hop in in_degree:
                in_degree[next_hop] += 1
    ready = sorted(node for node, degree in in_degree.items() if degree == 0)
    order: List[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for next_hop in sorted(graph.get(node, {})):
            if next_hop not in in_degree:
                continue
            in_degree[next_hop] -= 1
            if in_degree[next_hop] == 0:
                ready.append(next_hop)
        ready.sort()
    if len(order) != len(graph):
        cyclic = sorted(set(graph) - set(order))
        raise RoutingError(f"forwarding loop detected among routers {cyclic}")
    return order


def route_fractional(
    fibs: Mapping[str, Fib],
    demands: TrafficMatrix,
) -> ForwardingOutcome:
    """Route aggregate demands with exact fractional ECMP splitting.

    For every destination prefix, demands are propagated through the
    per-destination forwarding graph in topological order; each router
    forwards the traffic it receives (plus its own ingress demand) to its
    next hops proportionally to the FIB weights.  Traffic reaching a router
    that delivers the prefix locally counts as delivered; traffic entering at
    a router without a route counts as undeliverable.
    """
    outcome = ForwardingOutcome(loads=LinkLoads())
    for prefix in demands.prefixes:
        per_ingress = demands.demands_for(prefix)
        graph = forwarding_graph(fibs, prefix)
        order = _topological_order(graph)

        incoming: Dict[str, float] = {router: 0.0 for router in graph}
        for ingress, rate in per_ingress.items():
            if ingress not in graph:
                outcome.undeliverable += rate
                continue
            incoming[ingress] += rate

        for router in order:
            carried = incoming.get(router, 0.0)
            if carried <= 0.0:
                continue
            next_hops = graph[router]
            if not next_hops:
                # Local delivery at the router announcing the prefix.
                outcome.delivered += carried
                continue
            for next_hop, fraction in next_hops.items():
                share = carried * fraction
                if share <= 0.0:
                    continue
                outcome.loads.add(router, next_hop, share)
                if next_hop in incoming:
                    incoming[next_hop] += share
                else:
                    # Next hop has no route for the prefix: traffic is lost
                    # there (it would be dropped by the real router too).
                    outcome.undeliverable += share
    return outcome


def _hash_fraction(flow_id: int, router: str, salt: int) -> float:
    """Deterministic per-(flow, router) value in [0, 1) used for ECMP hashing.

    Real routers hash the five-tuple; here the flow id plays that role.  The
    hash must be independent across routers (hence the router name in the
    digest) so that consecutive routers make independent choices, and stable
    across runs for reproducibility.
    """
    digest = hashlib.sha256(f"{salt}:{flow_id}:{router}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _pick_next_hop(split: Mapping[str, float], fraction: float) -> str:
    """Map a hash value in [0, 1) to a next hop according to the split weights."""
    cumulative = 0.0
    last = ""
    for next_hop in sorted(split):
        cumulative += split[next_hop]
        last = next_hop
        if fraction < cumulative:
            return next_hop
    return last  # numerical slack: the hash fell into the rounding tail


# Session ids hashed per numpy round trip of a branch partition: bounds the
# partition's scratch memory (about 110 bytes a chunk id, under 1 MiB)
# whatever the population.
_PARTITION_CHUNK = 1 << 13


def _hash_fractions(ids: Sequence[int], router: str, salt: int) -> np.ndarray:
    """:func:`_hash_fraction` of every id in ``ids``, as a float64 array.

    The digest input ``f"{salt}:{id}:{router}"`` is built as one bytes
    ``%``-format per id, and the first eight digest bytes of all ids are
    read as big-endian ``uint64`` at once; numpy's ``uint64 -> float64``
    cast rounds to nearest-even as ``int / float`` does, and dividing by
    2^64 is exact, so every value is bitwise the scalar function's.
    """
    template = f"{salt}:%d:{router.replace('%', '%%')}".encode("utf-8")
    sha256 = hashlib.sha256
    digests = np.fromiter(
        (sha256(template % session_id).digest() for session_id in ids), "S32", count=len(ids)
    )
    return digests.view(">u8")[::4] / float(1 << 64)


def _split_thresholds(split: Mapping[str, float]) -> Tuple[List[str], np.ndarray]:
    """Sorted next hops and their cumulative weights, summed as :func:`_pick_next_hop` sums them.

    ``np.cumsum`` adds left to right, so every threshold is bitwise the
    running sum of the scalar loop.
    """
    next_hops = sorted(split)
    return next_hops, np.cumsum([split[next_hop] for next_hop in next_hops], dtype=np.float64)


def _bucket_indices(thresholds: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """:func:`_pick_next_hop` over an array of hash fractions, as next-hop indices.

    The first hop whose cumulative weight exceeds the fraction wins; a
    fraction in the rounding tail past the last cumulative goes to the last
    hop.
    """
    indices = np.searchsorted(thresholds, fractions, side="right")
    return np.minimum(indices, len(thresholds) - 1, out=indices)


def _id_chunks(ids: Sequence[int]) -> Iterator[np.ndarray]:
    """The population as ``int64`` arrays of at most ``_PARTITION_CHUNK`` ids.

    A range is materialised chunk by chunk and an ``array('q')`` is viewed
    without a copy.
    """
    if isinstance(ids, range):
        view = None
    elif isinstance(ids, array) and ids.typecode == "q":
        view = np.frombuffer(ids, dtype=np.int64)
    else:
        view = np.asarray(ids, dtype=np.int64)
    for start in range(0, len(ids), _PARTITION_CHUNK):
        if view is None:
            part = ids[start:start + _PARTITION_CHUNK]
            yield np.arange(part.start, part.stop, part.step, dtype=np.int64)
        else:
            yield view[start:start + _PARTITION_CHUNK]


def _partition_sessions(
    ids: Sequence[int], split: Mapping[str, float], router: str, salt: int
) -> Dict[str, array]:
    """Hash-partition an ascending session population at one ECMP branch.

    Each session lands in the bucket ``_pick_next_hop(split,
    _hash_fraction(id, router, salt))`` names — one sha256 per session,
    with the weights accumulated once per branch and the bucket choice and
    id selection done in numpy, ``_PARTITION_CHUNK`` ids at a time.
    Returns ascending ``array('q')`` buckets in sorted next-hop order,
    empty buckets omitted.
    """
    next_hops, thresholds = _split_thresholds(split)
    buckets = [array("q") for _ in next_hops]
    for chunk in _id_chunks(ids):
        choice = _bucket_indices(thresholds, _hash_fractions(chunk.tolist(), router, salt))
        for index, bucket in enumerate(buckets):
            bucket.frombytes(chunk[choice == index].tobytes())
    return {next_hop: bucket for next_hop, bucket in zip(next_hops, buckets) if len(bucket)}


@dataclass(frozen=True)
class ClassPathGroup:
    """One path group of a routed demand class: the sessions sharing a path.

    ``ids`` is the ascending session-id population pinned to ``hops`` —
    a :class:`range` while the cohort has not crossed any ECMP branch, an
    ``array('q')`` once a hash partition split it.  Every session in the
    group follows exactly the path :func:`route_flows_hashed` would give a
    flow with the same id.
    """

    hops: Tuple[str, ...]
    delivered: bool
    looped: bool
    ids: Sequence[int]

    @property
    def count(self) -> int:
        """Number of sessions in the group."""
        return len(self.ids)

    @property
    def links(self) -> Tuple[Tuple[str, str], ...]:
        """The directed links traversed by the group."""
        return tuple(zip(self.hops, self.hops[1:]))


def route_class_sessions(
    fibs: Mapping[str, Fib],
    ingress: str,
    prefix: Prefix,
    session_ids: Sequence[int],
    salt: int = 0,
    max_hops: int = 64,
) -> Tuple[List[ClassPathGroup], int]:
    """Route a whole session population at once; returns ``(groups, splits)``.

    The population walks the per-prefix forwarding DAG as a unit: at every
    router with a single effective next hop the entire group moves together
    (no hashing at all), and only at genuine ECMP branch points is the
    population partitioned — one sha256 per session per branch,
    partitioned in bounded chunks (:func:`_partition_sessions`) —
    mirroring :func:`route_flows_hashed` decision for decision (same
    hash, local-delivery rules, loop detection and ``max_hops`` budget),
    so each session lands on the bit-identical path it would get as an
    individual flow.  ``splits`` counts the hash partitions performed (the
    only O(sessions) work).
    """
    groups: List[ClassPathGroup] = []
    splits = 0

    def finish(ids: Sequence[int], hops: List[str], delivered: bool, looped: bool) -> None:
        groups.append(
            ClassPathGroup(hops=tuple(hops), delivered=delivered, looped=looped, ids=ids)
        )

    def walk(ids: Sequence[int], current: str, hops: List[str], visited: Set[str]) -> None:
        nonlocal splits
        while True:
            if len(hops) - 1 >= max_hops:
                finish(ids, hops, delivered=False, looped=False)
                return
            fib = fibs.get(current)
            if fib is None or not fib.has_entry(prefix):
                finish(ids, hops, delivered=False, looped=False)
                return
            prefix_fib = fib.lookup(prefix)
            if prefix_fib.local:
                # Local delivery wins even for a multi-homed prefix with
                # equal-cost remote entries, as in route_flows_hashed.
                finish(ids, hops, delivered=True, looped=False)
                return
            split = prefix_fib.split_ratios()
            if not split:
                finish(ids, hops, delivered=False, looped=False)
                return
            if len(split) == 1:
                next_hop = next(iter(split))
            else:
                # Genuine ECMP branch: hash every session id exactly as the
                # per-flow walk does and recurse per non-empty bucket in
                # next-hop order.
                splits += 1
                for next_hop, bucket in _partition_sessions(ids, split, current, salt).items():
                    branch_hops = hops + [next_hop]
                    if next_hop in visited:
                        finish(bucket, branch_hops, delivered=False, looped=True)
                    else:
                        walk(bucket, next_hop, branch_hops, visited | {next_hop})
                return
            hops.append(next_hop)
            if next_hop in visited:
                finish(ids, hops, delivered=False, looped=True)
                return
            visited.add(next_hop)
            current = next_hop

    walk(session_ids, ingress, [ingress], {ingress})
    return groups, splits


def route_flows_hashed(
    fibs: Mapping[str, Fib],
    flows: Iterable[Flow],
    salt: int = 0,
    max_hops: int = 64,
) -> ForwardingOutcome:
    """Route individual flows with per-flow ECMP hashing (no per-flow splitting).

    Every flow is walked hop by hop from its ingress: at each router the FIB
    entry is chosen by a deterministic hash of the flow id, weighted by the
    entry weights.  The outcome records each flow's path so that the engine
    can later allocate fair-share rates along those exact paths.
    """
    outcome = ForwardingOutcome(loads=LinkLoads())
    for flow in flows:
        hops: List[str] = [flow.ingress]
        current = flow.ingress
        delivered = False
        looped = False
        visited: Set[str] = {flow.ingress}
        for _ in range(max_hops):
            fib = fibs.get(current)
            if fib is None or not fib.has_entry(flow.prefix):
                break
            prefix_fib = fib.lookup(flow.prefix)
            if prefix_fib.local and not prefix_fib.entries:
                delivered = True
                break
            if prefix_fib.local:
                # The router both announces the prefix and has equal-cost
                # remote entries (multi-homed prefix): local delivery wins.
                delivered = True
                break
            split = prefix_fib.split_ratios()
            if not split:
                break
            next_hop = _pick_next_hop(split, _hash_fraction(flow.flow_id, current, salt))
            outcome.loads.add(current, next_hop, flow.demand)
            hops.append(next_hop)
            if next_hop in visited:
                looped = True
                break
            visited.add(next_hop)
            current = next_hop
        if delivered:
            outcome.delivered += flow.demand
        else:
            outcome.undeliverable += flow.demand
        outcome.flow_paths[flow.flow_id] = FlowPath(
            flow_id=flow.flow_id, hops=tuple(hops), delivered=delivered, looped=looped
        )
    return outcome

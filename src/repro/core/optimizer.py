"""Min-max link-utilisation optimisation.

Section 2 of the paper argues that Fibbing "can thus theoretically implement
the optimal solution to the min-max link utilization problem".  This module
implements that optimal solution as a linear program (solved with scipy's
HiGHS backend) over per-destination flow variables:

* one non-negative variable per (optimised prefix, directed link) — the
  amount of traffic toward that prefix carried by that link;
* flow conservation at every router that does not announce the prefix
  (announcing routers are sinks);
* a shared utilisation bound ``theta``: on every link, the optimised flows
  plus any background load must not exceed ``theta`` times the capacity;
* objective: minimise ``theta`` plus a vanishing penalty on total flow (the
  penalty discards cycles and gratuitous detours without affecting the
  optimal utilisation).

The result converts into per-router fractional splits
(:meth:`OptimizationResult.to_fractions`), which the controller then
approximates with integer ECMP weights and enforces with lies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.dataplane.demand import TrafficMatrix
from repro.dataplane.linkstats import LinkLoads
from repro.igp.topology import Topology
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = ["OptimizationResult", "MinMaxLoadOptimizer"]

LinkKey = Tuple[str, str]

#: Flows below this fraction of a router's total outgoing flow are dropped
#: when converting the LP solution into split ratios (they are numerical
#: noise or negligible trickles not worth a fake node).
DEFAULT_MIN_FRACTION = 1e-3


@dataclass
class OptimizationResult:
    """Solution of one min-max optimisation run."""

    objective: float
    flows: Dict[Prefix, Dict[LinkKey, float]]
    status: str
    prefixes: Tuple[Prefix, ...]
    total_flow: float

    @property
    def feasible(self) -> bool:
        """Whether the LP solved to optimality."""
        return self.status == "optimal"

    def link_loads(self) -> LinkLoads:
        """Aggregate optimised load per link (all optimised prefixes combined)."""
        loads = LinkLoads()
        for prefix, per_link in self.flows.items():
            for (source, target), value in per_link.items():
                if value > 0:
                    loads.add(source, target, value, prefix=prefix)
        return loads

    def to_fractions(
        self, min_fraction: float = DEFAULT_MIN_FRACTION
    ) -> Dict[Prefix, Dict[str, Dict[str, float]]]:
        """Per-prefix, per-router next-hop fractions implied by the optimised flows.

        Routers whose outgoing flow for a prefix is zero are omitted (they
        never see that prefix's traffic, so they need no requirement).
        Next hops carrying less than ``min_fraction`` of a router's outgoing
        flow are dropped and the remaining fractions re-normalised.
        """
        result: Dict[Prefix, Dict[str, Dict[str, float]]] = {}
        for prefix, per_link in self.flows.items():
            outgoing: Dict[str, Dict[str, float]] = {}
            for (source, target), value in per_link.items():
                if value <= 0:
                    continue
                outgoing.setdefault(source, {})[target] = value
            splits: Dict[str, Dict[str, float]] = {}
            for router, next_hops in outgoing.items():
                total = sum(next_hops.values())
                if total <= 0:
                    continue
                kept = {
                    next_hop: value / total
                    for next_hop, value in next_hops.items()
                    if value / total >= min_fraction
                }
                if not kept:
                    continue
                norm = sum(kept.values())
                splits[router] = {next_hop: value / norm for next_hop, value in kept.items()}
            if splits:
                result[prefix] = splits
        return result


class _LinkModel:
    """What the LP assembly needs of one :attr:`Topology.revision`, as arrays.

    Links are in sorted key order (the LP's column order within a prefix
    block) and routers in sorted name order (its row order); ``src`` /
    ``dst`` hold each link's endpoint as a router index.  The per-prefix
    vectors are filled on first use and live as long as the revision does.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.revision = topology.revision
        links = topology.links
        self.routers = topology.routers
        self.router_index = {router: i for i, router in enumerate(self.routers)}
        self.links: List[LinkKey] = [link.key for link in links]
        self.src = np.array([self.router_index[link.source] for link in links], dtype=np.intp)
        self.dst = np.array([self.router_index[link.target] for link in links], dtype=np.intp)
        self.weights = np.array([link.weight for link in links], dtype=float)
        self.capacities = np.array([link.capacity for link in links], dtype=float)
        #: Reversed adjacency, for the backward Dijkstra of the stretch bound.
        self.reverse: Dict[str, List[Tuple[str, float]]] = {
            router: [] for router in self.routers
        }
        for link in links:
            self.reverse[link.target].append((link.source, link.weight))
        self._row_of: Dict[Prefix, np.ndarray] = {}
        #: Per prefix, each router's distance to it (NaN when unreachable).
        self.distances: Dict[Prefix, np.ndarray] = {}

    def row_of(self, prefix: Prefix) -> np.ndarray:
        """Per router, its flow-conservation row within ``prefix``'s block.

        Rows number the non-announcing routers in sorted order; announcing
        routers are sinks and carry -1.
        """
        rows = self._row_of.get(prefix)
        if rows is None:
            conserving = np.ones(len(self.routers), dtype=bool)
            for attachment in self.topology.prefix_attachments(prefix):
                conserving[self.router_index[attachment.router]] = False
            rows = np.where(conserving, np.cumsum(conserving) - 1, -1)
            self._row_of[prefix] = rows
        return rows


class MinMaxLoadOptimizer:
    """Computes min-max link-utilisation routings for a set of destinations."""

    def __init__(
        self,
        topology: Topology,
        background: Optional[LinkLoads] = None,
        flow_penalty: float = 1e-6,
        max_stretch: Optional[float] = None,
    ) -> None:
        """Create an optimizer for ``topology``.

        ``max_stretch`` (optional, in IGP cost units) restricts each prefix's
        usable links to those that do not lengthen the path by more than the
        given amount compared with the shortest path from the same router:
        link ``(u, v)`` is usable for prefix ``p`` only when
        ``weight(u, v) + dist(v, p) <= dist(u, p) + max_stretch``.  The demo's
        on-demand load balancer uses a stretch of 1 so that traffic is only
        spread over reasonable detours (which also matches the paths the
        paper's controller uses); ``None`` leaves the LP unrestricted.
        """
        self.topology = topology
        self.background = background
        if flow_penalty < 0:
            raise ControllerError(f"flow_penalty must be non-negative, got {flow_penalty}")
        if max_stretch is not None and max_stretch < 0:
            raise ControllerError(f"max_stretch must be non-negative, got {max_stretch}")
        self.flow_penalty = flow_penalty
        self.max_stretch = max_stretch
        self._model: Optional[_LinkModel] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def optimize(
        self,
        demands: TrafficMatrix,
        prefixes: Optional[Sequence[Prefix]] = None,
        plan_version: Optional[int] = None,
    ) -> OptimizationResult:
        """Solve the min-max problem for ``prefixes`` (default: all demanded prefixes).

        Every call solves the LP.  ``plan_version`` is accepted for callers
        written against an earlier solution memo and is ignored.
        """
        if prefixes is None:
            prefixes = demands.prefixes
        prefixes = tuple(sorted(set(prefixes)))
        if not prefixes:
            raise ControllerError("no prefixes to optimise")
        for prefix in prefixes:
            # Raises TopologyError if the prefix is not announced anywhere.
            self.topology.prefix_attachments(prefix)

        solution = linprog(method="highs", **self._linprog_arguments(demands, prefixes))
        if not solution.success:
            raise ControllerError(
                f"min-max optimisation failed: {solution.message} (status {solution.status})"
            )

        values = solution.x
        links = self._link_model().links
        num_links = len(links)
        # Solver noise threshold: flows this small (relative to the offered
        # load) are numerical artefacts of the LP vertex, not routing
        # decisions, and would only confuse the flow decomposition and the
        # split-ratio extraction downstream.
        noise = max(1e-9, 1e-8 * demands.total())
        flows: Dict[Prefix, Dict[LinkKey, float]] = {}
        total_flow = 0.0
        for p_index, prefix in enumerate(prefixes):
            block = values[p_index * num_links : (p_index + 1) * num_links]
            kept = np.nonzero(block > noise)[0]
            per_link: Dict[LinkKey, float] = {}
            for link_idx, value in zip(kept.tolist(), block[kept].tolist()):
                per_link[links[link_idx]] = value
                total_flow += value
            flows[prefix] = _remove_cycles(per_link)

        return OptimizationResult(
            objective=float(values[-1]),
            flows=flows,
            status="optimal",
            prefixes=prefixes,
            total_flow=total_flow,
        )

    def _linprog_arguments(
        self, demands: TrafficMatrix, prefixes: Sequence[Prefix]
    ) -> Dict[str, Any]:
        """The LP of :meth:`optimize` as ``scipy.optimize.linprog`` keyword arguments.

        Variables are prefix-major, link-minor (links in sorted key order),
        ``theta`` last; equality rows are one flow-conservation row per
        (prefix, non-announcing router) in sorted router order, inequality
        rows one capacity row per link.  Everything that depends on the
        topology alone comes from the per-revision :class:`_LinkModel`;
        ``background``, ``max_stretch``, ``flow_penalty`` and the demands
        are read on every call.
        """
        model = self._link_model()
        num_links = len(model.links)
        num_prefixes = len(prefixes)
        num_flow_vars = num_prefixes * num_links
        num_vars = num_flow_vars + 1  # +1 for theta
        theta_index = num_flow_vars

        objective = np.full(num_vars, self.flow_penalty / max(demands.total(), 1.0))
        objective[theta_index] = 1.0

        # Flow conservation: +1 on the row of a link's source router, -1 on
        # the row of its target router; announcing routers (row -1) are
        # sinks and have no row.
        row_of = np.stack([model.row_of(prefix) for prefix in prefixes])
        row_counts = row_of.max(axis=1) + 1
        row_base = np.cumsum(row_counts) - row_counts
        columns = np.arange(num_flow_vars).reshape(num_prefixes, num_links)
        out_rows = row_of[:, model.src]
        in_rows = row_of[:, model.dst]
        leaves = out_rows >= 0
        enters = in_rows >= 0
        block_rows = row_base[:, None]
        eq_rows = np.concatenate(
            ((out_rows + block_rows)[leaves], (in_rows + block_rows)[enters])
        )
        eq_cols = np.concatenate((columns[leaves], columns[enters]))
        eq_vals = np.ones(len(eq_rows))
        eq_vals[np.count_nonzero(leaves) :] = -1.0
        a_eq = sparse.coo_matrix(
            (eq_vals, (eq_rows, eq_cols)), shape=(int(row_counts.sum()), num_vars)
        ).tocsr()

        eq_rhs = np.zeros(a_eq.shape[0])
        offered: Dict[Prefix, List[Tuple[str, float]]] = {}
        for entry in demands.entries():
            offered.setdefault(entry.prefix, []).append((entry.ingress, entry.rate))
        for p_index, prefix in enumerate(prefixes):
            for ingress, rate in offered.get(prefix, ()):
                router = model.router_index.get(ingress)
                if router is None:
                    raise ControllerError(
                        f"demand toward {prefix} enters at {ingress!r}, "
                        "which is not a router of the topology"
                    )
                row = row_of[p_index, router]
                # Demand entering where the prefix is announced is
                # delivered locally: no row, nothing to route.
                if row >= 0:
                    eq_rhs[row_base[p_index] + row] = rate

        # Capacity: the optimised flows on a link, plus its background
        # load, stay within theta times its capacity.
        link_ids = np.arange(num_links)
        ub_rows = np.concatenate((np.tile(link_ids, num_prefixes), link_ids))
        ub_cols = np.concatenate(
            (np.arange(num_flow_vars), np.full(num_links, theta_index))
        )
        ub_vals = np.concatenate((np.ones(num_flow_vars), -model.capacities))
        a_ub = sparse.coo_matrix(
            (ub_vals, (ub_rows, ub_cols)), shape=(num_links, num_vars)
        ).tocsr()
        if self.background is None:
            ub_rhs = -np.zeros(num_links)
        else:
            ub_rhs = -np.array(
                [self.background.load(*key) for key in model.links], dtype=float
            )

        bounds = np.zeros((num_vars, 2))
        bounds[:, 1] = np.inf
        if self.max_stretch is not None:
            # A router that cannot reach the prefix has distance NaN, which
            # fails the comparison and so closes its links.
            distances = np.stack([self._stretch_distances(prefix) for prefix in prefixes])
            usable = (
                model.weights + distances[:, model.dst]
                <= distances[:, model.src] + self.max_stretch + 1e-9
            )
            bounds[:num_flow_vars, 1][~usable.ravel()] = 0.0

        return {
            "c": objective,
            "A_ub": a_ub,
            "b_ub": ub_rhs,
            "A_eq": a_eq,
            "b_eq": eq_rhs,
            "bounds": bounds,
        }

    def _link_model(self) -> _LinkModel:
        """The array model of the topology, rebuilt when its revision moved.

        Keyed on the topology object too, so the same optimizer instance
        stays valid across topology changes (failures, additions) and
        across a reassigned ``topology``.
        """
        model = self._model
        if (
            model is None
            or model.topology is not self.topology
            or model.revision != self.topology.revision
        ):
            model = self._model = _LinkModel(self.topology)
        return model

    def _stretch_distances(self, prefix: Prefix) -> np.ndarray:
        """:meth:`_distance_to_prefix` per router index, once per revision."""
        model = self._link_model()
        distances = model.distances.get(prefix)
        if distances is None:
            found = self._distance_to_prefix(prefix)
            distances = np.array(
                [found.get(router, np.nan) for router in model.routers], dtype=float
            )
            model.distances[prefix] = distances
        return distances

    def _distance_to_prefix(self, prefix: Prefix) -> Dict[str, float]:
        """Shortest IGP cost from every router to ``prefix`` (multi-source Dijkstra).

        Run backwards from the announcing routers over reversed links, so one
        run per prefix suffices regardless of the number of ingresses.
        """
        reverse = self._link_model().reverse
        distances: Dict[str, float] = {}
        heap: List[Tuple[float, str]] = []
        for attachment in self.topology.prefix_attachments(prefix):
            heapq.heappush(heap, (attachment.cost, attachment.router))
        while heap:
            cost, node = heapq.heappop(heap)
            if node in distances:
                continue
            distances[node] = cost
            for predecessor, weight in reverse[node]:
                if predecessor not in distances:
                    heapq.heappush(heap, (cost + weight, predecessor))
        return distances


def _remove_cycles(per_link: Dict[LinkKey, float]) -> Dict[LinkKey, float]:
    """Cancel any flow cycles (defensive; the flow penalty normally prevents them)."""
    flows = dict(per_link)

    def find_cycle() -> Optional[List[LinkKey]]:
        graph: Dict[str, List[str]] = {}
        for (source, target), value in flows.items():
            if value > 1e-9:
                graph.setdefault(source, []).append(target)
        # Depth-first search with an explicit stack (a flow path can be
        # longer than the interpreter's recursion limit): 1 = on the
        # current path, 2 = finished.
        state: Dict[str, int] = {}
        for start in sorted(graph):
            if start in state:
                continue
            state[start] = 1
            path: List[str] = [start]
            pending: List[Iterator[str]] = [iter(graph[start])]
            while path:
                for successor in pending[-1]:
                    seen = state.get(successor, 0)
                    if seen == 1:
                        cycle = path[path.index(successor) :] + [successor]
                        return list(zip(cycle, cycle[1:]))
                    if seen == 0:
                        state[successor] = 1
                        path.append(successor)
                        pending.append(iter(graph.get(successor, ())))
                        break
                else:
                    state[path.pop()] = 2
                    pending.pop()
        return None

    for _ in range(len(flows) + 1):
        cycle = find_cycle()
        if not cycle:
            break
        slack = min(flows[link] for link in cycle)
        for link in cycle:
            flows[link] -= slack
            if flows[link] <= 1e-9:
                del flows[link]
    return flows

"""Max-min fair bandwidth sharing.

When several flows compete for a link, TCP (and the video players of the
demo) converge to an approximately fair share of the bottleneck.  The fluid
equivalent is the classic *max-min fair allocation* computed by progressive
filling: all flows grow at the same rate until a link saturates or a flow
reaches its demand; saturated flows are frozen and the process repeats.

The allocation is exactly what determines whether a video stalls in the
demo: a flow whose max-min share falls below the video bitrate cannot keep
its playback buffer full.

The allocation decomposes along the *connected components* of the flow-link
hypergraph (two flows are connected when their paths share a link): flows in
different components never influence each other's rates, so each component
is filled independently.  This is what makes the warm-start repair of
:class:`~repro.dataplane.path_cache.WarmStartAllocator` exact — re-filling
only the dirty components through the very same :func:`fill_component`
reproduces a from-scratch allocation bit for bit.

One generalisation supports the aggregate-demand data plane: every
allocation entity carries a session ``count``, and a link crossed by an
entity consumes ``count`` fair shares.  Capacity is drained *once per link
and round* as ``remaining -= usage * increment`` (``usage`` being the exact
integer sum of active counts), so one entity of count ``n`` produces
bit-identical rates to ``n`` separate entities of count 1 — the property the
aggregate engine's differential oracle pins.

Saturation and progress tests use a *capacity-relative* epsilon
(:func:`rate_tolerance`).  The previous absolute ``1e-6`` bit/s threshold
was tuned for Mbit/s demo flows; at Gbit/s aggregate rates a single round's
float residue can exceed it, leaving a saturated link nominally
"unsaturated" and burning rounds until the ``max_rounds`` guard raised a
spurious :class:`~repro.util.errors.SimulationError`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.util.errors import SimulationError, ValidationError
from repro.util.validation import check_non_negative

__all__ = [
    "max_min_fair_allocation",
    "decompose_components",
    "fill_component",
    "rate_tolerance",
    "RATE_EPSILON",
]

LinkKey = Tuple[str, str]

#: Relative tolerance for rate comparisons.  A link is saturated when its
#: remaining capacity is below ``rate_tolerance(capacity)``; a flow reached
#: its demand when the headroom is below ``rate_tolerance(demand)``.
RATE_EPSILON = 1e-9


def rate_tolerance(scale: float) -> float:
    """Absolute tolerance for rates at magnitude ``scale`` (bit/s).

    Relative above 1 bit/s, floored at ``RATE_EPSILON`` below it so that
    zero-scale comparisons still have a non-zero slack.
    """
    return RATE_EPSILON * (scale if scale > 1.0 else 1.0)


def max_min_fair_allocation(
    flow_links: Mapping[int, Sequence[LinkKey]],
    demands: Mapping[int, float],
    capacities: Mapping[LinkKey, float],
    counts: Optional[Mapping[int, int]] = None,
) -> Dict[int, float]:
    """Compute the max-min fair rate of every flow (or demand class).

    Parameters
    ----------
    flow_links:
        For each entity id, the sequence of directed links its path
        traverses.  An entity with an empty path (delivered at its ingress)
        is not capacity-constrained and simply receives its demand.
    demands:
        Upper bound (bit/s) on each entity's *per-session* rate — the
        application sending rate, e.g. the video bitrate.
    capacities:
        Capacity (bit/s) of every link appearing in the paths.
    counts:
        Session multiplicity of each entity (default 1).  An entity of
        count ``n`` receives the same per-session rate as ``n`` identical
        count-1 entities would, bit for bit.

    Returns
    -------
    dict
        Mapping from entity id to allocated per-session rate.
    """
    for flow_id in flow_links:
        if flow_id not in demands:
            raise ValidationError(f"flow {flow_id} has a path but no demand")
    rates: Dict[int, float] = {}
    constrained: Dict[int, Tuple[LinkKey, ...]] = {}
    for flow_id, links in flow_links.items():
        demand = check_non_negative(demands[flow_id], f"demand of flow {flow_id}")
        if demand <= rate_tolerance(demand):
            rates[flow_id] = 0.0
            continue
        if not links:
            rates[flow_id] = demand
            continue
        for link in links:
            if link not in capacities:
                raise ValidationError(f"flow {flow_id} traverses unknown link {link}")
        constrained[flow_id] = tuple(links)

    for component in decompose_components(constrained):
        rates.update(fill_component(component, constrained, demands, capacities, counts=counts))
    return rates


def decompose_components(
    flow_links: Mapping[int, Sequence[LinkKey]],
) -> List[Tuple[int, ...]]:
    """Partition flows into connected components of the flow-link hypergraph.

    Two flows belong to the same component when a chain of shared links
    connects them.  Every returned component is a sorted tuple of flow ids;
    components are ordered by their smallest member, so the decomposition is
    deterministic regardless of the input mapping's iteration order.
    """
    parent: Dict[int, int] = {}

    def find(flow_id: int) -> int:
        root = flow_id
        while parent[root] != root:
            root = parent[root]
        while parent[flow_id] != root:  # path compression
            parent[flow_id], flow_id = root, parent[flow_id]
        return root

    link_owner: Dict[LinkKey, int] = {}
    for flow_id in sorted(flow_links):
        parent[flow_id] = flow_id
        for link in flow_links[flow_id]:
            owner = link_owner.get(link)
            if owner is None:
                link_owner[link] = flow_id
            else:
                parent[find(flow_id)] = find(owner)

    groups: Dict[int, List[int]] = {}
    for flow_id in sorted(flow_links):
        groups.setdefault(find(flow_id), []).append(flow_id)
    return sorted((tuple(members) for members in groups.values()), key=lambda g: g[0])


def _resolve_counts(
    flow_ids: Sequence[int], counts: Optional[Mapping[int, int]]
) -> Dict[int, int]:
    resolved: Dict[int, int] = {}
    for flow_id in flow_ids:
        count = 1 if counts is None else counts.get(flow_id, 1)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ValidationError(
                f"entity {flow_id} has invalid session count {count!r}; expected a positive int"
            )
        resolved[flow_id] = count
    return resolved


def fill_component(
    flow_ids: Sequence[int],
    flow_links: Mapping[int, Sequence[LinkKey]],
    demands: Mapping[int, float],
    capacities: Mapping[LinkKey, float],
    counts: Optional[Mapping[int, int]] = None,
) -> Dict[int, float]:
    """Progressive filling restricted to one connected component.

    ``flow_ids`` must be the component's entities in ascending id order;
    every entity must have a non-empty path and a demand above the rate
    tolerance.  The result depends only on the *set* of entities and their
    links, demands, counts and capacities — not on iteration order — so
    re-filling an unchanged component always reproduces the exact same
    floating-point rates.
    """
    counts = _resolve_counts(flow_ids, counts)
    rates: Dict[int, float] = {}
    active: Dict[int, Tuple[LinkKey, ...]] = {}
    demand_tol: Dict[int, float] = {}
    for flow_id in flow_ids:
        rates[flow_id] = 0.0
        active[flow_id] = tuple(flow_links[flow_id])
        demand_tol[flow_id] = rate_tolerance(demands[flow_id])

    remaining: Dict[LinkKey, float] = {}
    link_tol: Dict[LinkKey, float] = {}
    for links in active.values():
        for link in links:
            if link not in remaining:
                capacity = float(capacities[link])
                remaining[link] = capacity
                link_tol[link] = rate_tolerance(capacity)

    progress_tol = rate_tolerance(
        max(
            max((float(capacities[link]) for link in remaining), default=0.0),
            max((demands[flow_id] for flow_id in flow_ids), default=0.0),
        )
    )

    max_rounds = len(active) + len(remaining) + 1
    for _ in range(max_rounds):
        if not active:
            break
        # How many active sessions traverse each link (an entity crossing a
        # link twice — which only happens with looping paths — counts its
        # sessions twice).  Integer arithmetic: exact regardless of order.
        usage: Dict[LinkKey, int] = {}
        for flow_id, links in active.items():
            count = counts[flow_id]
            for link in links:
                usage[link] = usage.get(link, 0) + count

        # The common increment is limited by the tightest link fair share and
        # by the closest remaining demand headroom.
        link_limit = min(
            (remaining[link] / count for link, count in usage.items() if count > 0),
            default=float("inf"),
        )
        demand_limit = min(
            demands[flow_id] - rates[flow_id] for flow_id in active
        )
        increment = min(link_limit, demand_limit)
        if increment < 0:
            raise SimulationError("negative increment during progressive filling")

        if increment > 0:
            for flow_id in active:
                rates[flow_id] += increment
            # Capacity drains once per link: ``usage`` is an exact integer,
            # so n count-1 entities and one count-n entity subtract the very
            # same float64 value.
            for link, count in usage.items():
                remaining[link] -= count * increment

        # Freeze entities that reached their demand or hit a saturated link.
        frozen: List[int] = []
        for flow_id, links in active.items():
            if demands[flow_id] - rates[flow_id] <= demand_tol[flow_id]:
                frozen.append(flow_id)
                continue
            if any(remaining[link] <= link_tol[link] for link in links):
                frozen.append(flow_id)
        if not frozen and increment <= progress_tol:
            raise SimulationError(
                "progressive filling made no progress; capacities may be inconsistent"
            )
        for flow_id in frozen:
            del active[flow_id]

    if active:
        raise SimulationError(
            f"progressive filling did not converge; {len(active)} flows still active"
        )
    return rates

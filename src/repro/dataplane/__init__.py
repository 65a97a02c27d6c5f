"""Flow-level data plane.

The original demo measured real packets on Mininet virtual links; this
package reproduces the quantities the paper reports (per-link throughput,
per-flow rates, congestion) with a fluid, flow-level model:

``flows``
    Flow descriptors (ingress router, destination prefix, demand) and the
    book-keeping for collections of flows.
``demand``
    Aggregated traffic matrices used by the static analyses and by the
    TE baselines, plus demand classes — ``(ingress, prefix, rate, count)``
    session cohorts, the unit of the data-plane engine (a flow is a
    one-session class).
``forwarding``
    Routing of traffic over the routers' FIBs: exact fractional splitting
    (fluid mode) and per-session ECMP hashing of whole session populations
    (hash mode), plus loop detection.
``linkstats``
    Per-link load accounting and utilisation summaries.
``fairness``
    Max-min fair bandwidth sharing (progressive filling) across flows that
    compete on a bottleneck link, decomposed along the connected components
    of the flow-link hypergraph.
``path_cache``
    The incremental machinery: path caching keyed on the FIB entries a
    walk traverses, and warm-start max-min repair per dirty component,
    with the ``dp_*`` counters.
``engine``
    The event-driven simulation engine tying everything to the shared
    timeline: cohort arrivals and departures (``AggregateDemandEngine``)
    or, through its per-flow view, flow arrivals and departures
    (``DataPlaneEngine``), FIB changes, SNMP counters, and the periodic
    sampling used to draw Fig. 2.
"""

from repro.dataplane.flows import Flow, FlowSet, FlowSpec
from repro.dataplane.demand import (
    TrafficMatrix,
    DemandEntry,
    ClassSpec,
    DemandClass,
    ClassSet,
)
from repro.dataplane.forwarding import (
    ForwardingOutcome,
    ClassPathGroup,
    route_fractional,
    route_flows_hashed,
    route_class_sessions,
    forwarding_graph,
)
from repro.dataplane.linkstats import LinkLoads, LinkUtilization
from repro.dataplane.fairness import (
    max_min_fair_allocation,
    decompose_components,
    fill_component,
)
from repro.dataplane.path_cache import (
    DataPlaneCounters,
    FlowPathCache,
    WarmStartAllocator,
)
from repro.dataplane.engine import AggregateDemandEngine, DataPlaneEngine, LinkSample

__all__ = [
    "Flow",
    "FlowSet",
    "FlowSpec",
    "TrafficMatrix",
    "DemandEntry",
    "ClassSpec",
    "DemandClass",
    "ClassSet",
    "ForwardingOutcome",
    "ClassPathGroup",
    "route_fractional",
    "route_flows_hashed",
    "route_class_sessions",
    "forwarding_graph",
    "LinkLoads",
    "LinkUtilization",
    "max_min_fair_allocation",
    "decompose_components",
    "fill_component",
    "DataPlaneCounters",
    "FlowPathCache",
    "WarmStartAllocator",
    "DataPlaneEngine",
    "AggregateDemandEngine",
    "LinkSample",
]

"""Link-state IGP substrate (OSPF-like control plane).

The original demo ran OSPF (Quagga) inside a Mininet testbed.  This package
is a from-scratch, laptop-scale implementation of the control-plane pipeline
the demo depends on:

``topology``
    Physical routers, links (weights, capacities, delays) and attached
    destination prefixes.
``lsa``
    Link-state advertisements: router LSAs, prefix LSAs and the *fake* LSAs
    injected by the Fibbing controller.
``lsdb``
    Per-router link-state database, keyed by LSA identity and sequence
    number.
``graph``
    The computation graph a router derives from its LSDB (routers, directed
    weighted edges, per-node prefix announcements, and lies kept as leaf
    announcements attached to their anchor, outside the SPF graph).
``spf``
    Dijkstra shortest-path-first with full ECMP next-hop sets, plus the
    incremental repair (``update_spf``) that re-relaxes only the subtree
    affected by a batch of edge deltas; lies move no edge and run no SPF.
``spf_cache``
    Per-source SPF results keyed by computation-graph version, replayed
    through the dirty-edge delta log on change.
``rib`` / ``fib``
    Per-prefix routes and forwarding entries; the FIB resolves fake
    next-hops to physical ones, preserving multiplicity (this is what gives
    Fibbing its uneven splitting ratios).
``rib_cache``
    Per-router RIBs and resolved FIBs keyed by computation-graph version,
    repaired per dirty prefix from the same delta log (the incremental-SPF
    pattern lifted to the route layer), and ``LazyFibs``, which resolves
    single ``(router, prefix)`` entries on first read.
``flooding``
    Reliable LSA flooding between adjacent routers with propagation delays.
``router``
    The per-router process tying LSDB, SPF scheduling and FIB installation
    together.
``network``
    Orchestration of a whole IGP domain plus a static (non event-driven)
    route computation used by baselines and quick analyses.
"""

from repro.igp.topology import Topology, Link, RouterInfo, PrefixAttachment
from repro.igp.lsa import (
    Lsa,
    RouterLsa,
    PrefixLsa,
    FakeNodeLsa,
    LsaKey,
)
from repro.igp.graph import ComputationGraph, EdgeDelta, GraphChange
from repro.igp.spf import ShortestPaths, compute_spf, update_spf
from repro.igp.spf_cache import SpfCache, SpfCounters
from repro.igp.rib import Route, Rib, compute_rib, update_rib, rib_digest
from repro.igp.rib_cache import RibCache, RibCounters
from repro.igp.fib import Fib, FibEntry, resolve_rib_to_fib, update_fib
from repro.igp.lsdb import LinkStateDatabase
from repro.igp.router import RouterProcess, RouterTimers
from repro.igp.flooding import FloodingFabric, FloodingStats
from repro.igp.network import IgpNetwork, compute_static_fibs

__all__ = [
    "Topology",
    "Link",
    "RouterInfo",
    "PrefixAttachment",
    "Lsa",
    "RouterLsa",
    "PrefixLsa",
    "FakeNodeLsa",
    "LsaKey",
    "ComputationGraph",
    "EdgeDelta",
    "GraphChange",
    "ShortestPaths",
    "compute_spf",
    "update_spf",
    "SpfCache",
    "SpfCounters",
    "Route",
    "Rib",
    "compute_rib",
    "update_rib",
    "rib_digest",
    "RibCache",
    "RibCounters",
    "Fib",
    "FibEntry",
    "resolve_rib_to_fib",
    "update_fib",
    "LinkStateDatabase",
    "RouterProcess",
    "RouterTimers",
    "FloodingFabric",
    "FloodingStats",
    "IgpNetwork",
    "compute_static_fibs",
]

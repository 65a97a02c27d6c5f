"""Benchmark: the all-router static-FIB reaction wave with and without the RIB cache.

PR 1 made the SPF half of a controller reaction incremental; the other half —
rescanning every prefix to rebuild each router's RIB and re-resolving every
route into FIB entries — remained a full recomputation per router per event.
This benchmark replays the same lie injection/withdrawal churn as the SPF
cache benchmark and times the complete SPF + RIB + FIB wave both ways: full
per-router recomputation and the :class:`~repro.igp.rib_cache.RibCache`
pipeline.  The acceptance bar is >= 1.5x.
"""

import os
import time

import pytest

from repro.igp.fib import resolve_rib_to_fib
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa
from repro.igp.rib import compute_rib
from repro.igp.rib_cache import RibCache
from repro.igp.spf import compute_spf
from repro.topologies.random import random_topology
from repro.util.prefixes import Prefix

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Wave-benchmark topology size (same as test_bench_spf_cache.py).
WAVE_ROUTERS = 20 if QUICK else 120
NUM_ROUTERS = 20 if QUICK else 40
NUM_EVENTS = 10 if QUICK else 30
MAX_ECMP = 16
HOT_PREFIX = Prefix.parse("10.99.0.0/24")


def _lie(index: int, anchor: str, forwarding_address: str) -> FakeNodeLsa:
    return FakeNodeLsa(
        origin="bench-controller",
        fake_node=f"bench-fake-{index}",
        anchor=anchor,
        link_cost=0.5,
        prefix=HOT_PREFIX,
        prefix_cost=0.25,
        forwarding_address=forwarding_address,
    )


def run_fib_wave_comparison():
    """Replay a lie churn; time the all-router SPF+RIB+FIB wave full vs incremental.

    Returns ``(full_seconds, incremental_seconds, cache_counters)``.
    """
    topology = random_topology(WAVE_ROUTERS, edge_probability=0.15, seed=1)
    routers = topology.routers
    cache = RibCache()
    graph = cache.observe(ComputationGraph.from_topology(topology))
    for router in routers:  # warm the cache once, like a converged network
        cache.resolve(graph, router, max_ecmp=MAX_ECMP)

    lies = []
    full_time = 0.0
    incremental_time = 0.0
    for event in range(NUM_EVENTS):
        anchor = routers[event % len(routers)]
        if event % 5 == 4 and lies:
            lies.pop(0)  # the occasional withdrawal, like the real registry
        else:
            lies.append(_lie(event, anchor, topology.neighbors(anchor)[0]))

        rebuilt = ComputationGraph.from_topology(topology, lies)
        start = time.perf_counter()
        for router in routers:
            spf = compute_spf(rebuilt, router)
            rib = compute_rib(rebuilt, router, spf)
            resolve_rib_to_fib(rebuilt, rib, max_ecmp=MAX_ECMP)
        full_time += time.perf_counter() - start

        # The incremental engine is charged for its whole cost: the
        # observe() state diff that produces the change log plus the repairs.
        start = time.perf_counter()
        chained = cache.observe(rebuilt)
        for router in routers:
            cache.resolve(chained, router, max_ecmp=MAX_ECMP)
        incremental_time += time.perf_counter() - start
    return full_time, incremental_time, cache.counters.snapshot()


def test_static_fib_wave_speedup(benchmark, report):
    full_time, incremental_time, counters = benchmark.pedantic(
        run_fib_wave_comparison, rounds=1, iterations=1
    )
    speedup = full_time / incremental_time

    report.add_line(
        f"RIB cache — all-router static-FIB reaction wave "
        f"({WAVE_ROUTERS} routers, {NUM_EVENTS} lie events)"
    )
    report.add_table(
        ["engine", "all-router SPF+RIB+FIB time [s]"],
        [
            ("full recompute per router", f"{full_time:.4f}"),
            ("incremental", f"{incremental_time:.4f} ({speedup:.1f}x)"),
        ],
    )
    report.add_metric("full_seconds", full_time)
    report.add_metric("incremental_seconds", incremental_time)
    report.add_metric("speedup", speedup)
    report.add_metric("num_routers", WAVE_ROUTERS)
    report.add_metric("num_events", NUM_EVENTS)
    report.add_line(f"cache counters: {counters}")

    # The acceptance bar for the incremental RIB/FIB engine.  Quick mode
    # measures sub-millisecond intervals on shared CI runners, so it only
    # smoke-checks that the incremental path is not slower.
    assert speedup >= (1.2 if QUICK else 1.5)
    assert counters["rib_fallbacks"] == 0
    # Every event repaired every router's RIB incrementally (no silent
    # full rescans beyond the initial warm-up).
    assert counters["rib_incremental_updates"] >= NUM_EVENTS * WAVE_ROUTERS
    assert counters["rib_full_recomputes"] == WAVE_ROUTERS
    # The dirty sets stayed small: the overwhelming majority of routes
    # were reused wholesale instead of re-resolved.
    assert counters["rib_prefixes_reused"] > 10 * counters["rib_prefixes_repaired"]


def test_controller_reaction_rib_counters(benchmark, report):
    """End-to-end controller reaction: static FIBs after each lie churn, cached."""
    from repro.core.controller import FibbingController
    from repro.core.requirements import DestinationRequirement

    topology = random_topology(NUM_ROUTERS, edge_probability=0.15, seed=2)
    prefix = topology.prefixes[0]
    announcer = topology.prefix_attachments(prefix)[0].router
    sources = [router for router in topology.routers if router != announcer][:4]

    def requirement_for(source, spread):
        neighbors = topology.neighbors(source)[: 1 + spread % 2 + 1]
        weights = {neighbor: 1 for neighbor in neighbors}
        return DestinationRequirement(prefix=prefix, next_hops={source: weights})

    def reaction_loop():
        controller = FibbingController(topology)
        for round_index in range(4 if QUICK else 8):
            for index, source in enumerate(sources):
                try:
                    controller.enforce_requirement(
                        requirement_for(source, index + round_index)
                    )
                except Exception:
                    continue  # some random sources cannot anchor lies; fine
            controller.static_fibs()
        return controller.stats.snapshot()

    stats = benchmark.pedantic(reaction_loop, rounds=1, iterations=1)

    report.add_line("Controller reaction rounds with RIB cache")
    report.add_line(
        "rib counters: "
        + ", ".join(f"{key}={stats[key]}" for key in sorted(stats) if key.startswith("rib_"))
    )
    report.add_metric("rib_incremental_updates", stats["rib_incremental_updates"])
    report.add_metric("rib_full_recomputes", stats["rib_full_recomputes"])
    # The lied view churns on every round, so the reaction waves must be
    # dominated by per-prefix repairs, not full prefix rescans.
    assert stats["rib_incremental_updates"] > 0
    assert stats["rib_full_recomputes"] <= 2 * NUM_ROUTERS
    assert stats["rib_incremental_updates"] + stats["rib_cache_hits"] > (
        stats["rib_full_recomputes"] + stats["rib_fallbacks"]
    )

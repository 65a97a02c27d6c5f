"""Benchmark: the controller-reaction hot path with and without SPF caching.

When the Fibbing controller reacts to an alarm, every router (or, in the
static oracle, every SPF source) must refresh its view after the injected
lies.  Before the incremental engine this was one full Dijkstra per source
per reaction; now the per-source results are repaired from the dirty-edge
delta log.  This benchmark replays a long injection/withdrawal churn on a
mid-sized random topology, measures the all-source SPF wave both ways —
full Dijkstra and incremental repair — and asserts the acceptance bar
(>= 2x).
"""

import os
import time

import pytest

from repro.core.controller import FibbingController
from repro.core.requirements import DestinationRequirement
from repro.igp.graph import ComputationGraph
from repro.igp.lsa import FakeNodeLsa
from repro.igp.spf import compute_spf
from repro.igp.spf_cache import SpfCache
from repro.topologies.random import random_topology
from repro.util.prefixes import Prefix

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Wave-benchmark topology size (see the measured numbers in README.md).
#: The controller-reaction test keeps its own smaller size.
WAVE_ROUTERS = 20 if QUICK else 120
NUM_ROUTERS = 20 if QUICK else 40
NUM_EVENTS = 10 if QUICK else 30
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


def run_spf_wave_comparison():
    """Replay a lie churn; time the all-source SPF wave full vs incremental.

    Returns ``(full_seconds, incremental_seconds, cache_counters)``.
    """
    topology = random_topology(WAVE_ROUTERS, edge_probability=0.15, seed=1)
    routers = topology.routers
    cache = SpfCache()
    graph = cache.observe(ComputationGraph.from_topology(topology))
    for router in routers:  # warm the cache once, like a converged network
        cache.spf(graph, router)

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
            compute_spf(rebuilt, router)
        full_time += time.perf_counter() - start

        # The incremental engine is charged for its whole cost: the
        # observe() edge diff that produces the deltas plus the repairs.
        start = time.perf_counter()
        chained = cache.observe(rebuilt)
        for router in routers:
            cache.spf(chained, router)
        incremental_time += time.perf_counter() - start
    return full_time, incremental_time, cache.counters.snapshot()


def test_spf_wave_speedup(benchmark, report):
    full_time, incremental_time, counters = benchmark.pedantic(
        run_spf_wave_comparison, rounds=1, iterations=1
    )
    speedup = full_time / incremental_time

    report.add_line(
        f"SPF cache — controller-reaction hot path "
        f"({WAVE_ROUTERS} routers, {NUM_EVENTS} lie events)"
    )
    report.add_table(
        ["engine", "all-source SPF time [s]"],
        [
            ("full Dijkstra per source", f"{full_time:.4f}"),
            ("incremental", f"{incremental_time:.4f} ({speedup:.1f}x)"),
        ],
    )
    report.add_metric("full_seconds", full_time)
    report.add_metric("incremental_seconds", incremental_time)
    report.add_metric("speedup", speedup)
    report.add_metric("num_routers", WAVE_ROUTERS)
    report.add_metric("num_events", NUM_EVENTS)
    report.add_line(f"cache counters: {counters}")

    # The acceptance bar.  Quick mode measures sub-millisecond intervals on
    # shared CI runners, so it only smoke-checks that the incremental path
    # is not slower.
    assert speedup >= (1.2 if QUICK else 2.0)
    assert counters["spf_fallbacks"] == 0
    # Every event repaired every source incrementally (no silent full
    # runs beyond the initial warm-up).
    assert counters["spf_incremental_updates"] >= NUM_EVENTS * WAVE_ROUTERS
    assert counters["spf_full_recomputes"] == WAVE_ROUTERS


def test_controller_reaction_with_cache(benchmark, report):
    """End-to-end reaction: enforce + static FIB verification, cached."""
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
        durations = []
        for round_index in range(4 if QUICK else 8):
            start = time.perf_counter()
            for index, source in enumerate(sources):
                try:
                    controller.enforce_requirement(requirement_for(source, index + round_index))
                except Exception:
                    continue  # some random sources cannot anchor lies; fine
            controller.static_fibs()
            durations.append(time.perf_counter() - start)
        return durations, controller.stats.snapshot()

    durations, stats = benchmark.pedantic(reaction_loop, rounds=1, iterations=1)

    report.add_line("Controller reaction rounds (enforce + verify) with SPF cache")
    report.add_table(
        ["round", "duration [s]"],
        [(index, f"{duration:.4f}") for index, duration in enumerate(durations)],
    )
    report.add_line(
        "spf counters: "
        + ", ".join(f"{key}={stats[key]}" for key in sorted(stats) if key.startswith(("spf_", "fib_")))
    )
    report.add_metric("rounds", len(durations))
    report.add_metric("total_seconds", sum(durations))
    # Warm rounds must be served mostly from the cache: after the first
    # round the baseline view never changes, so lookups stop being full.
    assert stats["spf_full_recomputes"] <= 2 * NUM_ROUTERS
    assert stats["spf_cache_hits"] + stats["fib_cache_hits"] + stats["spf_incremental_updates"] > 0

"""Benchmark: the controller-reaction hot path served by the SPF cache.

When the Fibbing controller reacts, every SPF source must refresh its view
after the injected lies; the per-source results are repaired from the
dirty-edge delta log instead of re-running Dijkstra.  This benchmark times
warm reaction rounds (enforce + static-FIB verification) and checks that
they are served mostly from the cache.  Equivalence with full Dijkstra is
the job of ``tests/test_igp_spf_incremental.py``.
"""

import os
import time

from repro.core.controller import FibbingController
from repro.core.requirements import DestinationRequirement
from repro.topologies.random import random_topology

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_ROUTERS = 20 if QUICK else 40


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
        + ", ".join(f"{key}={stats[key]}" for key in sorted(stats) if key.startswith("spf_"))
    )
    report.add_metric("rounds", len(durations))
    report.add_metric("total_seconds", sum(durations))
    # Warm rounds must be served mostly from the cache: after the first
    # round the baseline view never changes, so lookups stop being full.
    assert stats["spf_full_recomputes"] <= 2 * NUM_ROUTERS
    assert stats["spf_cache_hits"] + stats["spf_incremental_updates"] > 0

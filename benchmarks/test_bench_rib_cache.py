"""Benchmark: controller reaction rounds served by the RIB cache.

Each round enforces a lie churn and recomputes the all-router static FIBs
through the controller's versioned :class:`~repro.igp.rib_cache.RibCache`
pipeline; the counters must show the rounds dominated by per-prefix repairs
rather than full prefix rescans.  Equivalence with a from-scratch
SPF + RIB + FIB recomputation is the job of
``tests/test_igp_rib_incremental.py``.
"""

import os

from repro.topologies.random import random_topology

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_ROUTERS = 20 if QUICK else 40


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
    assert (
        stats["rib_incremental_updates"] + stats["rib_cache_hits"]
        > stats["rib_full_recomputes"]
    )

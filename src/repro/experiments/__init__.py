"""Experiment harnesses regenerating the paper's figures and claims.

Each module builds one experiment end-to-end from the library's public API,
so that the corresponding benchmark, example and tests all share the exact
same code path:

``fig1``
    The static Fig. 1 experiment: relative link loads with and without the
    Fig. 1c lies.
``fig2``
    The dynamic Fig. 2 experiment: the full closed loop (IGP, data plane,
    video sessions, SNMP monitoring, on-demand load balancer) producing the
    per-link throughput time series and the QoE report.
``flashcrowd_classes``
    The Fig. 2 scenario scaled to millions of viewers over the
    aggregate-demand data plane: session counts and capacities grow
    together, each arrival batch is one demand class, QoE is class-level.
``overhead``
    The §2 control-plane/data-plane overhead comparison between Fibbing and
    MPLS RSVP-TE.
``optimality``
    The §2 optimality claim: Fibbing's realised max utilisation against the
    fractional LP optimum and the IGP baselines.
``scaling``
    The extended ablations: lie-count scaling, split-approximation error and
    reaction-time sweeps.
"""

from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import DemoRunResult, run_demo_timeseries, reaction_times
from repro.experiments.flashcrowd_classes import (
    FlashCrowdClassesResult,
    build_scaled_demo_scenario,
    run_flashcrowd_classes,
)
from repro.experiments.overhead import OverheadRow, run_overhead_comparison
from repro.experiments.optimality import OptimalityRow, run_optimality_study
from repro.experiments.scaling import (
    LieScalingRow,
    SplitApproximationRow,
    run_lie_scaling,
    run_split_approximation,
)

__all__ = [
    "Fig1Result",
    "run_fig1",
    "DemoRunResult",
    "run_demo_timeseries",
    "reaction_times",
    "FlashCrowdClassesResult",
    "build_scaled_demo_scenario",
    "run_flashcrowd_classes",
    "OverheadRow",
    "run_overhead_comparison",
    "OptimalityRow",
    "run_optimality_study",
    "LieScalingRow",
    "SplitApproximationRow",
    "run_lie_scaling",
    "run_split_approximation",
]

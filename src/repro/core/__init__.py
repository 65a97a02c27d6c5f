"""The Fibbing controller — the paper's primary contribution.

The controller programs per-destination forwarding by lying to the IGP: it
injects fake nodes and links so that unmodified routers compute additional
equal-cost shortest paths, and it replicates fake entries to approximate
uneven splitting ratios.  The sub-modules follow the controller's pipeline:

``requirements``
    What the controller wants to enforce: per-destination forwarding DAGs
    with integer next-hop weights.
``splitting``
    Fractional split ratios → integer weights under a bounded ECMP table
    size (largest-remainder approximation).
``augmentation``
    Requirements → concrete lies (fake node LSAs), either tying with the
    existing shortest path (adding ECMP entries) or overriding it.
``merger``
    Lie reduction: drop no-op requirements, reduce weight vectors, and
    report how many lies were saved (the paper's "very limited
    control-plane overhead" argument).
``lies``
    Lifecycle management of active lies and diff-based updates (inject only
    what is new, withdraw only what is obsolete).
``reconciler``
    Incremental reconciliation: the versioned plan cache and the minimal
    retract/inject deltas that keep reaction cost proportional to what
    actually changed (with the clear-and-replay oracle as fallback).
``optimizer``
    The min-max link-utilisation linear program (the "optimal solution to
    the min-max link utilization problem" of §2) and its conversion into
    forwarding requirements.
``controller``
    The Fibbing controller session: applies requirements to a live
    :class:`~repro.igp.network.IgpNetwork` (or returns static lies) and
    accounts for control-plane overhead.
``shard``
    The sharded multi-controller: N controller shards behind one
    reconciliation facade, planning disjoint prefix sub-waves concurrently
    and merging their deltas into one batched injection — bit-identical to
    a single controller.
``loadbalancer``
    The demo's on-demand service: reacts to utilisation alarms by
    re-optimising the affected destinations and updating the lies.
``policies``
    Tunable knobs shared by the controller and the load balancer.
"""

from repro.core.requirements import DestinationRequirement, RequirementSet
from repro.core.splitting import approximate_ratios, split_error, weights_to_fractions
from repro.core.augmentation import synthesize_lies, AugmentationError
from repro.core.merger import LieMerger, MergeReport, reduce_weights
from repro.core.lies import Lie, LieState, LieRegistry, LieUpdate
from repro.core.reconciler import CtlCounters, LieReconciler, PlanCache
from repro.core.optimizer import MinMaxLoadOptimizer, OptimizationResult
from repro.core.controller import (
    FibbingController,
    ControllerUpdate,
    ControllerStats,
    ShardCounters,
)
from repro.core.shard import ShardedFibbingController, default_shard_assignment
from repro.core.loadbalancer import OnDemandLoadBalancer, RebalanceAction
from repro.core.policies import LoadBalancerPolicy

__all__ = [
    "DestinationRequirement",
    "RequirementSet",
    "approximate_ratios",
    "split_error",
    "weights_to_fractions",
    "synthesize_lies",
    "AugmentationError",
    "LieMerger",
    "MergeReport",
    "reduce_weights",
    "Lie",
    "LieState",
    "LieRegistry",
    "LieUpdate",
    "CtlCounters",
    "LieReconciler",
    "PlanCache",
    "MinMaxLoadOptimizer",
    "OptimizationResult",
    "FibbingController",
    "ControllerUpdate",
    "ControllerStats",
    "ShardCounters",
    "ShardedFibbingController",
    "default_shard_assignment",
    "OnDemandLoadBalancer",
    "RebalanceAction",
    "LoadBalancerPolicy",
]

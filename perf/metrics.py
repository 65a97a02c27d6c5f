"""What the benchmark reports: workload and metric names, units, bounds, derivations.

End-to-end metrics come from untraced reps; per-layer metrics from traced
reps (span self times) and from the run-phase deltas of the layers' own
counter snapshots.  ``BENCHMARK.json`` echoes the names, units, directions
and bounds fixed here; ``test_perf_smoke.py`` holds the two in step.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from perf.trace import CHAIN, END, ID, LAYER, NAME, PARENT, START

__all__ = [
    "WORKLOADS", "Metric", "END_TO_END", "COMPARE_ONLY", "PER_LAYER", "LAYERS",
    "summarize", "percentile", "span_self_times", "layer_metrics",
]


#: name -> why the workload exists (echoed in BENCHMARK.json and the README).
WORKLOADS: Dict[str, str] = {
    "flashcrowd_1m": (
        "Fig. 2 demo at 1,000,060 sessions as 3 demand classes: dataplane does "
        "nearly all the work, igp/core/monitoring almost none"
    ),
    "isp_loop_120": (
        "120-router ISP closed loop, 8 lie waves: igp (flooding, graph rebuild, "
        "SPF, RIB/FIB) dominates, dataplane is small; bypass for data-plane changes"
    ),
    "isp_chaos_120": (
        "same world under link churn, LSA loss, poll timeouts and a controller "
        "crash: the topology-change path of the same layers, plus resync"
    ),
    "planner_churn_60": (
        "controller reactions alone on a 60-router ISP, 100 demand changes: core "
        "does all the work; bypass for everything but the controller"
    ),
}

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline's median the metric may worsen by.
    bound: float = 0.0
    #: ...or this much in absolute terms, whichever is larger (compare.py).
    floor: float = 0.0


#: Bounded metrics, reported on every workload and never zero.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", bound=0.25, floor=0.03),
    Metric("run_wall_s", "s", "lower", bound=0.20),
    Metric("reaction_ms_p50", "ms", "lower", bound=0.25, floor=0.5),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.15),
    Metric("smooth_share", "ratio", "higher", bound=0.10),
)

#: Zero on a healthy run, so a share of their median means nothing; only
#: ``compare.py`` judges them (any increase beyond ``floor`` is a regression).
COMPARE_ONLY: Tuple[Metric, ...] = (
    Metric("stall_s", "s", "lower", floor=1e-9),
    Metric("fail_share", "ratio", "lower"),
)

#: Top-level packages under ``src/repro`` that spans are attributed to.
LAYERS = ("igp", "core", "dataplane", "monitoring", "video", "util")

_S, _MS, _N, _R = "s", "ms", "count", "ratio"
PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("timeline.events", _N, "lower"),
        ("timeline.dispatch_self_s", _S, "lower"),
        ("monitoring.polls", _N, "lower"),
        ("monitoring.poll_self_s", _S, "lower"),
        ("monitoring.alarm_check_self_s", _S, "lower"),
        ("monitoring.alarms", _N, "lower"),
        ("monitoring.poll_timeouts", _N, "lower"),
        ("core.reactions", _N, "lower"),
        ("core.react_s", _S, "lower"),
        ("core.react_ms_p90", _MS, "lower"),
        ("core.lp_self_s", _S, "lower"),
        ("core.lp_calls", _N, "lower"),
        ("core.lp_cache_hit_share", _R, "higher"),
        ("core.requirements_self_s", _S, "lower"),
        ("core.merge_self_s", _S, "lower"),
        ("core.merge_cache_hit_share", _R, "higher"),
        ("core.enforce_self_s", _S, "lower"),
        ("core.plan_cache_hit_share", _R, "higher"),
        ("core.lies_injected", _N, "lower"),
        ("core.lies_retracted", _N, "lower"),
        ("core.lies_kept", _N, "higher"),
        ("core.fallbacks", _N, "lower"),
        ("core.resync_self_s", _S, "lower"),
        ("core.resync_lies_recovered", _N, "higher"),
        ("core.reactions_abandoned", _N, "lower"),
        ("core.fault_events", _N, "lower"),
        ("core.fault_self_s", _S, "lower"),
        ("igp.boot_s", _S, "lower"),
        ("igp.flood_self_s", _S, "lower"),
        ("igp.flood_msgs", _N, "lower"),
        ("igp.flood_dup_share", _R, "lower"),
        ("igp.lsas_dropped", _N, "lower"),
        ("igp.spf_runs", _N, "lower"),
        ("igp.spf_event_self_s", _S, "lower"),
        ("igp.graph_build_self_s", _S, "lower"),
        ("igp.spf_self_s", _S, "lower"),
        ("igp.ribfib_self_s", _S, "lower"),
        ("igp.spf_incremental_share", _R, "higher"),
        ("igp.spf_cache_hit_share", _R, "higher"),
        ("igp.rib_reuse_share", _R, "higher"),
        ("igp.rib_fallbacks", _N, "lower"),
        ("igp.fib_installs", _N, "lower"),
        ("igp.fib_install_self_s", _S, "lower"),
        ("igp.static_fibs_self_s", _S, "lower"),
        ("dataplane.arrivals_self_s", _S, "lower"),
        ("dataplane.reroute_self_s", _S, "lower"),
        ("dataplane.pathwalk_self_s", _S, "lower"),
        ("dataplane.waterfill_self_s", _S, "lower"),
        ("dataplane.sample_self_s", _S, "lower"),
        ("dataplane.flaws_self_s", _S, "lower"),
        ("dataplane.flows_rerouted", _N, "lower"),
        ("dataplane.path_reuse_share", _R, "higher"),
        ("dataplane.warm_start_share", _R, "higher"),
        ("dataplane.classes_rewalked", _N, "lower"),
        ("dataplane.fallbacks", _N, "lower"),
        ("video.sessions", _N, "higher"),
        ("video.clients", _N, "lower"),
        ("video.arrivals_self_s", _S, "lower"),
        ("video.qoe_self_s", _S, "lower"),
        ("video.stall_s", _S, "lower"),
        ("chain.reaction_busy_ms_p50", _MS, "lower"),
        ("chain.link_event_busy_ms_p50", _MS, "lower"),
        ("share.igp", _R, "lower"),
        ("share.core", _R, "lower"),
        ("share.dataplane", _R, "lower"),
        ("share.monitoring", _R, "lower"),
        ("share.video", _R, "lower"),
        ("share.util", _R, "lower"),
        ("bench.spans", _N, "lower"),
        ("bench.trace_overhead_pct", "%", "lower"),
        ("bench.unattributed_share", _R, "lower"),
        ("bench.fail_share", _R, "lower"),
    )
)


# ---------------------------------------------------------------------- #
# Small statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 1]); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``n, min, p25, median, p75`` of a sample."""
    return {
        "n": len(values),
        "min": min(values, default=0.0),
        "p25": percentile(values, 0.25),
        "median": percentile(values, 0.5),
        "p75": percentile(values, 0.75),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------- #
# From spans to per-layer numbers
# ---------------------------------------------------------------------- #
def span_self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    self_times = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            self_times[span[PARENT]] -= span[END] - span[START]
    return self_times


def layer_metrics(spans: Sequence[list], counters: Mapping[str, float]) -> Dict[str, float]:
    """Everything in :data:`PER_LAYER` that one traced rep can tell.

    Times are summed over the spans inside the rep's ``bench.run`` span
    (set-up only feeds ``igp.boot_s``; collection only ``video.qoe_self_s``).
    The cross-rep entries (``bench.trace_overhead_pct``, ``bench.fail_share``,
    ``video.stall_s``) are filled in by the caller.
    """
    self_times = span_self_times(spans)
    run = next(span for span in reversed(spans) if span[NAME] == "bench.run")
    run_wall = run[END] - run[START]

    self_by_name: Dict[str, float] = defaultdict(float)
    calls_by_name: Dict[str, int] = defaultdict(int)
    self_by_layer: Dict[str, float] = defaultdict(float)
    self_by_chain: Dict[int, float] = defaultdict(float)
    reactions: List[list] = []
    link_events: List[list] = []
    for span, self_time in zip(spans, self_times):
        name = span[NAME]
        if name == "igp.boot" and span[START] < run[START]:
            self_by_name["igp.boot:duration"] += span[END] - span[START]
        if span is run or not (run[START] <= span[START] and span[END] <= run[END]):
            if name == "video.qoe":
                self_by_name[name] += self_time
            continue
        self_by_name[name] += self_time
        calls_by_name[name] += 1
        self_by_layer[span[LAYER]] += self_time
        self_by_chain[span[CHAIN]] += self_time
        if name == "core.react":
            reactions.append(span)
        elif name == "event:fault:link_down":
            link_events.append(span)
    # The run span's own time is harness glue (the planner's wave loop).
    self_by_layer["bench"] += self_times[run[ID]]

    def self_of(*names: str) -> float:
        return sum(self_by_name[name] for name in names)

    def count(key: str) -> float:
        return counters.get(key, 0)

    fault_names = [name for name in self_by_name if name.startswith("event:fault:")]
    reaction_ms = [1000.0 * (span[END] - span[START]) for span in reactions]
    spf_lookups = count("spf_cache_hits") + count("spf_incremental_updates") + count("spf_full_recomputes")
    dp_reused = count("dp_flows_reused") + count("dp_classes_reused")
    dp_walked = count("dp_flows_rerouted") + count("dp_classes_rewalked")
    metrics = {
        "timeline.events": sum(n for name, n in calls_by_name.items() if name.startswith("event:")),
        "timeline.dispatch_self_s": self_of("timeline.run"),
        "monitoring.polls": count("polls"),
        "monitoring.poll_self_s": self_of("event:snmp-poll", "event:snmp-poll-retry"),
        "monitoring.alarm_check_self_s": self_of("monitoring.alarm_check"),
        "monitoring.alarms": count("alarms"),
        "monitoring.poll_timeouts": count("fault_poll_timeouts"),
        "core.reactions": count("reactions"),
        "core.react_s": sum(reaction_ms) / 1000.0,
        "core.react_ms_p90": percentile(reaction_ms, 0.9),
        "core.lp_self_s": self_of("core.lp"),
        "core.lp_calls": calls_by_name["core.lp"],
        "core.lp_cache_hit_share": _share(count("ctl_opt_cache_hits"), calls_by_name["core.lp"]),
        "core.requirements_self_s": self_of("core.requirements"),
        "core.merge_self_s": self_of("core.merge", "core.merge_one"),
        "core.merge_cache_hit_share": _share(
            count("ctl_merge_cache_hits"), calls_by_name["core.merge_one"]
        ),
        "core.enforce_self_s": self_of("core.enforce"),
        "core.plan_cache_hit_share": _share(
            count("ctl_plan_cache_hits"), count("ctl_plan_cache_hits") + count("ctl_plans_recomputed")
        ),
        "core.lies_injected": count("ctl_lies_injected"),
        "core.lies_retracted": count("ctl_lies_retracted"),
        "core.lies_kept": count("ctl_lies_kept"),
        "core.fallbacks": count("ctl_fallbacks"),
        "core.resync_self_s": self_of("core.resync"),
        "core.resync_lies_recovered": count("ctl_resync_lies_recovered"),
        "core.reactions_abandoned": count("ctl_reactions_abandoned"),
        "core.fault_events": sum(calls_by_name[name] for name in fault_names),
        "core.fault_self_s": self_of(*fault_names),
        "igp.boot_s": self_by_name["igp.boot:duration"],
        "igp.flood_self_s": self_of("event:lsa-delivery", "event:lsa-injection", "igp.inject"),
        "igp.flood_msgs": count("flood_messages_sent"),
        "igp.flood_dup_share": _share(count("flood_duplicates_suppressed"), count("flood_deliveries")),
        "igp.lsas_dropped": count("flood_messages_dropped"),
        "igp.spf_runs": count("spf_runs"),
        "igp.spf_event_self_s": self_of("event:spf"),
        "igp.graph_build_self_s": self_of("igp.graph_build"),
        "igp.spf_self_s": self_of("igp.spf"),
        "igp.ribfib_self_s": self_of("igp.ribfib"),
        "igp.spf_incremental_share": _share(count("spf_incremental_updates"), spf_lookups),
        "igp.spf_cache_hit_share": _share(count("spf_cache_hits"), spf_lookups),
        "igp.rib_reuse_share": _share(
            count("rib_prefixes_reused"), count("rib_prefixes_reused") + count("rib_prefixes_repaired")
        ),
        "igp.rib_fallbacks": count("rib_fallbacks"),
        "igp.fib_installs": count("fib_installs"),
        "igp.fib_install_self_s": self_of("event:fib-install"),
        "igp.static_fibs_self_s": self_of("igp.static_fibs"),
        "dataplane.arrivals_self_s": self_of("dataplane.arrivals"),
        "dataplane.reroute_self_s": self_of("dataplane.reroute"),
        "dataplane.pathwalk_self_s": self_of("dataplane.pathwalk"),
        "dataplane.waterfill_self_s": self_of("dataplane.waterfill"),
        "dataplane.sample_self_s": self_of("event:dataplane-sample"),
        "dataplane.flaws_self_s": self_of("dataplane.flaws"),
        "dataplane.flows_rerouted": count("dp_flows_rerouted"),
        "dataplane.path_reuse_share": _share(dp_reused, dp_reused + dp_walked),
        "dataplane.warm_start_share": _share(
            count("dp_alloc_warm_starts"), count("dp_alloc_warm_starts") + count("dp_alloc_full")
        ),
        "dataplane.classes_rewalked": count("dp_classes_rewalked"),
        "dataplane.fallbacks": count("dp_fallbacks"),
        "video.sessions": count("sessions"),
        "video.clients": count("clients"),
        "video.arrivals_self_s": self_of("event:arrivals"),
        "video.qoe_self_s": self_by_name["video.qoe"],
        "chain.reaction_busy_ms_p50": 1000.0 * percentile(
            [self_by_chain[span[ID]] for span in reactions], 0.5
        ),
        "chain.link_event_busy_ms_p50": 1000.0 * percentile(
            [self_by_chain[span[ID]] for span in link_events], 0.5
        ),
        "bench.spans": len(spans),
        "bench.unattributed_share": _share(self_by_layer["bench"], run_wall),
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = _share(self_by_layer[layer], run_wall)
    return metrics


def median_of(per_rep: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Key-wise median over the traced reps."""
    keys = per_rep[0].keys() if per_rep else ()
    return {key: statistics.median(rep[key] for rep in per_rep) for key in keys}

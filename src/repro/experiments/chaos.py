"""A8 — chaos resilience: QoE with and without controller recovery.

The paper's central robustness argument (§5) is that Fibbing degrades
gracefully: the lies are fake LSAs *in the routers' LSDBs*, so forwarding
keeps following the lied topology even when the controller dies, and a
restarted controller re-learns its own state from the LSDB instead of
re-converging from scratch.  This experiment puts numbers on that claim by
running the full Fig. 2 closed loop (:func:`~repro.experiments.fig2.run_demo_timeseries`)
under a seeded :class:`~repro.core.chaos.FaultPlan` in three variants:

* ``"clean"`` — no faults at all; the byte-identical Fig. 2 baseline.
* ``"crash"`` — the controller crashes mid-run and never comes back.  The
  lies installed before the crash keep steering traffic (QoE holds for the
  flows they cover), but alarms fired after the crash are abandoned
  (``ctl_reactions_abandoned``) and later surges go unmitigated.
* ``"recovery"`` — same crash, plus a restart that resynchronises the
  controller from the attachment router's LSDB
  (:meth:`~repro.core.controller.FibbingController.resync`) and resumes
  reacting, recovering the QoE the crash variant loses.

The fault variants can additionally be degraded with seeded link churn
(never touching the lie anchors — an installed lie's forwarding address
must keep resolving through its anchor adjacency), per-adjacency LSA loss
and SNMP poll timeouts; the clean variant always runs at zero knobs.  Every
random draw comes from an explicit ``random.Random`` derived from the seed
by integer arithmetic, so rows are bit-identical across runs and
``PYTHONHASHSEED`` values.  ``tests/golden/chaos_recovery.json`` pins the
rows.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.core.chaos import FaultEvent, FaultPlan, build_link_churn
from repro.experiments.fig2 import run_demo_timeseries
from repro.topologies.demo import build_demo_scenario
from repro.util.errors import ValidationError

__all__ = ["CHAOS_VARIANTS", "ChaosRow", "run_chaos_resilience"]

#: The three comparison rows: the clean baseline, the unrecovered crash and
#: the crash-plus-resync run.
CHAOS_VARIANTS = ("clean", "crash", "recovery")


@dataclass(frozen=True)
class ChaosRow:
    """One variant of the chaos comparison (same seed, same workload)."""

    variant: str
    crash_time: float
    recovery_time: float
    alarms: int
    actions: int
    lies_active: int
    #: Controller-side recovery bookkeeping (``ctl_*``).
    resyncs: int
    resync_lies_recovered: int
    reactions_abandoned: int
    #: Degraded-monitoring bookkeeping: samples the alarm refused for
    #: staleness.
    suppressed_stale: int
    #: Injected chaos (``fault_*``), all zero in the clean variant.
    link_downs: int
    link_ups: int
    lsas_dropped: int
    poll_timeouts: int
    poll_omissions: int
    controller_crashes: int
    controller_restarts: int
    #: QoE — the with/without-recovery comparison the experiment is about.
    sessions: int
    smooth_sessions: int
    stalled_sessions: int
    total_stall_time: float
    peak_utilization: float
    #: One hash over the per-prefix lie digests at run end (fake-node names
    #: included), pinned by the golden snapshot.
    lie_digest: str


def _combined_digest(per_prefix: Mapping[str, str]) -> str:
    canonical = json.dumps(dict(sorted(per_prefix.items())), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_chaos_resilience(
    seed: int = 0,
    duration: float = 60.0,
    crash_time: float = 25.0,
    recovery_time: float = 45.0,
    link_churn: int = 0,
    churn_start: float = 5.0,
    churn_spacing: float = 20.0,
    churn_hold: float = 6.0,
    lsa_loss_rate: float = 0.0,
    poll_timeout_rate: float = 0.0,
    staleness_horizon: Optional[float] = None,
    variants: Sequence[str] = CHAOS_VARIANTS,
) -> List[ChaosRow]:
    """Run the demo under chaos and return one :class:`ChaosRow` per variant.

    ``crash_time`` / ``recovery_time`` place the controller crash and (in
    the ``"recovery"`` variant) the resync, relative to the experiment
    epoch; the defaults crash after the first surge's mitigation and recover
    after the second surge, so the crash variant measurably loses the QoE
    the recovery variant restores.  ``link_churn`` adds that many seeded
    fail/restore episodes (never partitioning the domain and never touching
    the lie-anchor routers), ``lsa_loss_rate`` drops flooding messages
    per-adjacency and ``poll_timeout_rate`` degrades the SNMP path —
    all applied to the fault variants only, from independent seeded
    streams.  ``staleness_horizon`` applies to every variant (at the
    default ``None`` the alarm never suppresses, keeping the clean variant
    byte-identical to the plain Fig. 2 run).
    """
    if not 0.0 < crash_time < duration:
        raise ValidationError(
            f"crash_time must fall inside the run (0, {duration}), got {crash_time}"
        )
    if not crash_time < recovery_time < duration:
        raise ValidationError(
            f"recovery_time must fall inside ({crash_time}, {duration}), "
            f"got {recovery_time}"
        )
    for variant in variants:
        if variant not in CHAOS_VARIANTS:
            raise ValidationError(
                f"unknown chaos variant {variant!r}; expected a subset of "
                f"{CHAOS_VARIANTS}"
            )

    # The churn schedule is drawn once and shared by both fault variants, so
    # crash and recovery face the *same* degraded network and differ only in
    # whether the controller comes back.  The lie anchors (the ingress
    # routers the balancer plants fake nodes at) are excluded: an installed
    # lie's forwarding address must keep resolving through its anchor
    # adjacency.
    scenario = build_demo_scenario()
    churn_events = build_link_churn(
        scenario.topology,
        random.Random(seed * 1_000_003 + 307),
        count=link_churn,
        start=churn_start,
        spacing=churn_spacing,
        hold=churn_hold,
        exclude_routers=sorted(set(scenario.server_routers.values())),
    )

    def plan_for(variant: str) -> Optional[FaultPlan]:
        if variant == "clean":
            return None
        events = list(churn_events)
        events.append(FaultEvent(time=crash_time, kind="controller_crash"))
        if variant == "recovery":
            events.append(FaultEvent(time=recovery_time, kind="controller_restart"))
        return FaultPlan(
            events=tuple(events),
            lsa_loss_rate=lsa_loss_rate,
            poll_timeout_rate=poll_timeout_rate,
            seed=seed,
        )

    rows: List[ChaosRow] = []
    for variant in variants:
        result = run_demo_timeseries(
            with_controller=True,
            duration=duration,
            seed=seed,
            fault_plan=plan_for(variant),
            staleness_horizon=staleness_horizon,
        )
        ctl = result.controller_stats
        faults = result.fault_stats
        rows.append(
            ChaosRow(
                variant=variant,
                crash_time=crash_time,
                recovery_time=recovery_time,
                alarms=len(result.alarms),
                actions=len(result.actions),
                lies_active=result.lies_active,
                resyncs=int(ctl.get("ctl_resyncs", 0)),
                resync_lies_recovered=int(ctl.get("ctl_resync_lies_recovered", 0)),
                reactions_abandoned=int(ctl.get("ctl_reactions_abandoned", 0)),
                suppressed_stale=result.alarm_suppressed_stale,
                link_downs=int(faults.get("fault_link_downs", 0)),
                link_ups=int(faults.get("fault_link_ups", 0)),
                lsas_dropped=int(faults.get("fault_lsas_dropped", 0)),
                poll_timeouts=int(faults.get("fault_poll_timeouts", 0)),
                poll_omissions=int(faults.get("fault_poll_omissions", 0)),
                controller_crashes=int(faults.get("fault_controller_crashes", 0)),
                controller_restarts=int(faults.get("fault_controller_restarts", 0)),
                sessions=result.sessions_started,
                smooth_sessions=result.qoe.smooth_sessions,
                stalled_sessions=result.qoe.stalled_sessions,
                total_stall_time=round(result.qoe.total_stall_time, 9),
                peak_utilization=round(result.peak_utilization, 9),
                lie_digest=_combined_digest(result.lie_digests),
            )
        )
    return rows

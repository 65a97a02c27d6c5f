"""Million-session flash crowds over the aggregate-demand data plane.

The Fig. 2 demo plays 62 sessions over 32 Mbit/s links.  This experiment
replays the *same* scenario shape — same topology, same weights, same
relative arrival schedule (1 : 30 : 31), same 1 Mbit/s per-session bitrate —
scaled to millions of viewers: session counts and link capacities are both
multiplied by the same factor, so every per-session quantity (fair-share
rate, buffer dynamics, stall behaviour) matches the original demo while the
offered load grows by orders of magnitude.

The run uses ``dataplane_aggregate=True``: each arrival batch is ONE demand
class routed as a population and rated through the count-weighted
progressive-filling kernel, so the cost per event is O(classes × path
groups) regardless of the session count — which is what lets a
1,000,000-session closed-loop run (controller, monitoring, QoE and all)
finish in seconds on one core.  The QoE report is class-level: one
count-weighted cohort client per arrival batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.policies import LoadBalancerPolicy
from repro.experiments.fig2 import DemoRunResult, run_demo_timeseries
from repro.topologies.demo import (
    DEMO_LINK_CAPACITY,
    DemoScenario,
    build_demo_scenario,
)
from repro.util.errors import ValidationError
from repro.video.qoe import QoeReport

__all__ = [
    "DEMO_SESSION_TOTAL",
    "FlashCrowdClassesResult",
    "build_scaled_demo_scenario",
    "run_flashcrowd_classes",
]

#: Sessions of the original Fig. 2 schedule (1 at t=0, +30 at t=15, +31 at t=35).
DEMO_SESSION_TOTAL = 62


@dataclass
class FlashCrowdClassesResult:
    """Outcome of one scaled class-level flash-crowd run.

    The run's numbers are read through from ``demo``; only the scale, the
    controller switch and the wall-clock time are this result's own.
    """

    scale: int
    with_controller: bool
    #: Wall-clock seconds of the whole closed-loop run (single core).
    wall_seconds: float
    #: The underlying Fig. 2-style result (series, counters, lie digests).
    demo: DemoRunResult

    @property
    def sessions(self) -> int:
        return self.demo.sessions_started

    @property
    def qoe(self) -> QoeReport:
        return self.demo.qoe

    @property
    def peak_utilization(self) -> float:
        return self.demo.peak_utilization

    @property
    def alarms(self) -> int:
        return len(self.demo.alarms)

    @property
    def actions(self) -> int:
        return len(self.demo.actions)

    @property
    def lies_active(self) -> int:
        return self.demo.lies_active

    @property
    def dataplane_stats(self) -> Dict[str, int]:
        return self.demo.dataplane_stats


def build_scaled_demo_scenario(sessions: int) -> DemoScenario:
    """The demo scenario with session counts and capacities scaled together.

    ``sessions`` is rounded up to the next multiple of the demo's 62-session
    schedule; every arrival batch and every link capacity is multiplied by
    the same integer factor, so per-session dynamics are unchanged while the
    population grows.
    """
    if sessions < DEMO_SESSION_TOTAL:
        raise ValidationError(
            f"sessions must be >= {DEMO_SESSION_TOTAL} (one demo schedule), got {sessions}"
        )
    scale = math.ceil(sessions / DEMO_SESSION_TOTAL)
    base = build_demo_scenario(capacity=DEMO_LINK_CAPACITY * scale)
    return DemoScenario(
        topology=base.topology,
        blue_prefix=base.blue_prefix,
        server_routers=base.server_routers,
        controller_attachment=base.controller_attachment,
        static_demands=base.static_demands,
        monitored_links=base.monitored_links,
        flow_schedule=tuple(
            (event_time, server, count * scale)
            for event_time, server, count in base.flow_schedule
        ),
        video_bitrate=base.video_bitrate,
        link_capacity=base.link_capacity,
    )


def run_flashcrowd_classes(
    sessions: int = 1_000_000,
    with_controller: bool = True,
    duration: float = 60.0,
    video_duration: float = 90.0,
    policy: LoadBalancerPolicy = LoadBalancerPolicy(),
    hash_salt: int = 0,
    seed: Optional[int] = None,
) -> FlashCrowdClassesResult:
    """Run the scaled Fig. 2-style flash crowd on the aggregate data plane.

    A pure function of its arguments (``seed`` draws the ECMP hash salt,
    as in :func:`~repro.experiments.fig2.run_demo_timeseries`); the
    returned ``wall_seconds`` is the only non-deterministic field.
    """
    scenario = build_scaled_demo_scenario(sessions)
    scale = math.ceil(sessions / DEMO_SESSION_TOTAL)
    start = time.perf_counter()
    demo = run_demo_timeseries(
        with_controller=with_controller,
        duration=duration,
        video_duration=video_duration,
        policy=policy,
        scenario=scenario,
        hash_salt=hash_salt,
        dataplane_aggregate=True,
        seed=seed,
    )
    wall_seconds = time.perf_counter() - start
    return FlashCrowdClassesResult(
        scale=scale, with_controller=with_controller, wall_seconds=wall_seconds, demo=demo
    )

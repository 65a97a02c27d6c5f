"""Fleet-scale parallel sweep harness with ``BENCH_*.json`` artifacts.

The paper's evaluation is a *grid* of runs — seeds × topologies × wave
sizes for Fig. 1/Fig. 2, the A2/A3 scaling rows — and every run is
embarrassingly parallel with respect to the others.  This module turns the
``experiments/`` harnesses into a declarative grid executor:

* :class:`GridSpec` / :class:`SweepGrid` declare the grid (experiment ×
  seeds × parameter choices); :meth:`SweepGrid.expand` produces a
  deterministic, ordered list of :class:`RunSpec` runs.
* :class:`SweepHarness` executes the runs serially or through a process
  pool (``parallel="serial" | "process"``).  Every cache lineage an
  experiment builds (``SpfCache``/``RibCache``/``PlanCache``, engine path
  caches) is created *inside* the run, so each worker process owns its
  lineages outright and no cache state crosses process boundaries; every
  run derives its randomness from an explicit ``random.Random(seed)``
  threaded through the experiment entry points, never from module-level
  RNG state — so results are independent of which worker executes a run
  and in what order.
* :class:`SweepReport` merges the per-run counter snapshots (the same
  ``spf_*``/``rib_*``/``dp_*``/``ctl_*`` key space that
  :func:`repro.monitoring.counters.collect_counters` aggregates within one
  run) plus per-run wall-clock timings into one report, and saves it as a
  machine-readable ``BENCH_<name>.json`` (schema:
  :data:`repro.util.artifacts.BENCH_SCHEMA`; ``make bench-record`` writes
  the tracked copy at the repository root) so the perf trajectory is
  tracked across PRs.

Determinism is the contract: each run's ``digest`` hashes its result rows
with wall-clock fields stripped, so for the same grid + seeds the per-run
digests and the merged counters are byte-identical between
``parallel="serial"`` and ``parallel="process"`` — ``repro sweep --check``
(and the CI smoke) verifies exactly that.  A failed run fails the whole
sweep with the worker's traceback embedded in the :class:`SweepError`;
worker failures are never silently dropped.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.util.artifacts import bench_json_path, write_bench_json
from repro.util.counters import Number, merge_snapshots
from repro.util.errors import SweepError

__all__ = [
    "PARALLEL_MODES",
    "EXPERIMENTS",
    "SWEEPS",
    "Experiment",
    "GridSpec",
    "SweepGrid",
    "RunSpec",
    "RunResult",
    "SweepHarness",
    "SweepReport",
    "register_experiment",
    "merge_counter_snapshots",
    "run_digest",
]

#: Accepted values of the ``parallel=`` knob.
PARALLEL_MODES = ("serial", "process")


# --------------------------------------------------------------------- #
# Result digests and counter merging
# --------------------------------------------------------------------- #
def _strip_timings(value):
    """Drop wall-clock fields (``*seconds``) from a row tree.

    Timings legitimately differ between serial and parallel executions of
    the same run; everything else must not.  The digest therefore covers
    the rows with timing keys removed, recursively.
    """
    if isinstance(value, Mapping):
        return {
            key: _strip_timings(item)
            for key, item in value.items()
            if not str(key).endswith("seconds")
        }
    if isinstance(value, (list, tuple)):
        return [_strip_timings(item) for item in value]
    return value


def run_digest(rows: Sequence[Mapping[str, object]]) -> str:
    """SHA-256 over the canonical JSON of ``rows`` with timings stripped."""
    canonical = json.dumps(_strip_timings(list(rows)), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def merge_counter_snapshots(
    snapshots: Iterable[Mapping[str, Number]]
) -> Dict[str, Number]:
    """Key-wise sum of per-run counter snapshots (sorted keys).

    The within-run mirror of this is
    :func:`repro.monitoring.counters.collect_counters`'s ``"total"`` entry;
    here the same counter key space is merged *across* runs of a sweep.
    """
    return dict(sorted(merge_snapshots(snapshots).items()))


# --------------------------------------------------------------------- #
# Experiment registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Experiment:
    """One sweepable experiment: a pure ``fn(seed, params)`` entry point.

    ``fn`` must return ``(rows, counters)`` — a list of JSON-serialisable
    row mappings and a flat ``{counter: int}`` snapshot — and must derive
    all randomness from an explicit ``random.Random(seed)`` (no module-level
    RNG), so a run is a pure function of ``(seed, params)`` regardless of
    which pool worker executes it.
    """

    name: str
    fn: Callable[[int, Dict[str, object]], Tuple[List[Mapping[str, object]], Dict[str, int]]]
    description: str = ""


def _lie_scaling_experiment(seed, params):
    """A2 — lie-count scaling (seed feeds topology + demand generation)."""
    from repro.experiments.scaling import run_lie_scaling

    rows = run_lie_scaling(seed=seed, **params)
    counters = merge_counter_snapshots(
        {
            "lies_without_merger": row.lies_without_merger,
            "lies_with_merger": row.lies_with_merger,
        }
        for row in rows
    )
    return [asdict(row) for row in rows], counters


def _split_approx_experiment(seed, params):
    """A3 — split-approximation error (seed draws the sampled targets)."""
    from repro.experiments.scaling import run_split_approximation

    rows = run_split_approximation(seed=seed, **params)
    return [asdict(row) for row in rows], {"split_tables": len(rows)}


def _flashcrowd_classes_experiment(seed, params):
    """Scaled class-level flash crowd (seed draws the ECMP hash salt)."""
    from repro.experiments.flashcrowd_classes import run_flashcrowd_classes

    result = run_flashcrowd_classes(seed=seed, keep_demo_result=False, **params)
    row = {
        "sessions": result.sessions,
        "scale": result.scale,
        "smooth_sessions": result.qoe.smooth_sessions,
        "stalled_sessions": result.qoe.stalled_sessions,
        "total_stall_time": round(result.qoe.total_stall_time, 9),
        "peak_utilization": round(result.peak_utilization, 9),
        "alarms": result.alarms,
        "actions": result.actions,
        "lies_active": result.lies_active,
        "wall_seconds": result.wall_seconds,
    }
    counters = {
        key: value
        for key, value in result.dataplane_stats.items()
        if isinstance(value, int)
    }
    return [row], counters


def _fig2_experiment(seed, params):
    """Fig. 2 — the full closed-loop demo (seed draws the flow hash salt)."""
    from repro.experiments.fig2 import run_demo_timeseries

    result = run_demo_timeseries(seed=seed, **params)
    row = {
        "lies_active": result.lies_active,
        "alarms": len(result.alarms),
        "actions": len(result.actions),
        "sessions": result.sessions_started,
        "smooth_sessions": result.qoe.smooth_sessions,
        "total_stall_time": round(result.qoe.total_stall_time, 9),
        "peak_utilization": round(result.peak_utilization, 9),
        "controller_messages": result.controller_messages,
        "final_throughput": {
            f"{source}-{target}": round(result.final_throughput(source, target), 6)
            for source, target in result.scenario.monitored_links
        },
    }
    counters = merge_counter_snapshots(
        [
            {
                key: value
                for key, value in {
                    **result.dataplane_stats,
                    **result.controller_stats,
                }.items()
                if isinstance(value, int)
            }
        ]
    )
    return [row], counters


def _reaction_experiment(seed, params):
    """A7 — asynchronous control-loop reaction-time curves."""
    from repro.experiments.reaction import run_reaction_curves

    rows = run_reaction_curves(seed=seed, **params)
    counters = merge_counter_snapshots(
        {
            "ctl_reactions_deferred": row.reactions_deferred,
            "ctl_supersessions": row.supersessions,
            "ctl_transient_loops": row.transient_loops,
            "ctl_transient_blackholes": row.transient_blackholes,
            "ctl_converge_events": row.converge_events,
        }
        for row in rows
    )
    return [asdict(row) for row in rows], counters


def _chaos_experiment(seed, params):
    """A8 — chaos resilience: QoE with and without controller recovery."""
    from repro.experiments.chaos import run_chaos_resilience

    rows = run_chaos_resilience(seed=seed, **params)
    counters = merge_counter_snapshots(
        {
            "ctl_resyncs": row.resyncs,
            "ctl_resync_lies_recovered": row.resync_lies_recovered,
            "ctl_reactions_abandoned": row.reactions_abandoned,
            "fault_link_downs": row.link_downs,
            "fault_link_ups": row.link_ups,
            "fault_lsas_dropped": row.lsas_dropped,
            "fault_poll_timeouts": row.poll_timeouts,
            "fault_poll_omissions": row.poll_omissions,
            "fault_controller_crashes": row.controller_crashes,
            "fault_controller_restarts": row.controller_restarts,
        }
        for row in rows
    )
    return [asdict(row) for row in rows], counters


def _selftest_fail_experiment(seed, params):
    """Always raises — proves worker failures surface with their traceback.

    Registered (instead of monkey-patched in tests) so it is importable in
    fresh pool workers under any multiprocessing start method.
    """
    raise RuntimeError(f"sweep selftest failure (seed={seed}, params={params})")


#: The sweepable experiments, by grid name.
EXPERIMENTS: Dict[str, Experiment] = {}


def register_experiment(name: str, fn, description: str = "") -> Experiment:
    """Register a sweepable experiment (overwriting is an error)."""
    if name in EXPERIMENTS:
        raise SweepError(f"experiment {name!r} is already registered")
    experiment = Experiment(name=name, fn=fn, description=description)
    EXPERIMENTS[name] = experiment
    return experiment


register_experiment("lie-scaling", _lie_scaling_experiment, "A2 lie-count scaling")
register_experiment(
    "split-approx", _split_approx_experiment, "A3 split-approximation error"
)
register_experiment("fig2", _fig2_experiment, "Fig. 2 closed-loop demo run")
register_experiment(
    "flashcrowd-classes",
    _flashcrowd_classes_experiment,
    "scaled class-level flash crowd on the aggregate data plane",
)
register_experiment(
    "reaction", _reaction_experiment, "A7 asynchronous control-loop reaction times"
)
register_experiment(
    "chaos", _chaos_experiment, "A8 chaos resilience with/without controller recovery"
)
register_experiment(
    "selftest-fail", _selftest_fail_experiment, "harness self-test: always raises"
)


# --------------------------------------------------------------------- #
# Grid declaration and expansion
# --------------------------------------------------------------------- #
def _freeze(value):
    """Normalise a parameter choice to a hashable, picklable shape."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class GridSpec:
    """One experiment's axis of the grid: seeds × per-parameter choices."""

    experiment: str
    seeds: Tuple[int, ...]
    #: ``((name, (choice, ...)), ...)`` — sorted by name, expansion order.
    params: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()

    @staticmethod
    def build(experiment: str, seeds: Sequence[int], **params) -> "GridSpec":
        """Declarative constructor: each keyword maps to its choice list."""
        if not seeds:
            raise SweepError(f"grid for {experiment!r} needs at least one seed")
        frozen = []
        for name in sorted(params):
            choices = params[name]
            if not isinstance(choices, (list, tuple)) or not choices:
                raise SweepError(
                    f"grid parameter {name!r} of {experiment!r} needs a non-empty "
                    f"list of choices, got {choices!r}"
                )
            frozen.append((name, tuple(_freeze(choice) for choice in choices)))
        return GridSpec(
            experiment=experiment,
            seeds=tuple(int(seed) for seed in seeds),
            params=tuple(frozen),
        )

    def expand(self) -> List[Tuple[int, Tuple[Tuple[str, object], ...]]]:
        """All (seed, params) combinations, in deterministic order.

        Parameter choices vary fastest (cartesian product in sorted-name
        order), seeds slowest — so "2 seeds × 2 grid points" enumerates as
        seed0/point0, seed0/point1, seed1/point0, seed1/point1.
        """
        names = [name for name, _choices in self.params]
        choice_lists = [choices for _name, choices in self.params]
        combos = [
            tuple(zip(names, values))
            for values in itertools.product(*choice_lists)
        ]
        return [(seed, combo) for seed in self.seeds for combo in combos]

    def to_payload(self) -> Dict[str, object]:
        """JSON-friendly form for the ``BENCH_*.json`` grid section."""
        return {
            "experiment": self.experiment,
            "seeds": list(self.seeds),
            "params": {name: list(choices) for name, choices in self.params},
        }


@dataclass(frozen=True)
class SweepGrid:
    """A named collection of :class:`GridSpec` axes — one whole sweep."""

    name: str
    specs: Tuple[GridSpec, ...]

    def expand(self) -> List["RunSpec"]:
        """The full ordered run list (spec order, then each spec's order)."""
        runs: List[RunSpec] = []
        for spec in self.specs:
            if spec.experiment not in EXPERIMENTS:
                raise SweepError(
                    f"sweep {self.name!r} references unknown experiment "
                    f"{spec.experiment!r}; registered: {sorted(EXPERIMENTS)}"
                )
            for seed, params in spec.expand():
                runs.append(
                    RunSpec(
                        index=len(runs),
                        experiment=spec.experiment,
                        seed=seed,
                        params=params,
                    )
                )
        return runs

    def to_payload(self) -> List[Dict[str, object]]:
        return [spec.to_payload() for spec in self.specs]


@dataclass(frozen=True)
class RunSpec:
    """One fully-instantiated run of the grid (picklable, primitives only)."""

    index: int
    experiment: str
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def label(self) -> str:
        """Human-readable run id, e.g. ``lie-scaling[seed=1, pops=2]``."""
        parts = [f"seed={self.seed}"]
        parts.extend(f"{name}={value}" for name, value in self.params)
        return f"{self.experiment}[{', '.join(parts)}]"


# --------------------------------------------------------------------- #
# Worker body
# --------------------------------------------------------------------- #
def _execute_run(spec: RunSpec) -> Dict[str, object]:
    """Execute one run (possibly in a pool worker) and package the result.

    Never raises: failures come back as an ``error`` traceback string, so
    the harness can fail the sweep with the *original* worker traceback
    instead of an opaque pool exception.  All caches the experiment builds
    live and die inside this call — per-worker lineages by construction.
    """
    start = time.perf_counter()
    try:
        experiment = EXPERIMENTS[spec.experiment]
        rows, counters = experiment.fn(spec.seed, spec.params_dict)
        rows = [dict(row) for row in rows]
        return {
            "index": spec.index,
            "experiment": spec.experiment,
            "seed": spec.seed,
            "params": spec.params_dict,
            "rows": rows,
            "counters": {key: int(value) for key, value in counters.items()},
            "digest": run_digest(rows),
            "seconds": time.perf_counter() - start,
            "error": None,
        }
    except BaseException:
        return {
            "index": spec.index,
            "experiment": spec.experiment,
            "seed": spec.seed,
            "params": spec.params_dict,
            "rows": [],
            "counters": {},
            "digest": None,
            "seconds": time.perf_counter() - start,
            "error": traceback.format_exc(),
        }


# --------------------------------------------------------------------- #
# Harness and report
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunResult:
    """One completed run: spec echo, result rows, counters, digest, timing."""

    index: int
    experiment: str
    seed: int
    params: Dict[str, object]
    rows: List[Dict[str, object]]
    counters: Dict[str, int]
    digest: str
    seconds: float

    def key(self) -> str:
        """Stable identity of the run within a grid (digest comparisons)."""
        return json.dumps(
            {"experiment": self.experiment, "seed": self.seed, "params": self.params},
            sort_keys=True,
            default=str,
        )

    def to_payload(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "params": self.params,
            "digest": self.digest,
            "seconds": self.seconds,
            "counters": self.counters,
            "rows": self.rows,
        }


@dataclass(frozen=True)
class SweepReport:
    """Merged outcome of one sweep; serialises to ``BENCH_<name>.json``."""

    name: str
    parallel: str
    grid: List[Dict[str, object]]
    runs: List[RunResult]
    merged_counters: Dict[str, int]
    total_seconds: float

    @property
    def sweep_digest(self) -> str:
        """One hash over the per-run digests + merged counters.

        Wall-clock never enters, so serial and parallel executions of the
        same grid produce the same sweep digest — the cheap cross-PR and
        cross-mode comparison handle.
        """
        canonical = json.dumps(
            {
                "digests": [run.digest for run in self.runs],
                "merged_counters": self.merged_counters,
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def determinism_diff(self, other: "SweepReport") -> List[str]:
        """Where this report and ``other`` disagree on deterministic output.

        Compares per-run digests (matched by run identity) and the merged
        counters; timings are expected to differ and are ignored.  Empty
        list = the two executions are equivalent.
        """
        problems: List[str] = []
        if len(self.runs) != len(other.runs):
            problems.append(
                f"run counts differ: {len(self.runs)} vs {len(other.runs)}"
            )
            return problems
        for mine, theirs in zip(self.runs, other.runs):
            if mine.key() != theirs.key():
                problems.append(
                    f"run order differs at #{mine.index}: {mine.key()} vs {theirs.key()}"
                )
            elif mine.digest != theirs.digest:
                problems.append(
                    f"digest mismatch for {mine.experiment}[seed={mine.seed}]: "
                    f"{mine.digest} ({self.parallel}) vs {theirs.digest} ({other.parallel})"
                )
            elif mine.counters != theirs.counters:
                problems.append(
                    f"counter mismatch for {mine.experiment}[seed={mine.seed}]"
                )
        if self.merged_counters != other.merged_counters:
            problems.append("merged counters differ")
        return problems

    def to_payload(self) -> Dict[str, object]:
        return {
            "parallel": self.parallel,
            "grid": self.grid,
            "run_count": len(self.runs),
            "total_seconds": self.total_seconds,
            "merged_counters": self.merged_counters,
            "sweep_digest": self.sweep_digest,
            "runs": [run.to_payload() for run in self.runs],
        }

    def metrics(self) -> Dict[str, float]:
        """Scalar measurements for the artifact's ``metrics`` mapping."""
        metrics: Dict[str, float] = {
            "run_count": float(len(self.runs)),
            "total_seconds": float(self.total_seconds),
        }
        for key, value in self.merged_counters.items():
            metrics[f"counter_{key}"] = float(value)
        return metrics

    def save(self, directory=None):
        """Write ``BENCH_<name>.json`` (``benchmarks/out/`` by default); returns the path."""
        return write_bench_json(
            self.name, "sweep", self.to_payload(), directory, metrics=self.metrics()
        )

    def json_path(self, directory=None):
        return bench_json_path(self.name, directory)


class SweepHarness:
    """Expands a :class:`SweepGrid` and executes it across a worker pool."""

    def __init__(
        self,
        grid: SweepGrid,
        parallel: str = "process",
        max_workers: Optional[int] = None,
    ) -> None:
        if parallel not in PARALLEL_MODES:
            raise SweepError(
                f"parallel must be one of {PARALLEL_MODES}, got {parallel!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise SweepError(f"max_workers must be >= 1, got {max_workers}")
        self.grid = grid
        self.parallel = parallel
        self.max_workers = max_workers

    def expand(self) -> List[RunSpec]:
        """The ordered run list this harness will execute."""
        return self.grid.expand()

    def run(self) -> SweepReport:
        """Execute every run, merge counters, and return the report.

        Any failed run raises :class:`SweepError` carrying the worker's
        traceback; the sweep never silently drops a run.
        """
        specs = self.expand()
        start = time.perf_counter()
        if self.parallel == "serial" or len(specs) <= 1:
            payloads = [_execute_run(spec) for spec in specs]
        else:
            workers = min(len(specs), self.max_workers or os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_execute_run, spec) for spec in specs]
                payloads = [future.result() for future in futures]
        for spec, payload in zip(specs, payloads):
            if payload["error"] is not None:
                raise SweepError(
                    f"sweep {self.grid.name!r} run {spec.label()} failed in a "
                    f"{self.parallel} worker:\n{payload['error']}"
                )
        runs = [
            RunResult(
                index=payload["index"],
                experiment=payload["experiment"],
                seed=payload["seed"],
                params=payload["params"],
                rows=payload["rows"],
                counters=payload["counters"],
                digest=payload["digest"],
                seconds=payload["seconds"],
            )
            for payload in payloads
        ]
        return SweepReport(
            name=self.grid.name,
            parallel=self.parallel,
            grid=self.grid.to_payload(),
            runs=runs,
            merged_counters=merge_counter_snapshots(run.counters for run in runs),
            total_seconds=time.perf_counter() - start,
        )


# --------------------------------------------------------------------- #
# Predefined sweeps
# --------------------------------------------------------------------- #
#: The default cross-PR trajectory sweep: every scaling ablation plus the
#: closed-loop Fig. 2 demo, across seeds.  ``make sweep`` runs this.
_DEFAULT_SWEEP = SweepGrid(
    name="default",
    specs=(
        GridSpec.build("lie-scaling", seeds=(0, 1), core_sizes=[(4,)], pops=[2]),
        GridSpec.build("fig2", seeds=(0, 1), duration=[25.0]),
        GridSpec.build(
            "flashcrowd-classes", seeds=(0, 1), sessions=[62_000, 1_000_000]
        ),
        GridSpec.build(
            "reaction",
            seeds=(0,),
            duration=[40.0],
            poll_intervals=[(0.5, 1.0, 2.0)],
            reaction_latencies=[(0.0, 0.5)],
            spf_delays=[(0.05, 0.2)],
        ),
        GridSpec.build(
            "chaos",
            seeds=(0, 1),
            link_churn=[0, 2],
            lsa_loss_rate=[0.02],
            poll_timeout_rate=[0.1],
            staleness_horizon=[5.0],
        ),
    ),
)

#: The CI smoke sweep (``BENCH_QUICK``): 2 seeds × 2 grid points per axis.
_QUICK_SWEEP = SweepGrid(
    name="quick",
    specs=(
        GridSpec.build(
            "lie-scaling", seeds=(0, 1), core_sizes=[(4,)], pops=[2], destinations=[2, 3]
        ),
        GridSpec.build(
            "flashcrowd-classes", seeds=(0,), sessions=[6_200], duration=[25.0]
        ),
        GridSpec.build(
            "reaction",
            seeds=(0,),
            duration=[25.0],
            poll_intervals=[(0.5, 1.0)],
            reaction_latencies=[(0.0, 0.5)],
            spf_delays=[(0.05,)],
        ),
        GridSpec.build(
            "chaos",
            seeds=(0,),
            link_churn=[1],
            lsa_loss_rate=[0.02],
            poll_timeout_rate=[0.1],
            staleness_horizon=[5.0],
        ),
    ),
)

#: Predefined sweeps selectable from the CLI (``repro sweep --sweep NAME``).
SWEEPS: Dict[str, SweepGrid] = {
    grid.name: grid for grid in (_DEFAULT_SWEEP, _QUICK_SWEEP)
}

"""The benchmark command.

``python3 perf/run.py --seed 0`` runs the four workloads (untraced reps for
the end-to-end numbers, then one traced rep each for the layer breakdown),
prints every metric by name with its unit, checks the outputs and writes
``perf/out/result.json``.  With ``--workload NAME`` it runs that workload
alone and ends its output with the one-line JSON result the benchmark
driver reads (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer).

Each workload is measured in a fresh child interpreter with a scrubbed
environment, one thread; the child runs a discarded smoke-size warm-up rep
(it loads every code path), then timed reps until ``--seconds`` have
passed, each rep building a fresh world.  Exit status is non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is perf/ itself, whose trace.py would
    # shadow the standard library's.  Import `perf` as a package instead.
    sys.path[0] = str(ROOT)

from perf.metrics import (  # noqa: E402  (needs the path fix above)
    COMPARE_ONLY, END_TO_END, LAYERS, PER_LAYER, WORKLOADS,
    layer_metrics, median_of, percentile, summarize,
)

OUT = ROOT / "perf" / "out"
MIN_REPS = 3
DEFAULT_SECONDS = 20.0


# ---------------------------------------------------------------------- #
# Child: measure one workload in this interpreter
# ---------------------------------------------------------------------- #
def measure(workload: str, seed: int, scale_name: str, untraced_s: float,
            traced_s: Optional[float], out: Path) -> Dict[str, object]:
    """Untraced reps for ``untraced_s`` seconds, then (unless ``traced_s`` is
    ``None``) traced reps for ``traced_s`` seconds, at least one."""
    from perf.trace import Tracer
    from perf.worlds import SIZES, run_rep

    scale = SIZES[scale_name]
    run_rep(workload, seed, SIZES["smoke"])

    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < untraced_s:
        gc.collect()
        reps.append(run_rep(workload, seed, scale))
    # ru_maxrss is a high-water mark: read before tracing adds its spans.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced_reps = []
    traced: List[Dict[str, float]] = []
    if traced_s is not None:
        started = time.perf_counter()
        while not traced_reps or time.perf_counter() - started < traced_s:
            gc.collect()
            tracer = Tracer()
            tracer.install()
            try:
                rep = run_rep(workload, seed, scale, tracer)
            finally:
                tracer.uninstall()
            traced_reps.append(rep)
            if not rep.failures:
                traced.append(layer_metrics(tracer.spans, rep.counters))
        out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out / f"trace-{workload}.jsonl")

    good = [rep for rep in reps if not rep.failures]
    every = reps + traced_reps
    digests = sorted({rep.output_digest for rep in every if not rep.failures})
    failures = [failure for rep in every for failure in rep.failures]
    if len(digests) > 1:
        failures.append(f"output_digest differs between reps of one run: {digests}")
    attempted = len(every) + sum(len(rep.reaction_ms) for rep in every)
    failed = sum(1 for rep in every if rep.failures)

    samples = {
        "setup_s": [rep.setup_s for rep in good],
        "run_wall_s": [rep.run_wall_s for rep in good],
        "reaction_ms_p50": [percentile(rep.reaction_ms, 0.5) for rep in good],
        "peak_rss_mb": [peak_rss_mb],
        "smooth_share": [rep.smooth_share for rep in good],
        "stall_s": [rep.stall_s for rep in good],
        "fail_share": [failed / attempted],
    }
    end_to_end = {name: summarize(values) for name, values in samples.items()}

    per_layer: Dict[str, float] = {}
    if traced:
        per_layer = median_of(traced)
        traced_wall = percentile([rep.run_wall_s for rep in traced_reps if not rep.failures], 0.5)
        untraced_wall = end_to_end["run_wall_s"]["median"]
        per_layer["bench.trace_overhead_pct"] = (
            100.0 * (traced_wall / untraced_wall - 1.0) if untraced_wall else 0.0
        )
        per_layer["bench.fail_share"] = failed / attempted
        per_layer["video.stall_s"] = end_to_end["stall_s"]["median"]
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale_name,
        "reps": len(reps),
        "traced_reps": len(traced_reps),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "output_digest": digests[0] if len(digests) == 1 else "",
        "end_to_end": end_to_end,
        "samples": samples,
        "per_layer": per_layer,
    }


# ---------------------------------------------------------------------- #
# Parent: one clean child per workload, then report
# ---------------------------------------------------------------------- #
def child_environment() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in ("REPRO_KERNEL", "BENCH_QUICK")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
    )
    return env


def run_child(workload: str, seed: int, scale: str, untraced_s: float,
              traced_s: Optional[float], out: Path) -> Dict[str, object]:
    command = [
        sys.executable, "-m", "perf.run", "--child", "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--seconds", repr(untraced_s), "--out", str(out),
    ]
    if traced_s is not None:
        command += ["--traced-seconds", repr(traced_s)]
    done = subprocess.run(
        command, cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def host_stamp() -> Dict[str, object]:
    import numpy
    import scipy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git": revision,
    }


def print_report(result: Dict[str, object]) -> None:
    print(f"== {result['workload']}  seed={result['seed']} scale={result['scale']} "
          f"reps={result['reps']} traced_reps={result['traced_reps']} "
          f"output_digest={str(result['output_digest'])[:16] or '-'}")
    for metric in END_TO_END + COMPARE_ONLY:
        stats = result["end_to_end"][metric.name]
        print(f"  {metric.name:<32} {stats['median']:>14.6g} {metric.unit:<6} "
              f"n={stats['n']} min={stats['min']:.6g} p25={stats['p25']:.6g} p75={stats['p75']:.6g}")
    for metric in PER_LAYER:
        if metric.name in result["per_layer"]:
            print(f"  {metric.name:<32} {result['per_layer'][metric.name]:>14.6g} {metric.unit}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}")


def print_where_the_time_goes(results: List[Dict[str, object]]) -> None:
    """The README's table: share of each traced run's wall-clock per layer."""
    print("\n| workload | " + " | ".join(LAYERS) + " | unattributed | trace overhead |")
    print("|---|" + "---:|" * (len(LAYERS) + 2))
    for result in results:
        layers = result["per_layer"]
        if not layers:
            continue
        cells = [f"{100 * layers[f'share.{layer}']:.1f} %" for layer in LAYERS]
        cells.append(f"{100 * layers['bench.unattributed_share']:.1f} %")
        cells.append(f"{layers['bench.trace_overhead_pct']:+.1f} %")
        print(f"| `{result['workload']}` | " + " | ".join(cells) + " |")


def driver_line(result: Dict[str, object], traced: bool) -> str:
    """The last line of output in ``--workload`` mode (the driver's contract)."""
    if traced:
        metrics = {
            metric.name: {"value": result["per_layer"][metric.name], "unit": metric.unit}
            for metric in PER_LAYER
        }
    else:
        metrics = {
            metric.name: {"value": result["end_to_end"][metric.name]["median"], "unit": metric.unit}
            for metric in END_TO_END
        }
    return json.dumps(
        {
            "correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 splits --seconds between an untraced and a traced pass "
                             "and reports the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace-only", action="store_true",
                        help="all workloads, minimal untraced pass, traced for --seconds")
    parser.add_argument("--out", type=Path, default=OUT,
                        help="where result.json and the traces go (default: perf/out, untracked)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced-seconds", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}: no src/repro here, nothing to measure")
    out = args.out.resolve()
    if args.child:
        print(json.dumps(measure(args.workload, args.seed, args.scale, args.seconds,
                                 args.traced_seconds, out)))
        return 0

    if args.workload:
        untraced_s, traced_s = (args.seconds / 2, args.seconds / 2) if args.trace else (args.seconds, None)
        result = run_child(args.workload, args.seed, args.scale, untraced_s, traced_s, out)
        print_report(result)
        print(driver_line(result, traced=bool(args.trace)))
        return 1 if result["failures"] else 0

    untraced_s, traced_s = (0.0, args.seconds) if args.trace_only else (args.seconds, 0.0)
    results = []
    for workload in WORKLOADS:
        results.append(run_child(workload, args.seed, args.scale, untraced_s, traced_s, out))
        print_report(results[-1])
    print_where_the_time_goes(results)
    out.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": "perf-result/1",
        "host": host_stamp(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "workloads": {result["workload"]: result for result in results},
    }
    (out / "result.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    failed = [result["workload"] for result in results if result["failures"]]
    print(f"\nwrote {out / 'result.json'}" + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

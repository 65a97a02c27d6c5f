"""Command-line interface: regenerate any of the paper's experiments.

Every sub-command runs one experiment harness from :mod:`repro.experiments`
and prints the resulting rows/series, so the paper's figures can be
regenerated without touching pytest::

    python -m repro fig1                 # Fig. 1b vs Fig. 1d link loads
    python -m repro fig2                 # Fig. 2 throughput time series
    python -m repro qoe                  # §3 smooth-vs-stutter comparison
    python -m repro overhead             # §2 Fibbing vs MPLS overhead
    python -m repro optimality           # §2 gap to the min-max optimum
    python -m repro lie-scaling          # ablation A2
    python -m repro split-approx         # ablation A3
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Optional, Sequence

__all__ = ["main", "build_parser"]


def _print_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    print("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    print("  ".join("-" * width for width in widths))
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


# --------------------------------------------------------------------- #
# Sub-command implementations
# --------------------------------------------------------------------- #
def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.fig1 import run_fig1

    baseline = run_fig1(with_fibbing=False)
    fibbed = run_fig1(with_fibbing=True, use_controller_pipeline=args.pipeline)
    links = sorted(set(baseline.link_loads) | set(fibbed.link_loads))
    print("Fig. 1 — relative link loads (100 units per source)")
    _print_table(
        ["link", "without fibbing", "with fibbing"],
        [
            (f"{s}->{t}", f"{baseline.load_of(s, t):.1f}", f"{fibbed.load_of(s, t):.1f}")
            for s, t in links
        ],
    )
    print(f"max load: {baseline.max_load:.1f} -> {fibbed.max_load:.1f} "
          f"using {fibbed.lie_count} fake nodes")
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments.fig2 import run_demo_timeseries

    result = run_demo_timeseries(
        with_controller=not args.no_controller,
        duration=args.duration,
        poll_interval=args.poll_interval,
    )
    print("Fig. 2 — throughput [byte/s] on the monitored links")
    times = list(range(0, int(args.duration), max(1, int(args.duration) // 12)))
    rows = []
    for link in result.scenario.monitored_links:
        series = {int(round(t)): v for t, v in result.series_of(*link)}
        rows.append([f"{link[0]}-{link[1]}"] + [f"{series.get(t, 0.0):,.0f}" for t in times])
    _print_table(["link \\ t[s]"] + [str(t) for t in times], rows)
    print(f"alarms: {len(result.alarms)}, reactions: {len(result.actions)}, "
          f"active lies: {result.lies_active}")
    print(f"QoE: {result.qoe.summary()}")
    return 0


def _cmd_qoe(args: argparse.Namespace) -> int:
    from repro.experiments.fig2 import run_demo_timeseries

    enabled = run_demo_timeseries(with_controller=True, duration=args.duration)
    disabled = run_demo_timeseries(with_controller=False, duration=args.duration)
    print("§3 — QoE with and without the Fibbing controller")
    _print_table(
        ["metric", "with controller", "without"],
        [
            ("smooth sessions", f"{enabled.qoe.smooth_sessions}/{enabled.qoe.sessions}",
             f"{disabled.qoe.smooth_sessions}/{disabled.qoe.sessions}"),
            ("total stall time [s]", f"{enabled.qoe.total_stall_time:.1f}",
             f"{disabled.qoe.total_stall_time:.1f}"),
            ("mean rebuffer ratio", f"{enabled.qoe.mean_rebuffer_ratio:.1%}",
             f"{disabled.qoe.mean_rebuffer_ratio:.1%}"),
        ],
    )
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.experiments.overhead import run_overhead_comparison

    rows = run_overhead_comparison(destination_counts=tuple(args.destinations), seed=args.seed)
    print("§2 — control/data-plane overhead, Fibbing vs MPLS RSVP-TE")
    _print_table(
        ["destinations", "scheme", "state", "messages", "bytes", "per-packet", "max util"],
        [
            (row.destinations, row.scheme, row.state_entries, row.control_messages,
             row.control_bytes, row.per_packet_overhead_bytes, f"{row.max_utilization:.3f}")
            for row in rows
        ],
    )
    return 0


def _cmd_optimality(args: argparse.Namespace) -> int:
    from repro.experiments.optimality import run_optimality_study

    rows = run_optimality_study(
        seeds=tuple(range(args.seeds)), num_routers=args.routers, destinations=args.destinations
    )
    print("§2 — max utilisation vs the min-max LP optimum (random flash crowds)")
    _print_table(
        ["seed", "scheme", "max util", "optimum", "gap"],
        [
            (row.seed, row.scheme, f"{row.max_utilization:.3f}",
             f"{row.optimal_utilization:.3f}", f"{row.gap:+.1%}")
            for row in rows
        ],
    )
    return 0


def _cmd_lie_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.scaling import run_lie_scaling

    rows = run_lie_scaling(core_sizes=tuple(args.core_sizes), pops=args.pops,
                           destinations=args.destinations, seed=args.seed)
    print("A2 — lie count vs topology size")
    _print_table(
        ["core", "routers", "lies (raw)", "lies (merged)", "saved"],
        [
            (row.core_size, row.routers, row.lies_without_merger, row.lies_with_merger,
             f"{row.reduction:.0%}")
            for row in rows
        ],
    )
    return 0


def _cmd_split_approx(args: argparse.Namespace) -> int:
    from repro.experiments.scaling import run_split_approximation

    rows = run_split_approximation(table_sizes=tuple(args.table_sizes), samples=args.samples)
    print("A3 — split approximation error vs ECMP table size")
    _print_table(
        ["table size", "mean L1 error", "worst L1 error"],
        [(row.max_entries, f"{row.mean_error:.4f}", f"{row.worst_error:.4f}") for row in rows],
    )
    return 0


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of 'Fibbing in action' (SIGCOMM'16).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig1 = subparsers.add_parser("fig1", help="Fig. 1b vs Fig. 1d relative link loads")
    fig1.add_argument("--pipeline", action="store_true",
                      help="derive the lies with the controller's LP pipeline instead of the "
                           "hand-written Fig. 1c set")
    fig1.set_defaults(handler=_cmd_fig1)

    fig2 = subparsers.add_parser("fig2", help="Fig. 2 throughput time series")
    fig2.add_argument("--duration", type=float, default=60.0)
    fig2.add_argument("--poll-interval", type=float, default=1.0)
    fig2.add_argument("--no-controller", action="store_true")
    fig2.set_defaults(handler=_cmd_fig2)

    qoe = subparsers.add_parser("qoe", help="§3 smooth-vs-stutter QoE comparison")
    qoe.add_argument("--duration", type=float, default=60.0)
    qoe.set_defaults(handler=_cmd_qoe)

    overhead = subparsers.add_parser("overhead", help="§2 Fibbing vs MPLS overhead")
    overhead.add_argument("--destinations", type=int, nargs="+", default=[1, 2, 4])
    overhead.add_argument("--seed", type=int, default=0)
    overhead.set_defaults(handler=_cmd_overhead)

    optimality = subparsers.add_parser("optimality", help="§2 gap to the min-max optimum")
    optimality.add_argument("--seeds", type=int, default=3)
    optimality.add_argument("--routers", type=int, default=10)
    optimality.add_argument("--destinations", type=int, default=3)
    optimality.set_defaults(handler=_cmd_optimality)

    scaling = subparsers.add_parser("lie-scaling", help="ablation A2: lie count scaling")
    scaling.add_argument("--core-sizes", type=int, nargs="+", default=[4, 6, 8])
    scaling.add_argument("--pops", type=int, default=3)
    scaling.add_argument("--destinations", type=int, default=3)
    scaling.add_argument("--seed", type=int, default=0)
    scaling.set_defaults(handler=_cmd_lie_scaling)

    split = subparsers.add_parser("split-approx", help="ablation A3: split approximation error")
    split.add_argument("--table-sizes", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    split.add_argument("--samples", type=int, default=200)
    split.set_defaults(handler=_cmd_split_approx)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and by the tests."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

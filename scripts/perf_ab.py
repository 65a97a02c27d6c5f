"""A/B-compare the working tree against ``HEAD``: ``perf_ab.py W [--pairs N] [--seed0 S]``.

Checks ``HEAD`` out as a detached worktree under the ignored ``perf/out/``,
runs ``perf/run.py --workload W --seed S --seconds 20 --trace 0`` on both
sides in alternating pairs (pair ``i`` at seed ``seed0 + i - 1``; odd
pairs run the base first), then prints per
end-to-end metric each side's median [p25-p75], the working tree's win
count and whether every pair's ``output_digest`` matched.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perf.metrics import END_TO_END, percentile  # noqa: E402


def run(tree: Path, workload: str, seed: int):
    """One ``perf/run.py --workload`` run: ``(metric values, output digest)``."""
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "20", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"{tree}: perf/run.py exited {done.returncode}\n{done.stdout}{done.stderr}")
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    digest = re.search(r"output_digest=(\S+)", done.stdout).group(1)
    return {name: entry["value"] for name, entry in metrics.items()}, digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    base = ROOT / "perf" / "out" / ".ab-base"  # dot-named: pytest does not recurse into it
    subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, capture_output=True)
    subprocess.run(["git", "worktree", "add", "--detach", str(base), "HEAD"], cwd=ROOT, check=True)
    runs, same_digests = {"base": [], "change": []}, True
    try:
        for pair in range(args.pairs):
            seed = args.seed0 + pair
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")  # odd pairs: base first
            got = {side: run(base if side == "base" else ROOT, args.workload, seed) for side in order}
            same_digests &= got["base"][1] == got["change"][1]
            for side in runs:
                runs[side].append(got[side][0])
            print(f"pair {pair + 1} seed {seed}: run_wall_s {runs['base'][-1]['run_wall_s']:.3f} -> "
                  f"{runs['change'][-1]['run_wall_s']:.3f}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, check=True)

    print(f"\n{args.workload}: HEAD -> working tree, {args.pairs} pairs, median [p25-p75]")
    for metric in END_TO_END:
        cells = []
        for side in ("base", "change"):
            values = [values[metric.name] for values in runs[side]]
            median, p25, p75 = (percentile(values, q) for q in (0.5, 0.25, 0.75))
            cells.append(f"{median:.6g} [{p25:.6g}-{p75:.6g}]")
        sign = -1 if metric.better == "lower" else 1
        wins = sum(sign * (new[metric.name] - old[metric.name]) > 0
                   for old, new in zip(runs["base"], runs["change"]))
        print(f"  {metric.name:<16} {cells[0]:>30} -> {cells[1]:<30} {metric.unit:<6} "
              f"change better in {wins}/{args.pairs}")
    print(f"  output_digest    {'matched in every pair' if same_digests else 'DIFFERS'}")
    return 0 if same_digests else 1


if __name__ == "__main__":
    sys.exit(main())

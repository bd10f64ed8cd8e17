"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME --seeds 0-9 [--seconds S] [--trace 0|1]

Spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, and is
compared with the metric's bound from BENCHMARK.json. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} in {time.perf_counter() - t0:.1f} s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        ratio = f"{spread / bound:5.2f} of bound {bound}" if bound else ""
        if bound and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:48s} median {med:12.6g}  spread {spread:6.3f}  {ratio}")
        print("    " + " ".join(f"{v:.5g}" for v in vals))
    if bounds and args.trace == 0:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

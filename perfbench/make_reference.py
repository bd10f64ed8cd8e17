"""Recompute the seed-determined reference values in reference.json.

    python3 perfbench/make_reference.py [--seeds 0-31] [--workload NAME ...]

For each workload and seed this runs the same set-up, first episode and
first K-shot rounds as a benchmark run, with a zero-second loop, and
records ``final_loss``, ``prd_missing.*`` and ``ssd_missing.*``. Only run
it when a change to moediff is meant to change these numbers, and say so
in that change.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import REFERENCE_METRICS, REFERENCE_PATH  # noqa: E402
from perfbench.spread import _seeds  # noqa: E402
from perfbench.workloads import WORKLOADS, Run  # noqa: E402


def reference_values(workload: str, seed: int) -> dict:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as out_dir:
        run = Run(WORKLOADS[workload], seed, out_dir)
        run.set_up()
        run.loop(0)
        measured = {**run.quality(), "final_loss": run.final_loss()}
    return {name: measured[name] for name in REFERENCE_METRICS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-31"))
    p.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    table = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    for workload in args.workload:
        for seed in args.seeds:
            table.setdefault(workload, {})[str(seed)] = reference_values(workload, seed)
            print(workload, seed, table[workload][str(seed)], flush=True)
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

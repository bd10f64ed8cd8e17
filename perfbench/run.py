"""moediff benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; moediff is imported from its ``src``.
Workloads: train-toy, train-wide, impute-kshot-toy (see workloads.py).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# BLAS/OpenMP read these once, when NumPy loads: pin them before any import
# that could load it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-toy", "train-wide", "impute-kshot-toy")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "moediff" / "__init__.py").is_file():
        print(f"perfbench: moediff sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import bench

    if args.setup_probe:
        return bench.setup_probe(args)
    return bench.run_benchmark(args, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: a very short run of each workload, traced and
untraced, plus the output checks fed deliberately perturbed values.

    python3 perfbench/selftest.py

Asserts that every metric named in BENCHMARK.json is emitted with its
unit, that the checks reject a perturbed loss or reconstruction, and that
the K-shot workload's traced loop builds no tape and runs no backward.
Takes a few minutes, most of it in train-wide.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from moediff import kshot  # noqa: E402
from perfbench import checks, measures  # noqa: E402
from perfbench.spans import BOUNDARY_TARGETS, SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, Run  # noqa: E402

SEED = 0


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-2000:]}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_emitted(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result["failed"])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            if trace and WORKLOADS[workload].main == "round":
                layer = result["metrics"]
                assert layer["autodiff.backward.calls"]["value"] == 0, layer["autodiff.backward.calls"]
                assert layer["autodiff.tape_nodes_per_step"]["value"] == 0
            print(f"ok: {workload} trace={trace}: {len(got)} metrics with units", flush=True)


def check_rejections() -> None:
    """Feed the output checks of a real train-toy run perturbed outcomes."""
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as out_dir:
        run = Run(WORKLOADS["train-toy"], SEED, out_dir)
        run.set_up()
        run.loop(0)
        measured = {**run.quality(), "final_loss": run.final_loss()}

        def failures(finite, values):
            results = checks.output_checks(run, finite, values, measured, np.random.default_rng(SEED))
            return [msg for msgs in results.values() for msg in msgs]

        assert failures([True], measured) == [], failures([True], measured)
        for name in checks.REFERENCE_METRICS:
            perturbed = dict(measured)
            perturbed[name] *= 1.0 + 1e-4
            assert failures([True], perturbed), f"perturbed {name} accepted"
        # A reconstruction spoiled by one NaN weight, seen through the span
        # hook that feeds the finiteness check in a benchmark run.
        rec = SpanRecorder()
        rec.install(BOUNDARY_TARGETS)
        try:
            spoiled = copy.deepcopy(run.params)
            spoiled.head.experts[0].bias[0] = float("nan")
            kshot.kshot_average(spoiled, run.x_bar, run.sched, 1, np.random.default_rng(SEED))
        finally:
            rec.uninstall()
        finite = [ok for _, ok in rec.table().work("kshot.kshot_average")]
        assert finite == [False], finite
        assert failures(finite, measured), "non-finite reconstruction accepted"
        run.units[0].losses[-1] = float("nan")
        assert failures([True], measured), "NaN loss accepted"
    print("ok: checks reject a perturbed loss, quality value and reconstruction")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m[0] for m in measures.END_TO_END] == [m["name"] for m in spec["end_to_end"]]
    assert [m[0] for m in measures.PER_LAYER] == [m["name"] for m in spec["per_layer"]]
    assert sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    check_rejections()
    check_emitted(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

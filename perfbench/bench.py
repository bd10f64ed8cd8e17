"""One benchmark run: set-up, the closed timed loop, output checks, report.

Imported by ``run.py`` only after the BLAS/OpenMP thread variables are
pinned and the checkout's ``src`` is on the import path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import moediff
from moediff import autodiff

from . import checks, measures
from .spans import BOUNDARY_TARGETS, SpanRecorder, layer_targets
from .workloads import WORKLOADS, Run, _stream

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Fresh processes timed from spawn to the first timed operation; setup_s
# is their median.
SETUP_PROBES = 3
BOUNDARY_NAMES = {name for name, *_ in BOUNDARY_TARGETS}


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, thread_vars) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "moediff": moediff.__version__,
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "git_commit": _git_commit(),
    }


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    t0 = perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_end"] - t0


def setup_probe(args) -> int:
    rec = SpanRecorder()
    rec.install(BOUNDARY_TARGETS)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        Run(WORKLOADS[args.workload], args.seed, out_dir).set_up()
        print(json.dumps({"setup_end": perf_counter()}))
    return 0


class _Tracer:
    """Switches the layer spans on and off between units of a traced run."""

    def __init__(self, rec: SpanRecorder):
        self.rec, self.on = rec, False

    def __call__(self, on: bool) -> None:
        if on and not self.on:
            self.rec.install(layer_targets(autodiff))
            self.rec.install_backward_rules(autodiff)
        elif self.on and not on:
            self.rec.uninstall(keep=BOUNDARY_NAMES)
        self.on = on


def run_benchmark(args, thread_vars) -> int:
    w = WORKLOADS[args.workload]
    record = run_record(args, thread_vars)
    # Probes before and after the loop, so setup_s samples more than one
    # stretch of a shared machine's load.
    probes = 0 if args.trace else SETUP_PROBES
    setup_samples = [_probe_setup(w.name, args.seed) for _ in range(probes // 2)]

    rec = SpanRecorder()
    rec.install(BOUNDARY_TARGETS)
    tracer = _Tracer(rec) if args.trace else None
    if tracer:
        tracer(True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        run = Run(w, args.seed, out_dir)
        setup_t0 = perf_counter()
        run.set_up()
        wall0, cpu0 = perf_counter(), _cpu_seconds()
        run.loop(args.seconds, tracer)
        cpu_over_wall = (_cpu_seconds() - cpu0) / (perf_counter() - wall0)
        measured = {**run.quality(), "final_loss": run.final_loss()}
        expected = checks.load_reference().get(w.name, {}).get(str(args.seed))
        finite = [ok for _, ok in rec.table().work("kshot.kshot_average")]
        results = checks.output_checks(run, finite, measured, expected, np.random.default_rng(_stream(args.seed, 5)))
    setup_samples += [_probe_setup(w.name, args.seed) for _ in range(probes - probes // 2)]

    if args.trace:
        every = rec.table()
        unhooked = [s for s in measures.EXPECTED_SPANS if every.calls(s) == 0]
        results["expected spans called"] = [f"no call recorded: {', '.join(unhooked)}"] if unhooked else []
        metrics = measures.per_layer(run, rec, (setup_t0, wall0), cpu_over_wall)
        rec.save(OUT / f"trace-{w.name}-seed{args.seed}.npz")
        detail = {"spans": len(rec.start)}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, detail = measures.end_to_end(run, rec, statistics.median(setup_samples), peak_rss_mb)
        detail["setup_s_samples"] = setup_samples
    bad = [name for name, v in metrics.items() if not math.isfinite(v)]
    results["metrics finite"] = [f"non-finite: {', '.join(bad)}"] if bad else []

    # Operations are training steps and K-shot passes; a failed unit counts
    # once, and so does every output check.
    unit_failures = [u.failure for u in run.units if u.failure]
    failures = unit_failures + [msg for msgs in results.values() for msg in msgs]
    attempted = sum(u.attempted for u in run.units) + len(results)
    failed = len(unit_failures) + sum(1 for msgs in results.values() if msgs)
    record.update(detail)
    record.update(
        {
            "reference_held": expected is not None,
            "error_rate": failed / attempted,
            "failures": failures,
            "measured": measured,
        }
    )
    with open(OUT / f"record-{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("run record: " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {measures.UNITS[name]}")
    print(f"error_rate = {record['error_rate']:g} failed/attempted ({failed}/{attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": measures.UNITS[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1

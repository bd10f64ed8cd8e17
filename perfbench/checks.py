"""Output checks. Each survives a legitimate change of arithmetic order:
finiteness, agreement with held reference values within a relative
tolerance, and the paper's two inequalities on the loaded checkpoint."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from moediff import backbone, kshot

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Relative tolerance on the seed-determined quality values. A reordering of
# float64 sums moves them by ~1e-12; a changed routing decision or update
# rule moves them by far more than this.
REL_TOL = 1e-6
CONVEX_TOL = 1e-10
REFERENCE_METRICS = (
    "final_loss",
    "prd_missing.k1",
    "prd_missing.k8",
    "ssd_missing.k1",
    "ssd_missing.k8",
)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def finite_failures(label: str, values) -> list[str]:
    arr = np.asarray(values, dtype=np.float64)
    bad = int((~np.isfinite(arr)).sum())
    return [f"{label}: {bad} non-finite value(s)"] if bad else []


def reference_failures(expected: dict | None, measured: dict) -> list[str]:
    """Compare seed-determined values against the held reference for the seed."""
    if expected is None:
        return []
    out = []
    for name in REFERENCE_METRICS:
        want, got = expected[name], measured[name]
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            out.append(f"{name} = {got!r}, reference {want!r} (rel tol {REL_TOL:g})")
    return out


def convex_deviation(run, rng: np.random.Generator) -> float:
    """Fuse-then-step against step-then-combine for head-expert estimates."""
    params, x_bar = run.params, run.x_bar[:1]
    n_head = len(params.head.experts)
    x_t = rng.standard_normal(x_bar.shape)
    t = run.sched.t_steps // 2 + 1
    eps = [
        backbone.noise_estimate(x_t, x_bar, t, params, head_gates=np.eye(n_head)[j])
        for j in range(min(3, n_head))
    ]
    weights = rng.dirichlet(np.ones(len(eps)))
    z = rng.standard_normal(x_bar.shape)
    return kshot.verify_convex_combination(x_t, eps, weights, t, run.sched, z)


def jensen_margin(run, rng: np.random.Generator) -> float:
    """Jensen margin of averaging two sampled reconstructions (MSE)."""
    shots = kshot.kshot_ensemble(run.params, run.x_bar[:1], run.sched, 2, rng).shots
    return kshot.jensen_check(shots, [0.5, 0.5], run.truth[:1], kshot.ConvexLoss.mse())


def output_checks(run, reconstructions_finite, measured: dict, expected: dict | None, rng) -> dict:
    """Failure messages of each output check of a finished run; a check
    passed when its list is empty."""
    losses = [loss for u in run.units for loss in u.losses]
    scores = [v for u in run.units for row in u.rows for v in row[1:4]]
    dev = convex_deviation(run, rng)
    margin = jensen_margin(run, rng)
    bad_recons = reconstructions_finite.count(False)
    return {
        "training losses finite": finite_failures("training losses", losses),
        "K-shot scores finite": finite_failures("K-shot PRD/SSD/MAD", scores),
        "reconstructions finite": [f"{bad_recons} non-finite K-shot reconstruction(s)"] if bad_recons else [],
        "convex combination": [] if dev <= CONVEX_TOL else [f"convex-combination deviation {dev!r} > {CONVEX_TOL:g}"],
        "Jensen margin": [] if margin >= 0.0 else [f"Jensen margin {margin!r} < 0"],
        "reference values": reference_failures(expected, measured),
    }

"""Multi-run averaging baseline and executable checks of the claim that
gate-fused noise estimates are never worse than stepped-then-averaged ones.

The per-step identity (fuse estimates, then step == step each estimate,
then convex-combine) holds exactly because the reverse update is affine in
the noise estimate given a shared injected draw. The Jensen comparison and
the simplex weight sweep quantify the resulting loss ordering. Full
cross-trajectory K-shot sampling (each run drawing its own start and
noise) is only measured empirically, not asserted as an identity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .backbone import BackboneParams, condition_features
from .diffusion import NoiseSchedule, reverse_step, sample
from .tensor import as_tensor

_SIMPLEX_TOL = 1e-9
_GRID_RESOLUTION = 0.05  # weight_sweep's grid step for K <= 4
_DESCENT_ITERS, _DESCENT_STEP = 200, 0.1  # its projected descent for K > 4


@dataclass(frozen=True)
class ShotEnsemble:
    """Reconstructions from repeated sampling runs plus the seeds that
    reproduce each run."""

    shots: list
    seeds: list

    def average(self) -> np.ndarray:
        return np.mean(self.shots, axis=0)


@dataclass(frozen=True)
class ConvexLoss:
    """Convex loss evaluated on an error tensor (mean-reduced)."""

    kind: str

    @classmethod
    def mse(cls) -> "ConvexLoss":
        return cls(kind="mse")

    @classmethod
    def mae(cls) -> "ConvexLoss":
        return cls(kind="mae")

    def __call__(self, err) -> float:
        err = as_tensor(err)
        if self.kind == "mse":
            return float(np.mean(err * err))
        if self.kind == "mae":
            return float(np.mean(np.abs(err)))
        raise ValueError(f"unknown loss kind {self.kind!r}")

    def error_gradient(self, err: np.ndarray) -> np.ndarray:
        if self.kind == "mse":
            return 2.0 * err / err.size
        if self.kind == "mae":
            return np.sign(err) / err.size
        raise ValueError(f"no analytic gradient for loss kind {self.kind!r}")


def _check_simplex(weights) -> np.ndarray:
    w = as_tensor(weights).ravel()
    if (w < -_SIMPLEX_TOL).any() or abs(w.sum() - 1.0) > _SIMPLEX_TOL:
        raise ValueError(
            f"weights must be nonnegative and sum to 1, got sum {w.sum()!r}, min {w.min()!r}"
        )
    return w


# ---------------------------------------------------------------------------
# K-shot averaging
# ---------------------------------------------------------------------------


def kshot_ensemble(
    params: BackboneParams, x_bar, sched: NoiseSchedule, k: int, rng: np.random.Generator
) -> ShotEnsemble:
    """Run the sampler ``k`` times on independent streams derived from ``rng``.

    The shots share one x_bar, so its condition maps are computed once.
    """
    if k < 1:
        raise ValueError(f"shot count must be >= 1, got {k}")
    seeds = [int(s) for s in rng.integers(0, 2**63, size=k, dtype=np.uint64)]
    x_bar = as_tensor(x_bar)
    cond = condition_features(x_bar, params)
    shots = [sample(params, x_bar, sched, np.random.default_rng(seed), cond=cond) for seed in seeds]
    return ShotEnsemble(shots=shots, seeds=seeds)


def kshot_average(
    params: BackboneParams, x_bar, sched: NoiseSchedule, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Elementwise mean of ``k`` independent reconstructions."""
    return kshot_ensemble(params, x_bar, sched, k, rng).average()


# ---------------------------------------------------------------------------
# per-step identities
# ---------------------------------------------------------------------------


def verify_convex_combination(x_t, eps_list, weights, t: int, sched: NoiseSchedule, z=None) -> float:
    """Max |step(fused estimate) - convex combination of stepped estimates|.

    The injected draw z is shared across branches (zeros by default), which
    is exactly the setting in which the reverse update is affine.
    """
    w = _check_simplex(weights)
    eps_list = [as_tensor(e) for e in eps_list]
    if len(eps_list) != len(w):
        raise ValueError(f"got {len(eps_list)} estimates but {len(w)} weights")
    x_t = as_tensor(x_t)
    z = np.zeros_like(x_t) if z is None else as_tensor(z)
    fused_eps = sum(wk * ek for wk, ek in zip(w, eps_list))
    stepped_fused = reverse_step(x_t, fused_eps, t, sched, z)
    combined = sum(
        wk * reverse_step(x_t, ek, t, sched, z) for wk, ek in zip(w, eps_list)
    )
    return float(np.abs(stepped_fused - combined).max())


def jensen_check(points, weights, target, loss: ConvexLoss) -> float:
    """Margin of Jensen's inequality for the fused point:
    sum_k w_k L(p_k - target) - L(sum_k w_k p_k - target); >= 0 up to rounding
    for any convex ``loss`` of the error tensor, such as a :class:`ConvexLoss`."""
    w = _check_simplex(weights)
    points = [as_tensor(p) for p in points]
    target = as_tensor(target)
    per_point = sum(wk * loss(p - target) for wk, p in zip(w, points))
    fused = loss(sum(wk * p for wk, p in zip(w, points)) - target)
    return float(per_point - fused)


# ---------------------------------------------------------------------------
# simplex weight optimization
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def simplex_grid(k: int, resolution: float) -> np.ndarray:
    """All weight vectors with coordinates on a grid of the given step."""
    n = int(round(1.0 / resolution))
    points = []
    # Stars and bars: place k-1 cut points among n units.
    for cuts in combinations(range(n + k - 1), k - 1):
        prev, parts = -1, []
        for cut in cuts:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(n + k - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=np.float64) / n


def weight_sweep(
    expert_eps,
    x_t,
    t: int,
    sched: NoiseSchedule,
    target,
    loss: ConvexLoss,
    extra_candidates=None,
):
    """Minimize L(step(x_t, fused estimate) - target) over simplex weights,
    stepping with a zero injected draw.

    K <= 4 is solved by exhaustive grid enumeration at step 0.05; larger
    pools use projected gradient descent (200 iterations, step 0.1, halved
    on non-improvement) from several starts. The uniform weighting is
    always a candidate, so best_loss <= uniform_loss by construction.

    Returns (best_weights, best_loss, uniform_loss).
    """
    eps_list = [as_tensor(e) for e in expert_eps]
    k = len(eps_list)
    x_t = as_tensor(x_t)
    target = as_tensor(target)
    z = np.zeros_like(x_t)
    # The update is affine in the estimate, so precompute per-expert stepped
    # outputs; any convex combination of estimates steps to the same
    # combination of these.
    stepped = np.stack([reverse_step(x_t, e, t, sched, z) for e in eps_list])
    flat = stepped.reshape(k, -1)
    target_flat = target.ravel()

    def loss_of(w: np.ndarray) -> float:
        return loss((w @ flat) - target_flat)

    uniform = np.full(k, 1.0 / k)
    uniform_loss = loss_of(uniform)

    candidates = [uniform]
    if extra_candidates is not None:
        candidates.extend(_check_simplex(w) for w in extra_candidates)

    if k <= 4:
        grid = simplex_grid(k, _GRID_RESOLUTION)
        losses = np.array([loss_of(w) for w in grid])
        gi = int(np.argmin(losses))
        candidates.append(grid[gi])
        best_w = min(candidates, key=loss_of)
        return best_w, loss_of(best_w), uniform_loss

    candidates.extend(np.eye(k))
    best_w, best = None, np.inf
    for w0 in candidates:
        w, val = _projected_descent(loss_of, loss, flat, target_flat, w0)
        if val < best:
            best_w, best = w, val
    return best_w, best, uniform_loss


def _projected_descent(loss_of, loss: ConvexLoss, flat, target_flat, w0):
    w = _project_simplex(np.asarray(w0, dtype=np.float64))
    best_w, best = w, loss_of(w)
    cur = _DESCENT_STEP
    for _ in range(_DESCENT_ITERS):
        err = (w @ flat) - target_flat
        grad = flat @ loss.error_gradient(err)
        cand = _project_simplex(w - cur * grad)
        val = loss_of(cand)
        if val < best:
            best_w, best, w = cand, val, cand
        else:
            cur *= 0.5
            if cur < 1e-14:
                break
    return best_w, best


def expert_count_sweep(
    eps_pool,
    ks,
    x_t,
    t: int,
    sched: NoiseSchedule,
    target,
    loss: ConvexLoss,
):
    """Best achievable loss over growing prefixes of one fixed expert pool.

    Each sweep warm-starts from the previous best weights padded with
    zeros, so a superset can never do worse. Returns rows of
    (k, best_loss, uniform_loss).
    """
    eps_pool = [as_tensor(e) for e in eps_pool]
    rows = []
    prev_w = None
    for k in sorted(ks):
        if k > len(eps_pool):
            raise ValueError(f"sweep k={k} exceeds pool size {len(eps_pool)}")
        extras = []
        if prev_w is not None:
            extras.append(np.concatenate([prev_w, np.zeros(k - len(prev_w))]))
        best_w, best, uniform = weight_sweep(eps_pool[:k], x_t, t, sched, target, loss, extras or None)
        rows.append((k, best, uniform))
        prev_w = best_w
    return rows


# ---------------------------------------------------------------------------
# error-distribution tables
# ---------------------------------------------------------------------------


def shot_error_table(ensemble: ShotEnsemble, truth, sample_index: int, channel: int):
    """Per-timestamp signed error of each shot and of the averaged output.

    Returns (column names, table) where the table has one row per
    timestamp: [timestamp, shot errors..., fused error].
    """
    truth = as_tensor(truth)
    ref = truth[sample_index, channel]
    cols = [s[sample_index, channel] - ref for s in ensemble.shots]
    fused = ensemble.average()[sample_index, channel] - ref
    names = ["timestamp"] + [f"shot_{i}" for i in range(len(cols))] + ["fused"]
    table = np.column_stack([np.arange(len(ref), dtype=np.float64)] + cols + [fused])
    return names, table


def fixed_expert_error_table(
    params: BackboneParams,
    x_bar,
    truth,
    sched: NoiseSchedule,
    seed: int,
    sample_index: int,
    channel: int,
):
    """Per-timestamp error of each fixed-expert head variant and of the
    routed head, all sampled from one shared seed so only the head differs.
    The condition maps are computed once for every variant."""
    truth = as_tensor(truth)
    ref = truth[sample_index, channel]
    x_bar = as_tensor(x_bar)
    cond = condition_features(x_bar, params)
    k = len(params.head.experts)
    cols = []
    for gates in [*np.eye(k), None]:  # each expert alone, then the routed head
        rec = sample(params, x_bar, sched, np.random.default_rng(seed), head_gates=gates, cond=cond)
        cols.append(rec[sample_index, channel] - ref)
    names = ["timestamp"] + [f"expert_{j}" for j in range(k)] + ["fused"]
    table = np.column_stack([np.arange(len(ref), dtype=np.float64)] + cols)
    return names, table


# ---------------------------------------------------------------------------
# K-shot comparison harness
# ---------------------------------------------------------------------------


def compare_kshot(
    params: BackboneParams,
    truth,
    x_bar,
    sched: NoiseSchedule,
    ks,
    rng: np.random.Generator,
    region=None,
    timing: bool = True,
):
    """Aggregate metrics of K-shot averaged reconstructions for each K.

    Returns rows of (k, prd, ssd, mad, wall_seconds); wall_seconds is 0.0
    when ``timing`` is off so output files stay byte-reproducible.
    """
    from .metrics import evaluate

    rows = []
    for k in ks:
        shot_rng = np.random.default_rng(rng.integers(0, 2**63, dtype=np.uint64))
        start = time.perf_counter()
        recon = kshot_average(params, x_bar, sched, int(k), shot_rng)
        elapsed = time.perf_counter() - start if timing else 0.0
        report = evaluate(truth, recon, region=region)
        agg = report.aggregate
        rows.append((int(k), agg.prd, agg.ssd, agg.mad, elapsed))
    return rows

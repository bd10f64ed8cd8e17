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

import numpy as np

from .backbone import BackboneParams, condition_features
from .diffusion import NoiseSchedule, reverse_step, sample
from .metrics import evaluate
from .tensor import as_tensor

_SIMPLEX_TOL = 1e-9
_KKT_TOL = 1e-10  # weight_sweep's certificate, relative to max|G|


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
    if len(points) != len(w):
        raise ValueError(f"got {len(points)} points but {len(w)} weights")
    for i, p in enumerate(points):
        if p.shape != target.shape:
            raise ValueError(f"point {i} has shape {p.shape}, target has shape {target.shape}")
    per_point = sum(wk * loss(p - target) for wk, p in zip(w, points))
    fused = loss(sum(wk * p for wk, p in zip(w, points)) - target)
    return float(per_point - fused)


# ---------------------------------------------------------------------------
# simplex weight optimization
# ---------------------------------------------------------------------------


def weight_sweep(expert_eps, x_t, t: int, sched: NoiseSchedule, target):
    """Minimise the MSE of step(x_t, fused estimate) against ``target`` over
    simplex weights, stepping with a zero injected draw.

    With D holding one stepped estimate minus the target per row and
    G = D D^T / n, the MSE of weights w on the simplex is w^T G w. Each
    nonempty support S (2^K - 1 of them) gives one candidate from the
    bordered KKT system [[G_S, -1], [1^T, 0]] [w_S; mu] = [0; 1];
    singular systems and negative weights are skipped. Of the candidates
    that pass the KKT certificate (equal gradients (G w)_i = mu on the
    support, none smaller off it, to 1e-10 of max|G|), the one with the
    lowest directly evaluated MSE wins. A convex QP has such a point, so
    when none passes the solve is wrong and ArithmeticError is raised.

    Returns (best_weights, best_loss, uniform_loss).
    """
    x_t, target = as_tensor(x_t), as_tensor(target)
    eps_list = [as_tensor(e) for e in expert_eps]
    for name, arr in [("target", target)] + [(f"estimate {i}", e) for i, e in enumerate(eps_list)]:
        if arr.shape != x_t.shape:
            raise ValueError(f"{name} has shape {arr.shape}, x_t has shape {x_t.shape}")
    k = len(eps_list)
    z = np.zeros_like(x_t)
    # The update is affine in the estimate, so any convex combination of
    # estimates steps to the same combination of these.
    flat = np.stack([reverse_step(x_t, e, t, sched, z).ravel() for e in eps_list])
    target_flat = target.ravel()
    resid = flat - target_flat
    gram = resid @ resid.T / resid.shape[1]
    scale = np.abs(gram).max() or 1.0

    def mse(w: np.ndarray) -> float:
        err = (w @ flat) - target_flat
        return float(np.mean(err * err))

    best_w, best, least_violation = None, np.inf, np.inf
    for bits in range(1, 2**k):
        support = np.flatnonzero((bits >> np.arange(k)) & 1)
        m = len(support)
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = gram[np.ix_(support, support)]
        kkt[:m, m], kkt[m, :m] = -1.0, 1.0
        try:
            sol = np.linalg.solve(kkt, np.eye(m + 1)[m])
        except np.linalg.LinAlgError:
            continue
        if (sol[:m] < 0).any():
            continue
        w = np.zeros(k)
        w[support] = sol[:m] / sol[:m].sum()  # a singleton's weight is exactly 1
        grad, mu = gram @ w, sol[m]
        on = w > 0
        violation = max(
            abs(w.sum() - 1.0),
            np.abs(grad[on] - mu).max(initial=0.0) / scale,
            (mu - grad[~on]).max(initial=0.0) / scale,
        )
        least_violation = min(least_violation, violation)
        if violation <= _KKT_TOL and (loss := mse(w)) < best:
            best_w, best = w, loss
    if best_w is None:
        raise ArithmeticError(
            f"weight_sweep: no simplex weights pass the KKT certificate; "
            f"the least violation is {least_violation:.3e} (tolerance {_KKT_TOL:.0e})"
        )
    return best_w, best, mse(np.full(k, 1.0 / k))


def expert_count_sweep(eps_pool, ks, x_t, t: int, sched: NoiseSchedule, target):
    """Best achievable MSE over growing prefixes of one fixed expert pool.

    A larger pool keeps every smaller pool's weights (padded with zeros)
    feasible, so its exact optimum can only be lower. Returns rows of
    (k, best_loss, uniform_loss).
    """
    rows = []
    for k in sorted(ks):
        if k > len(eps_pool):
            raise ValueError(f"sweep k={k} exceeds pool size {len(eps_pool)}")
        _, best, uniform = weight_sweep(eps_pool[:k], x_t, t, sched, target)
        rows.append((k, best, uniform))
    return rows


# ---------------------------------------------------------------------------
# error-distribution tables
# ---------------------------------------------------------------------------


def fixed_expert_runs(params: BackboneParams, x_bar, sched: NoiseSchedule, seed: int) -> list:
    """One reconstruction per head expert fixed alone, then the routed head's,
    all from one seed so only the head differs; the condition maps are computed once."""
    x_bar = as_tensor(x_bar)
    cond = condition_features(x_bar, params)
    gates = [*np.eye(len(params.head.experts)), None]
    return [sample(params, x_bar, sched, np.random.default_rng(seed), head_gates=g, cond=cond) for g in gates]


def error_table(recons, label: str, truth, sample_index: int, channel: int):
    """(column names, table) of each reconstruction's signed error at every timestamp.
    The columns are ``timestamp``, ``<label>_0``... and ``fused``, the last reconstruction."""
    ref = as_tensor(truth)[sample_index, channel]
    cols = [as_tensor(r)[sample_index, channel] - ref for r in recons]
    names = ["timestamp"] + [f"{label}_{i}" for i in range(len(cols) - 1)] + ["fused"]
    return names, np.column_stack([np.arange(len(ref), dtype=np.float64)] + cols)


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
):
    """Aggregate metrics of K-shot averaged reconstructions for each K.

    Returns rows of (k, prd, ssd, mad, wall_seconds).
    """
    rows = []
    for k in ks:
        shot_rng = np.random.default_rng(rng.integers(0, 2**63, dtype=np.uint64))
        start = time.perf_counter()
        recon = kshot_average(params, x_bar, sched, int(k), shot_rng)
        elapsed = time.perf_counter() - start
        report = evaluate(truth, recon, region=region)
        agg = report.aggregate
        rows.append((int(k), agg.prd, agg.ssd, agg.mad, elapsed))
    return rows

"""Conditional diffusion process: schedule, corruption, reverse update, sampler.

The reverse update is the affine operator x_{t-1} = A(t) x_t + B(t) eps_hat
+ sigma(t) z. Affinity in eps_hat is what makes gate-weighted fusion of
noise estimates interchangeable with averaging stepped outputs, and the
verification suite in :mod:`moediff.kshot` leans on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .backbone import BackboneParams, condition_features, grads_like, lift_params, noise_estimate
from .tensor import as_tensor, require_binary, require_finite


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step diffusion coefficients, indexed by t in 1..t_steps."""

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    @property
    def t_steps(self) -> int:
        return len(self.beta)

    @classmethod
    def from_betas(cls, betas) -> "NoiseSchedule":
        beta = as_tensor(betas).ravel()
        alpha = 1.0 - beta
        return cls(beta=beta, alpha=alpha, alpha_bar=np.cumprod(alpha))

    def check_step(self, t):
        """``t`` as an int, or an array of steps as an int array; a step
        outside 1..t_steps raises ValueError."""
        steps = np.asarray(t)
        if np.any((steps < 1) | (steps > self.t_steps)):
            raise ValueError(f"step t={steps.tolist()} outside 1..{self.t_steps}")
        return int(steps) if steps.ndim == 0 else steps.astype(int)


@dataclass(frozen=True)
class ReverseCoefficients:
    a: float
    b: float
    sigma: float


def make_schedule(t_steps: int, beta_start: float = 1e-4, beta_end: float = 0.05) -> NoiseSchedule:
    """Linear beta schedule over ``t_steps`` diffusion steps."""
    if t_steps < 1:
        raise ValueError(f"t_steps must be >= 1, got {t_steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(
            f"betas must satisfy 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    if t_steps > 1 and beta_start == beta_end:
        raise ValueError("beta_start must be < beta_end for schedules longer than one step")
    return NoiseSchedule.from_betas(np.linspace(beta_start, beta_end, t_steps))


def reverse_coefficients(sched: NoiseSchedule, t: int) -> ReverseCoefficients:
    t = sched.check_step(t)
    alpha = sched.alpha[t - 1]
    beta = sched.beta[t - 1]
    alpha_bar = sched.alpha_bar[t - 1]
    a = 1.0 / math.sqrt(alpha)
    b = -beta / (math.sqrt(alpha) * math.sqrt(1.0 - alpha_bar))
    sigma = math.sqrt(beta) if t > 1 else 0.0
    return ReverseCoefficients(a=a, b=b, sigma=sigma)


def forward_noise(x0, t, eps, sched: NoiseSchedule):
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, with ``t`` one step for
    all of ``x0`` or an array of steps, one per row of its first axis."""
    x0, eps = as_tensor(x0), as_tensor(eps)
    if x0.shape != eps.shape:
        raise ValueError(f"forward_noise: x0 shape {x0.shape} != eps shape {eps.shape}")
    abar = sched.alpha_bar[sched.check_step(t) - 1]
    if np.ndim(abar):
        if abar.shape != x0.shape[:1]:
            raise ValueError(f"forward_noise: steps of shape {abar.shape} do not fit x0 rows {x0.shape}")
        abar = abar.reshape(-1, *(1,) * (x0.ndim - 1))
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def reverse_step(x_t, eps_hat, t: int, sched: NoiseSchedule, z):
    """One ancestral update; affine in eps_hat for fixed (x_t, t, z)."""
    x_t, eps_hat, z = as_tensor(x_t), as_tensor(eps_hat), as_tensor(z)
    if not (x_t.shape == eps_hat.shape == z.shape):
        raise ValueError(
            f"reverse_step: shapes disagree, x_t {x_t.shape}, eps_hat {eps_hat.shape}, z {z.shape}"
        )
    c = reverse_coefficients(sched, t)
    return c.a * x_t + c.b * eps_hat + c.sigma * z


def sample(
    params: BackboneParams,
    x_bar,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    head_gates=None,
    cond=None,
) -> np.ndarray:
    """Ancestral sampler: start from pure noise, denoise conditioned on x_bar.

    ``head_gates`` optionally overrides the fusion-head router (used by the
    fixed-expert diagnostics). ``cond`` holds the condition maps of x_bar
    (:func:`condition_features`); they depend on x_bar alone, so callers
    that sample one x_bar many times compute them once and pass them here.
    When None they are computed here, once per call.
    """
    x_bar = require_finite(as_tensor(x_bar), "x_bar")
    if cond is None:
        cond = condition_features(x_bar, params)

    x = rng.standard_normal(x_bar.shape)
    for t in range(sched.t_steps, 0, -1):
        eps_hat = noise_estimate(x, x_bar, t, params, head_gates=head_gates, cond=cond)
        z = rng.standard_normal(x.shape) if t > 1 else np.zeros_like(x)
        x = reverse_step(x, eps_hat, t, sched, z)
    return x


def train_step(
    params: BackboneParams,
    batch,
    mask,
    sched: NoiseSchedule,
    rng: np.random.Generator,
):
    """One noise-prediction training step.

    Draws a diffusion step per batch element, corrupts the batch, runs the
    whole batch through one ``noise_estimate`` with those per-row steps, and
    returns (mean squared error over every entry of the batch, gradient
    tree shaped like ``params``).

    ``x_t`` and ``x_bar`` enter the graph as leaves, so the first level's
    experts gather their rows from the raw signal on the tape; as plain
    arrays they would become anonymous leaves at the lift anyway.
    """
    batch = require_finite(as_tensor(batch), "batch")
    mask = require_binary(as_tensor(mask))
    if batch.shape != mask.shape:
        raise ValueError(f"train_step: batch shape {batch.shape} != mask shape {mask.shape}")

    ts = rng.integers(1, sched.t_steps + 1, size=batch.shape[0])
    eps = rng.standard_normal(batch.shape)
    x_t = forward_noise(batch, ts, eps, sched)
    x_bar = batch * mask

    graph = ad.Graph()
    pvars = lift_params(graph, params)
    diff = ad.sub(noise_estimate(graph.leaf(x_t), graph.leaf(x_bar), ts, pvars), eps)
    loss = ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / batch.size)
    grad_map = ad.backward(graph, loss)
    return float(loss.value), grads_like(pvars, grad_map)

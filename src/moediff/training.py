"""SGD training loop with reproducible, resumable step streams.

Every training step draws its randomness from a stream seeded by
(run seed, step index), so a resumed run continues bit-exactly where an
unbroken run would be; optimizer velocity is checkpointed whenever
momentum is active.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np

from .backbone import (
    BackboneParams,
    fill_params,
    init_backbone,
    load_backbone,
    named_params,
    save_backbone,
    zip_map_params,
)
from .config import RunConfig
from .diffusion import make_schedule, train_step
from .masking import MaskSpec
from .tensor import write_csv


class NanLossError(ArithmeticError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at training step {step}")
        self.step = step


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, step]))


# The update runs in place, leaf by leaf, so no second parameter or velocity
# tree is alive beside the first; each applies the same float operations as
# its out-of-place form (``m * v + g``, ``p - lr * d``), so the numbers are
# bit-identical to it.
def _decay_add(m: float, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    v *= m
    v += g
    return v


def _sub_scaled(lr: float, p: np.ndarray, d: np.ndarray) -> np.ndarray:
    p -= lr * d
    return p


def init_from_config(cfg: RunConfig) -> BackboneParams:
    return init_backbone(np.random.default_rng(cfg.seed), **dataclasses.asdict(cfg.model_spec()))


def train(cfg: RunConfig, data: np.ndarray, out_dir, resume_from=None):
    """Train on a [n, C, Tlen] dataset; writes checkpoint.ckp1 and
    loss_curve.csv under ``out_dir``. Returns (params, losses).
    """
    cfg.check()
    n = data.shape[0]
    if data.shape[1:] != (cfg.channels, cfg.t_len):
        raise ValueError(
            f"dataset shape {data.shape} does not match config "
            f"(channels={cfg.channels}, t_len={cfg.t_len})"
        )
    sched = make_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)

    start_step = 0
    velocity = None
    if resume_from is None:
        params = init_from_config(cfg)
    else:
        params, aux = load_backbone(resume_from, gate_mode=cfg.gate_mode)
        start_step = int(aux.get("meta.step", np.asarray(0.0)))
        if start_step > cfg.train_steps:
            raise ValueError(
                f"train_steps = {cfg.train_steps} is below the {start_step} steps "
                f"checkpoint {resume_from} has already taken"
            )
        if cfg.momentum > 0.0 and any(k.startswith("opt.v.") for k in aux):
            velocity = fill_params(params, aux, prefix="opt.v.")
    if velocity is None and cfg.momentum > 0.0:
        velocity = zip_map_params(lambda p, _: np.zeros_like(p), params, params)

    mask_spec = training_mask_spec(cfg)
    losses = []
    for step in range(start_step, cfg.train_steps):
        rng = _step_rng(cfg.seed, step)
        idx = rng.choice(n, size=cfg.batch, replace=cfg.batch > n)
        batch = data[idx]
        mask = mask_spec.build(len(idx), cfg.channels, cfg.t_len, rng)
        loss, grads = train_step(params, batch, mask, sched, rng)
        if not np.isfinite(loss):
            raise NanLossError(step)
        if cfg.momentum > 0.0:
            zip_map_params(functools.partial(_decay_add, cfg.momentum), velocity, grads)
            zip_map_params(functools.partial(_sub_scaled, cfg.lr), params, velocity)
        else:
            zip_map_params(functools.partial(_sub_scaled, cfg.lr), params, grads)
        del grads  # else this step's gradients stay alive through the next step
        losses.append((step, loss))

    os.makedirs(out_dir, exist_ok=True)
    extra = {"meta.step": np.asarray(float(cfg.train_steps))}
    if cfg.momentum > 0.0:
        extra.update({f"opt.v.{name}": v for name, v in named_params(velocity)})
    save_backbone(os.path.join(out_dir, "checkpoint.ckp1"), params, extra=extra)
    write_csv(os.path.join(out_dir, "loss_curve.csv"), ["step", "loss"], losses)
    return params, losses


def training_mask_spec(cfg: RunConfig) -> MaskSpec:
    return MaskSpec(
        kind=cfg.mask_kind,
        ratio=cfg.mask_ratio,
        drop_length=cfg.drop_length,
        drop_channels=cfg.drop_channels,
        seed=cfg.seed,
        shared_window=cfg.shared_window,
    )

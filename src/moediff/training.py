"""SGD training loop with reproducible, resumable step streams.

Every training step draws its randomness from a stream seeded by
(run seed, step index), so a resumed run continues bit-exactly where an
unbroken run would be; the optimizer velocity is checkpointed with the
parameters.
"""

from __future__ import annotations

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
from .masking import check_runs, draw_mask
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
# bit-identical to it. At momentum 0, ``v * 0 + g`` is exactly ``g``.
def _decay_add(m: float, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    v *= m
    v += g
    return v


def _sub_scaled(lr: float, p: np.ndarray, d: np.ndarray) -> np.ndarray:
    p -= lr * d
    return p


def init_from_config(cfg: RunConfig) -> BackboneParams:
    return init_backbone(np.random.default_rng(cfg.seed), cfg.model_spec())


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
    if cfg.mask_kind == "continuous":  # before the output directory is made
        check_runs(cfg.channels, cfg.t_len, cfg.drop_length, cfg.drop_channels)
    sched = make_schedule(cfg.steps, cfg.beta_start, cfg.beta_end)

    start_step = 0
    if resume_from is None:
        params, aux = init_from_config(cfg), {}
    else:
        params, aux = load_backbone(resume_from)
        cfg.check_spec(params.spec, f"checkpoint {resume_from}")
        step = aux.get("meta.step", np.asarray(0.0))
        if step.ndim != 0 or not (np.isfinite(step) and step >= 0 and step == np.floor(step)):
            raise ValueError(
                f"checkpoint {resume_from}: record 'meta.step' holds {step.tolist()}, "
                "not a whole number of steps >= 0"
            )
        start_step = int(step)
        if start_step > cfg.train_steps:
            raise ValueError(
                f"train_steps = {cfg.train_steps} is below the {start_step} steps "
                f"checkpoint {resume_from} has already taken"
            )
    if any(k.startswith("opt.v.") for k in aux):
        velocity = fill_params(params, aux, prefix="opt.v.")
    else:  # a fresh run, or a checkpoint that was not written by train
        velocity = zip_map_params(lambda p, _: np.zeros_like(p), params, params)

    os.makedirs(out_dir, exist_ok=True)
    losses = []
    for step in range(start_step, cfg.train_steps):
        rng = _step_rng(cfg.seed, step)
        idx = rng.choice(n, size=cfg.batch, replace=cfg.batch > n)
        batch = data[idx]
        mask = draw_mask(cfg, len(idx), cfg.channels, cfg.t_len, rng)
        loss, grads = train_step(params, batch, mask, sched, rng)
        if not np.isfinite(loss):
            raise NanLossError(step)
        zip_map_params(functools.partial(_decay_add, cfg.momentum), velocity, grads)
        zip_map_params(functools.partial(_sub_scaled, cfg.lr), params, velocity)
        del grads  # else this step's gradients stay alive through the next step
        losses.append((step, loss))

    extra = {"meta.step": np.asarray(float(cfg.train_steps))}
    extra.update({f"opt.v.{name}": v for name, v in named_params(velocity)})
    save_backbone(os.path.join(out_dir, "checkpoint.ckp1"), params, extra=extra)
    write_csv(os.path.join(out_dir, "loss_curve.csv"), ["step", "loss"], losses)
    return params, losses

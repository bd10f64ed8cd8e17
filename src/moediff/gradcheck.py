"""Finite-difference verification of every differentiable layer.

Each check builds a scalar loss through one layer (or the whole backbone),
then compares tape gradients against central differences via
:func:`moediff.autodiff.finite_diff_check`. Used by the ``gradcheck`` CLI
command and the acceptance suite.

Routed layers are differentiable only away from their top-1 decision
boundaries (crossing one flips the selected expert and jumps the loss), so
points for those checks are redrawn until every map has a clear top-2
logit margin; a central-difference bump of 1e-4 cannot flip the routing
from there.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .backbone import init_backbone, named_params, noise_estimate, replace_param
from .blocks import (
    bridge_forward, fusion_moe_forward, init_bridge, init_fusion, init_rfamoe, rfamoe_forward, route_top1
)

GRAD_TOL = 1e-4


def _sq_sum(y):
    return ad.tsum(ad.mul(y, y))


def check_primitive_layers(seed: int = 0, points: int = 100):
    """Max relative gradient error per primitive layer over random points."""
    rng = np.random.default_rng(seed)
    results = []

    # A 2->2 kernel-3 conv runs conv1d's per-tap sum, a narrow 2->4 kernel-5
    # conv its unfolded GEMM (see autodiff._tap_sum).
    for name, (c_out, c_in, s) in (("conv1d", (2, 2, 3)), ("conv1d-narrow", (4, 2, 5))):
        worst = 0.0
        for _ in range(points):
            w = rng.standard_normal((c_out, c_in, s))
            b = rng.standard_normal(c_out)
            x = rng.standard_normal((2, c_in, 7))
            worst = max(worst, ad.finite_diff_check(lambda v: _sq_sum(ad.conv1d(v, w, b)), x))
        results.append((f"{name}/input", worst, GRAD_TOL))

        worst = 0.0
        for _ in range(points):
            x = rng.standard_normal((2, c_in, 7))
            b = rng.standard_normal(c_out)
            w = rng.standard_normal((c_out, c_in, s))
            worst = max(
                worst,
                ad.finite_diff_check(
                    lambda v: _sq_sum(ad.conv1d(x, ad.reshape(v, w.shape), b)), w.ravel()
                ),
            )
        results.append((f"{name}/weight", worst, GRAD_TOL))

    worst = 0.0
    for _ in range(points):
        x = rng.standard_normal((2, 3, 6))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        worst = max(
            worst, ad.finite_diff_check(lambda v: _sq_sum(ad.instance_norm(v, gamma, beta)), x)
        )
    results.append(("instance_norm/input", worst, GRAD_TOL))

    worst = 0.0
    for _ in range(points):
        x = rng.standard_normal((2, 3, 6))
        ab = rng.standard_normal(6)
        worst = max(
            worst,
            ad.finite_diff_check(
                lambda v: _sq_sum(
                    ad.instance_norm(x, ad.slice_axis(v, 0, 0, 3), ad.slice_axis(v, 0, 3, 6))
                ),
                ab,
            ),
        )
    results.append(("instance_norm/affine", worst, GRAD_TOL))

    worst = 0.0
    for _ in range(points):
        x = 3.0 * rng.standard_normal(12)
        worst = max(worst, ad.finite_diff_check(lambda v: _sq_sum(ad.gelu(v)), x))
    results.append(("gelu", worst, GRAD_TOL))

    worst = 0.0
    for _ in range(points):
        x = rng.standard_normal((3, 5))
        c = rng.standard_normal((3, 5))
        worst = max(worst, ad.finite_diff_check(lambda v: ad.tsum(ad.mul(ad.softmax(v), c)), x))
    results.append(("softmax", worst, GRAD_TOL))
    return results


def _routing_margin(x, params) -> float:
    """Smallest top-2 logit gap over the feature maps of ``x``."""
    _, _, logits = route_top1(x, params.router)
    if logits.shape[1] < 2:
        return np.inf
    part = np.partition(logits, -2, axis=1)
    return float((part[:, -1] - part[:, -2]).min())


def check_blocks(seed: int = 0, points: int = 100):
    """Gradient-through-input checks for the composite blocks."""
    rng = np.random.default_rng(seed)
    results = []
    b, c, t_len, l = 1, 2, 8, 4
    n = b * c

    worst = 0.0
    for i in range(points):
        mode = "raw" if i % 2 else "unit"
        while True:
            params = init_rfamoe(rng, l, c, (1, 3))
            x = rng.standard_normal((n, l, t_len))
            if _routing_margin(x, params) > 0.05:
                break
        worst = max(
            worst,
            ad.finite_diff_check(lambda v: _sq_sum(rfamoe_forward(v, params, (b, c), mode)), x),
        )
    results.append(("rfamoe/input", worst, GRAD_TOL))

    worst = 0.0
    for _ in range(points):
        params = init_bridge(rng, 8, l)
        params.film.weight = rng.standard_normal((8, 2 * l))
        params.film.bias = rng.standard_normal(2 * l)
        x = rng.standard_normal((n, l, t_len))
        t = int(rng.integers(1, 11))
        worst = max(
            worst, ad.finite_diff_check(lambda v: _sq_sum(bridge_forward(v, t, params)), x)
        )
    results.append(("bridge/input", worst, GRAD_TOL))

    worst = 0.0
    for _ in range(points):
        params = init_fusion(rng, l, 3)
        x = rng.standard_normal((n, l, t_len))
        worst = max(
            worst, ad.finite_diff_check(lambda v: _sq_sum(fusion_moe_forward(v, params)), x)
        )
    results.append(("fusion_moe/input", worst, GRAD_TOL))
    return results


def check_backbone_params(seed: int = 0):
    """Finite-difference check of the training loss against every parameter
    of the tiny backbone (width 4, depth 1, 2 head experts, 16 timesteps)."""
    rng = np.random.default_rng(seed)
    params = init_backbone(
        rng, channels=2, width=4, depth=1, kernel_sizes=(1, 3), head_experts=2, d_emb=8
    )
    x_t = rng.standard_normal((1, 2, 16))
    x_bar = rng.standard_normal((1, 2, 16))
    eps = rng.standard_normal((1, 2, 16))

    def loss_fn(patched):
        diff = ad.sub(noise_estimate(x_t, x_bar, 3, patched), eps)
        return ad.scale(ad.tsum(ad.mul(diff, diff)), 1.0 / eps.size)

    worst = 0.0
    for name, leaf in named_params(params):
        shape = leaf.shape

        def f(v, name=name, shape=shape):
            return loss_fn(replace_param(params, name, ad.reshape(v, shape)))

        worst = max(worst, ad.finite_diff_check(f, np.asarray(leaf).ravel()))
    return [("backbone/all-parameters", worst, GRAD_TOL)]


def run_gradcheck(seed: int = 0, points: int = 100):
    return check_primitive_layers(seed, points) + check_blocks(seed, points) + check_backbone_params(seed)

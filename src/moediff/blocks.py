"""Network building blocks: adaptive-receptive-field MoE, FiLM bridge, fusion head.

All forward functions accept parameters holding either plain arrays
(pure inference) or graph-attached :class:`~moediff.autodiff.Var` handles
(training); see :func:`moediff.backbone.lift_params`.

Layout: every feature map is channel-major, [N, L, T] with N = B * C
independent per-channel maps, the layout the convolutions, the instance
norm and the routing read directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .tensor import as_tensor

# "unit": the routed expert's output is taken as is, so the router is
# frozen. A gate that scales it before the block's instance norm is
# cancelled by the norm (up to its variance floor).
GATE_MODES = ("unit",)


@dataclass
class Affine:
    """An affine map; each field holding one states W's shape and use, ``x @ W`` or ``W @ x``."""

    weight: object
    bias: object  # [Out]


@dataclass
class RFAMoEParams:
    """Adaptive receptive field block: per-map top-1 choice among convolution
    experts of distinct kernel sizes, gated activation, cross-channel fusion.

    The experts carry no bias: the instance norm after them subtracts each
    map's time mean, which would cancel any per-feature constant."""

    experts: list  # [L, L, S] weights, distinct odd kernel sizes S
    router: object  # x @ W, W [L, E]: logits; no bias, as the router never trains
    in_gamma: object  # [L] instance-norm affine
    in_beta: object  # [L]
    # gate_proj and fuse are stored apart but applied as one composed
    # pointwise conv, C*L/2 -> C*L (see _compose_pointwise).
    gate_proj: Affine  # W @ x, W [L, L/2]: per map
    fuse: Affine  # W @ x, W [C*L, C*L]: across the channels


@dataclass
class FusionMoEParams:
    """Head that merges K pointwise experts by gate-weighting their weights
    before a single convolution."""

    experts: list  # Affine, each W @ x with W [1, L]
    router: Affine  # x @ W, W [L, K]: logits


def step_embedding(t, d_emb: int) -> np.ndarray:
    """Sinusoidal encoding of diffusion steps: interleaved
    (sin(t / 10000^(2i/d)), cos(t / 10000^(2i/d))) pairs, [d_emb] for a
    scalar ``t`` and [len(t), d_emb] for an array of steps."""
    if d_emb % 2 != 0:
        raise ValueError(f"step embedding size must be even, got {d_emb}")
    t = np.asarray(t)
    if np.any(t < 0):
        raise ValueError(f"step must be >= 0, got {t}")
    i = np.arange(d_emb // 2)
    angles = t[..., None] * 10000.0 ** (-2.0 * i / d_emb)
    return np.stack([np.sin(angles), np.cos(angles)], axis=-1).reshape(*t.shape, d_emb)


def route_top1(features, router):
    """Select one expert per feature map; the one place routing logits are
    computed.

    ``features`` is [N, L, T]; maps are mean-pooled over time and scored
    by the [L, E] ``router`` matrix, and the argmax expert wins (ties
    break to the lowest index). Returns (expert index [N], logits [N, E]),
    computed from values only, so no gradient reaches the router.
    """
    feats = ad.value_of(features)
    if feats.ndim != 3:
        raise ValueError(f"route_top1: features must be [N, L, T], got shape {feats.shape}")
    logits = feats.mean(axis=2) @ ad.value_of(router)
    return np.argmax(logits, axis=1), logits


def _compose_pointwise(gate_proj: Affine, fuse: Affine) -> tuple:
    """The kernel-1 conv over [B, C*L/2, T] equal to ``gate_proj`` on each
    of the C maps followed by ``fuse`` across them; no non-linearity lies
    between the two, so they compose. L is read from ``gate_proj`` and C
    from ``fuse``.

    Returns its weight ``W[o, j*L/2 + m] = sum_l W_fuse[o, j*L + l] * W_gp[l, m]``
    for channel j, and its bias ``b = W_fuse @ tile_C(b_gp) + b_fuse`` as a
    [C*L, 1] column, built from tape ops so the gradients reach both stored
    parameter sets.
    """
    l, half = ad.value_of(gate_proj.weight).shape
    cl = ad.value_of(fuse.weight).shape[0]
    c = cl // l
    w = ad.matmul(ad.reshape(fuse.weight, (cl * c, l)), gate_proj.weight)
    tiled = ad.concat([ad.reshape(gate_proj.bias, (l, 1))] * c, axis=0)  # [C*L, 1]
    b = ad.add(ad.matmul(fuse.weight, tiled), ad.reshape(fuse.bias, (cl, 1)))
    return ad.reshape(w, (cl, c * half, 1)), b


def rfamoe_forward(x, params: RFAMoEParams, source=None):
    """Apply the block to [N, L, T] feature maps, N = B * C. The block's
    weights fix L (``in_gamma``) and C (``fuse`` is [C*L, C*L]); B is N / C.

    Stages: routed expert convolution, instance norm, gated split (gelu
    half times linear half), then one kernel-1 convolution over the C*L/2
    axis that is the pointwise width restore (``gate_proj``) composed with
    the cross-channel fusion (``fuse``), residual from input.

    ``source`` optionally gives the input as a linear map of fewer
    channels: ``(z, m)`` with ``z`` [N, R, T] and ``m`` [R, L, 1] such
    that ``x[n, l] = sum_r m[r, l, 0] * z[n, r]`` for every map. The
    experts then run on ``z`` with ``m`` composed into their weights by one
    kernel-1 conv each, an L/R-fold cut in their work; routing, the norm
    and the residual still read ``x``. A pointwise lift ``w * x + b`` is
    the source ``z = [x, 1]``, ``m = [w, b]``: same padding zero-pads the
    ones channel too, so the lifted bias vanishes outside the signal
    exactly as the zero-padded ``x`` does, and the edges match.
    """
    xv = ad.value_of(x)
    if xv.ndim != 3:
        raise ValueError(f"rfamoe: input must be [N, L, T], got shape {xv.shape}")
    n, l_in, t_len = xv.shape
    l = ad.value_of(params.in_gamma).shape[0]
    if l % 2 != 0:
        raise ValueError(f"rfamoe: feature width must be even for the gated split, got {l}")
    if l_in != l:
        raise ValueError(f"rfamoe: input width {l_in} differs from the block's width {l}")
    c = ad.value_of(params.fuse.weight).shape[0] // l
    if n % c:
        raise ValueError(f"rfamoe: N={n} maps is not a multiple of the block's C={c} channels")
    if source is not None:
        z_shape, m_shape = (ad.value_of(a).shape for a in source)
        if len(m_shape) != 3 or m_shape[1:] != (l, 1) or z_shape != (n, m_shape[0], t_len):
            raise ValueError(
                f"rfamoe: source z {z_shape} and m {m_shape} do not fit [N, R, T] = [{n}, R, {t_len}] "
                f"and [R, L, 1] = [R, {l}, 1]"
            )

    sel, _ = route_top1(x, params.router)

    # One scatter puts every active expert's output rows back in place.
    outs, rows = [], []
    for e, weight in enumerate(params.experts):
        idx = np.where(sel == e)[0]
        if idx.size:
            if source is None:
                rows_in = ad.take_rows(x, idx)
            else:
                # W [Cout, L, S] read as Cout maps of L channels over S taps:
                # conv1d(W, m)[o, r, s] = sum_l m[r, l, 0] * W[o, l, s].
                rows_in, weight = ad.take_rows(source[0], idx), ad.conv1d(weight, source[1])
            outs.append(ad.conv1d(rows_in, weight))
            rows.append(idx)
    routed = ad.scatter_rows(ad.concat(outs, axis=0), np.concatenate(rows), n)

    # Each map is dropped at its last read: what a backward rule reads, the
    # tape holds; the rest would only raise the peak of the stages after it.
    del outs
    h = ad.instance_norm(routed, params.in_gamma, params.in_beta)
    del routed
    half = l // 2
    gated = ad.mul(ad.gelu(ad.slice_axis(h, 1, 0, half)), ad.slice_axis(h, 1, half, l))
    del h

    pw_weight, pw_bias = _compose_pointwise(params.gate_proj, params.fuse)
    fused = ad.conv1d(ad.reshape(gated, (n // c, c * half, t_len)), pw_weight)
    del gated
    fused = ad.add(fused, pw_bias)
    return ad.add(ad.reshape(fused, (n, l, t_len)), x)


def bridge_forward(h, t, film: Affine):
    """FiLM the [N, L, T] feature map: gamma(t) * h + beta(t) per channel,
    with ``t`` one step for every map or an array of N steps, one per map.
    ``film`` maps the step embedding to (gamma, beta): ``emb @ W``, W
    [d_emb, 2L]."""
    d_emb, two_l = ad.value_of(film.weight).shape
    l = two_l // 2
    emb = step_embedding(t, d_emb).reshape(-1, d_emb)  # [1 or N, d_emb]
    gb = ad.add(ad.matmul(emb, film.weight), film.bias)  # [1 or N, 2L]
    gamma = ad.reshape(ad.slice_axis(gb, 1, 0, l), (-1, l, 1))
    beta = ad.reshape(ad.slice_axis(gb, 1, l, two_l), (-1, l, 1))
    return ad.add(ad.mul(h, gamma), beta)


def fusion_moe_forward(x, params: FusionMoEParams, gates_override=None):
    """Merge K pointwise experts into one dynamic convolution per feature map.

    Gates are a dense softmax over all experts (every expert stays
    active); the merged weight for map n is sum_k gates[n, k] * W_k and
    likewise for the bias, applied as a single kernel-1 convolution.
    ``gates_override`` replaces the router output with fixed gates ([K] or
    [N, K]) for diagnostics and the averaging-theorem checks.
    """
    xv = ad.value_of(x)
    if xv.ndim != 3:
        raise ValueError(f"fusion head: input must be [N, L, T], got shape {xv.shape}")
    n, l, _ = xv.shape
    k = len(params.experts)
    if gates_override is None:
        pooled = ad.mean(x, axis=2)  # [N, L]
        logits = ad.add(ad.matmul(pooled, params.router.weight), params.router.bias)
        gates = ad.softmax(logits)
    else:
        gates = as_tensor(gates_override)
        if gates.ndim == 1:
            gates = np.broadcast_to(gates, (n, k)).copy()
        if gates.shape != (n, k):
            raise ValueError(f"fusion head: gates must be [K] or [N, K], got {gates.shape}")

    w_stack = ad.concat([e.weight for e in params.experts], axis=0)  # [K, L]
    b_stack = ad.reshape(ad.concat([e.bias for e in params.experts], axis=0), (k, 1))  # [K, 1]
    merged_w = ad.matmul(gates, w_stack)  # [N, L]
    merged_b = ad.matmul(gates, b_stack)  # [N, 1]
    out = ad.bmm(ad.reshape(merged_w, (n, 1, l)), x)  # [N, 1, T]
    return ad.add(out, ad.reshape(merged_b, (n, 1, 1)))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def init_pointwise(rng: np.random.Generator, c_out: int, c_in: int) -> Affine:
    """A ``W @ x`` map, W [c_out, c_in]."""
    return Affine(weight=rng.normal(0.0, 1.0 / math.sqrt(c_in), (c_out, c_in)), bias=np.zeros(c_out))


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> Affine:
    """An ``x @ W`` map, W [d_in, d_out]."""
    return Affine(weight=rng.normal(0.0, 1.0 / math.sqrt(d_in), (d_in, d_out)), bias=np.zeros(d_out))


def init_rfamoe(rng: np.random.Generator, l: int, channels: int, kernel_sizes: tuple[int, ...]) -> RFAMoEParams:
    return RFAMoEParams(
        experts=[rng.normal(0.0, 1.0 / math.sqrt(l * s), (l, l, s)) for s in kernel_sizes],
        router=rng.normal(0.0, 1.0 / math.sqrt(l), (l, len(kernel_sizes))),
        in_gamma=np.ones(l),
        in_beta=np.zeros(l),
        gate_proj=init_pointwise(rng, l, l // 2),
        fuse=init_pointwise(rng, channels * l, channels * l),
    )


def init_bridge(rng: np.random.Generator, d_emb: int, l: int) -> Affine:
    # Bias starts at (gamma=1, beta=0) so the bridge is near-identity at init.
    return Affine(weight=rng.normal(0.0, 0.01, (d_emb, 2 * l)), bias=np.concatenate([np.ones(l), np.zeros(l)]))


def init_fusion(rng: np.random.Generator, l: int, k: int) -> FusionMoEParams:
    return FusionMoEParams(
        experts=[init_pointwise(rng, 1, l) for _ in range(k)],
        router=init_linear(rng, l, k),
    )

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

# "unit": the routed gate is renormalized to 1; "raw": the softmax probability.
GATE_MODES = ("unit", "raw")


@dataclass
class ConvParams:
    weight: object  # [Cout, Cin, S]
    bias: object  # [Cout]


@dataclass
class LinearParams:
    weight: object  # [In, Out]
    bias: object  # [Out]


@dataclass
class RFAMoEParams:
    """Adaptive receptive field block: per-map top-1 choice among convolution
    experts of distinct kernel sizes, gated activation, cross-channel fusion."""

    experts: list  # ConvParams, distinct odd kernel sizes, L -> L
    router: LinearParams  # L -> E logits
    in_gamma: object  # [L] instance-norm affine
    in_beta: object  # [L]
    # gate_proj and fuse are stored apart but applied as one composed
    # pointwise conv, C*L/2 -> C*L (see _compose_pointwise).
    gate_proj: ConvParams  # pointwise, L/2 -> L per map
    fuse: ConvParams  # pointwise, C*L -> C*L across the channels


@dataclass
class BridgeParams:
    """Feature-wise affine modulation conditioned on the diffusion step."""

    film: LinearParams  # d_emb -> 2L, read as (gamma, beta)


@dataclass
class FusionMoEParams:
    """Head that merges K pointwise experts by gate-weighting their weights
    before a single convolution."""

    experts: list  # ConvParams, each [1, L, 1]
    router: LinearParams  # L -> K logits


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


def route_top1(features, router: LinearParams, gate_mode: str = "unit"):
    """Select one expert per feature map; the one place routing logits are
    computed.

    ``features`` is [N, L, T]; maps are mean-pooled over time, routed
    through the linear layer, and the argmax expert wins (ties break to
    the lowest index). Returns (expert index [N], gate [N], logits [N, E]).
    Unit mode computes from values only and every gate is 1.0, so no
    gradient reaches the router. Raw mode records the logits on the tape
    when the inputs are graph-attached, and the gate is the selected
    softmax probability. Any other mode is a ``ValueError``.
    """
    if gate_mode not in GATE_MODES:
        raise ValueError(f"route_top1: gate mode {gate_mode!r} is not one of {GATE_MODES}")
    feats = ad.value_of(features)
    if feats.ndim != 3:
        raise ValueError(f"route_top1: features must be [N, L, T], got shape {feats.shape}")
    if gate_mode == "unit":
        logits = feats.mean(axis=2) @ ad.value_of(router.weight) + ad.value_of(router.bias)
        idx = np.argmax(logits, axis=1)
        return idx, np.ones(len(idx)), logits
    logits = ad.add(ad.matmul(ad.mean(features, axis=2), router.weight), router.bias)
    idx = np.argmax(ad.value_of(logits), axis=1)
    return idx, ad.gather_cols(ad.softmax(logits), idx), logits


def _compose_pointwise(gate_proj: ConvParams, fuse: ConvParams, c: int) -> ConvParams:
    """The kernel-1 conv over [B, C*L/2, T] equal to ``gate_proj`` on each
    of the C maps followed by ``fuse`` across them; no non-linearity lies
    between the two, so they compose.

    ``W[o, j*L/2 + m] = sum_l W_fuse[o, j*L + l] * W_gp[l, m]`` for channel j, and
    ``b = W_fuse @ tile_C(b_gp) + b_fuse``, built from tape ops so the
    gradients reach both stored parameter sets.
    """
    l, half, _ = ad.value_of(gate_proj.weight).shape
    cl = c * l
    w = ad.matmul(ad.reshape(fuse.weight, (cl * c, l)), ad.reshape(gate_proj.weight, (l, half)))
    w_fuse = ad.reshape(fuse.weight, (cl, cl))
    tiled = ad.concat([ad.reshape(gate_proj.bias, (l, 1))] * c, axis=0)  # [C*L, 1]
    b = ad.add(ad.reshape(ad.matmul(w_fuse, tiled), (cl,)), fuse.bias)
    return ConvParams(weight=ad.reshape(w, (cl, c * half, 1)), bias=b)


def _compose_source(conv: ConvParams, m):
    """The expert weight ``W`` [Cout, L, S] composed with the source map
    ``m`` [L, R]: ``W'[o, r, s] = sum_l W[o, l, s] * m[l, r]``, built from
    tape ops so the gradients reach both."""
    c_out, l, s = ad.value_of(conv.weight).shape
    r = ad.value_of(m).shape[1]
    w = ad.reshape(ad.transpose(conv.weight, (0, 2, 1)), (c_out * s, l))
    return ad.transpose(ad.reshape(ad.matmul(w, m), (c_out, s, r)), (0, 2, 1))


def rfamoe_forward(x, params: RFAMoEParams, dims: tuple[int, int], gate_mode: str, source=None):
    """Apply the block to [N, L, T] feature maps, N = B * C, routing in
    ``gate_mode`` (one of :data:`GATE_MODES`).

    Stages: routed expert convolution, instance norm, gated split (gelu
    half times linear half), then one kernel-1 convolution over the C*L/2
    axis that is the pointwise width restore (``gate_proj``) composed with
    the cross-channel fusion (``fuse``), residual from input.

    ``source`` optionally gives the input as a linear map of fewer
    channels: ``(z, m)`` with ``z`` [N, R, T] and ``m`` [L, R] such that
    ``x`` is ``m @ z`` for every map. The experts then run on
    ``z`` with ``m`` composed into their weights, an L/R-fold cut in their
    work; routing, the norm and the residual still read ``x``. A pointwise
    lift ``w * x + b`` is the source ``z = [x, 1]``, ``m = [w, b]``: same
    padding zero-pads the ones channel too, so the lifted bias vanishes
    outside the signal exactly as the zero-padded ``x`` does, and the
    edges match.
    """
    b, c = dims
    xv = ad.value_of(x)
    if xv.ndim != 3:
        raise ValueError(f"rfamoe: input must be [N, L, T], got shape {xv.shape}")
    n, l_in, t_len = xv.shape
    if b * c != n:
        raise ValueError(f"rfamoe: N={n} does not factor as B*C = {b}*{c}")
    l = ad.value_of(params.in_gamma).shape[0]
    if l % 2 != 0:
        raise ValueError(f"rfamoe: feature width must be even for the gated split, got {l}")
    if l_in != l:
        raise ValueError(f"rfamoe: input width {l_in} differs from the block's width {l}")
    if source is not None:
        z_shape, m_shape = (ad.value_of(a).shape for a in source)
        if len(m_shape) != 2 or m_shape[0] != l or z_shape != (n, m_shape[1], t_len):
            raise ValueError(
                f"rfamoe: source z {z_shape} and m {m_shape} do not fit [N, R, T] = [{n}, R, {t_len}] "
                f"and [L, R] = [{l}, R]"
            )

    sel, gates, _ = route_top1(x, params.router, gate_mode)

    # One scatter puts every active expert's output rows back in place.
    outs, rows = [], []
    for e, conv in enumerate(params.experts):
        idx = np.where(sel == e)[0]
        if idx.size:
            if source is None:
                rows_in, weight = ad.take_rows(x, idx), conv.weight
            else:
                rows_in, weight = ad.take_rows(source[0], idx), _compose_source(conv, source[1])
            outs.append(ad.conv1d(rows_in, weight, conv.bias))
            rows.append(idx)
    routed = ad.scatter_rows(ad.concat(outs, axis=0), np.concatenate(rows), n)
    if gate_mode == "raw":
        routed = ad.mul(routed, ad.reshape(gates, (n, 1, 1)))

    h = ad.instance_norm(routed, params.in_gamma, params.in_beta)
    half = l // 2
    gated = ad.mul(ad.gelu(ad.slice_axis(h, 1, 0, half)), ad.slice_axis(h, 1, half, l))

    pointwise = _compose_pointwise(params.gate_proj, params.fuse, c)
    fused = ad.conv1d(ad.reshape(gated, (b, c * half, t_len)), pointwise.weight, pointwise.bias)
    return ad.add(ad.reshape(fused, (n, l, t_len)), x)


def bridge_forward(h, t, params: BridgeParams):
    """FiLM the [N, L, T] feature map: gamma(t) * h + beta(t) per channel,
    with ``t`` one step for every map or an array of N steps, one per map."""
    w = params.film.weight
    d_emb, two_l = ad.value_of(w).shape
    l = two_l // 2
    emb = step_embedding(t, d_emb).reshape(-1, d_emb)  # [1 or N, d_emb]
    gb = ad.add(ad.matmul(emb, w), params.film.bias)  # [1 or N, 2L]
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

    w_stack = ad.concat([ad.reshape(e.weight, (1, l)) for e in params.experts], axis=0)  # [K, L]
    b_stack = ad.concat([ad.reshape(e.bias, (1, 1)) for e in params.experts], axis=0)  # [K, 1]
    merged_w = ad.matmul(gates, w_stack)  # [N, L]
    merged_b = ad.matmul(gates, b_stack)  # [N, 1]
    out = ad.bmm(ad.reshape(merged_w, (n, 1, l)), x)  # [N, 1, T]
    return ad.add(out, ad.reshape(merged_b, (n, 1, 1)))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def init_conv(rng: np.random.Generator, c_out: int, c_in: int, s: int) -> ConvParams:
    std = 1.0 / math.sqrt(c_in * s)
    return ConvParams(weight=rng.normal(0.0, std, (c_out, c_in, s)), bias=np.zeros(c_out))


def init_linear(rng: np.random.Generator, d_in: int, d_out: int, std: float | None = None) -> LinearParams:
    std = 1.0 / math.sqrt(d_in) if std is None else std
    return LinearParams(weight=rng.normal(0.0, std, (d_in, d_out)), bias=np.zeros(d_out))


def init_rfamoe(rng: np.random.Generator, l: int, channels: int, kernel_sizes: tuple[int, ...]) -> RFAMoEParams:
    return RFAMoEParams(
        experts=[init_conv(rng, l, l, s) for s in kernel_sizes],
        router=init_linear(rng, l, len(kernel_sizes)),
        in_gamma=np.ones(l),
        in_beta=np.zeros(l),
        gate_proj=init_conv(rng, l, l // 2, 1),
        fuse=init_conv(rng, channels * l, channels * l, 1),
    )


def init_bridge(rng: np.random.Generator, d_emb: int, l: int) -> BridgeParams:
    # Bias starts at (gamma=1, beta=0) so the bridge is near-identity at init.
    film = init_linear(rng, d_emb, 2 * l, std=0.01)
    film.bias = np.concatenate([np.ones(l), np.zeros(l)])
    return BridgeParams(film=film)


def init_fusion(rng: np.random.Generator, l: int, k: int) -> FusionMoEParams:
    return FusionMoEParams(
        experts=[init_conv(rng, 1, l, 1) for _ in range(k)],
        router=init_linear(rng, l, k),
    )

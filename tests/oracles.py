"""Independent straight-loop reference implementations used as test oracles.

Nothing here shares code with the package: convolutions are nested loops,
normalization and routing are written out step by step, so agreement with
the vectorized implementations is meaningful. The exceptions pin one
rewrite each against the form it replaced, so they share everything else
with the package: :func:`dense_backward` pins how ``backward`` accumulates
(it reuses the package's rules for every op whose gradient is dense);
:func:`two_pass_instance_norm` and its backward are the instance norm's
earlier formulas; :func:`two_conv_rfamoe` is the block built from tape ops
with its two pointwise convolutions left uncomposed; :func:`explicit_lift_rfamoe`
is a first-level block run on its lifted input maps rather than on the
lifted signal.
"""

import math

import numpy as np

import moediff.autodiff as ad
from moediff.backbone import named_params, replace_param
from moediff.blocks import rfamoe_forward, route_top1


def random_affine(params, rng):
    """``params`` with every bias, ``in_gamma`` and ``in_beta`` drawn from
    N(0, 1). At initialisation biases are 0 and the norm's gain and shift
    1 and 0, so an oracle comparison there cannot see a dropped bias term."""
    for name, value in named_params(params):
        if name.endswith(("bias", "in_gamma", "in_beta")):
            params = replace_param(params, name, rng.standard_normal(np.shape(value)))
    return params


def naive_conv1d(x, w, b, padding="same"):
    n, cin, t = x.shape
    cout, _, s = w.shape
    if padding == "same":
        p = (s - 1) // 2  # odd kernels only
        t_out = t
    else:
        p = 0
        t_out = t - s + 1
    xp = np.zeros((n, cin, t + 2 * p))
    xp[:, :, p : p + t] = x
    out = np.zeros((n, cout, t_out))
    for ni in range(n):
        for co in range(cout):
            for ti in range(t_out):
                acc = b[co]
                for ci in range(cin):
                    for si in range(s):
                        acc += w[co, ci, si] * xp[ni, ci, ti + si]
                out[ni, co, ti] = acc
    return out


def naive_instance_norm(x, gamma, beta, eps=1e-5):
    n, c, t = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            row = x[ni, ci]
            mu = sum(row) / t
            var = sum((v - mu) ** 2 for v in row) / t
            for ti in range(t):
                out[ni, ci, ti] = gamma[ci] * (row[ti] - mu) / math.sqrt(var + eps) + beta[ci]
    return out


def two_pass_instance_norm(x, gamma, beta, eps=1e-5):
    """Instance norm as first written: ``np.var`` takes its own mean and
    centred copy. Returns (out, xhat, inv)."""
    mu = x.mean(axis=2, keepdims=True)
    var = x.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma[None, :, None] * xhat + beta[None, :, None], xhat, inv


def two_pass_instance_norm_backward(grad, gamma, xhat, inv):
    """The matching backward, out of place. Returns (dx, dgamma, dbeta)."""
    dbeta = grad.sum(axis=(0, 2))
    dgamma = (grad * xhat).sum(axis=(0, 2))
    gh = grad * gamma[None, :, None]
    dx = inv * (
        gh - gh.mean(axis=2, keepdims=True) - xhat * (gh * xhat).mean(axis=2, keepdims=True)
    )
    return dx, dgamma, dbeta


def naive_gelu(x):
    return np.vectorize(lambda v: v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))))(x)


def naive_softmax_row(row):
    m = max(row)
    e = [math.exp(v - m) for v in row]
    z = sum(e)
    return np.array([v / z for v in e])


def naive_rfamoe(x, params, b, c, gate_mode):
    """Stage-by-stage reference of the adaptive-receptive-field block on
    [N, L, T] maps."""
    n, l, t_len = x.shape

    pooled = x.mean(axis=2)
    logits = pooled @ params.router.weight + params.router.bias
    routed = np.zeros((n, l, t_len))
    for ni in range(n):
        e = int(np.argmax(logits[ni]))
        y = naive_conv1d(x[ni : ni + 1], params.experts[e].weight, params.experts[e].bias)
        if gate_mode == "raw":
            y = y * naive_softmax_row(logits[ni])[e]
        routed[ni] = y[0]

    h = naive_instance_norm(routed, params.in_gamma, params.in_beta)
    gated = naive_gelu(h[:, : l // 2]) * h[:, l // 2 :]
    body = naive_conv1d(gated, params.gate_proj.weight, params.gate_proj.bias)
    fused = naive_conv1d(
        body.reshape(b, c * l, t_len), params.fuse.weight, params.fuse.bias
    ).reshape(n, l, t_len)
    return fused + x


def two_conv_rfamoe(x, params, b, c, gate_mode):
    """The block from tape ops with ``gate_proj`` and ``fuse`` applied as
    two convolutions, as the stored parameters describe them."""
    n, l, t_len = ad.value_of(x).shape
    sel, gates, _ = route_top1(x, params.router, gate_mode)
    outs, rows = [], []
    for e, conv in enumerate(params.experts):
        idx = np.where(sel == e)[0]
        if idx.size:
            outs.append(ad.conv1d(ad.take_rows(x, idx), conv.weight, conv.bias))
            rows.append(idx)
    routed = ad.scatter_rows(ad.concat(outs, axis=0), np.concatenate(rows), n)
    if gate_mode == "raw":
        routed = ad.mul(routed, ad.reshape(gates, (n, 1, 1)))
    h = ad.instance_norm(routed, params.in_gamma, params.in_beta)
    gated = ad.mul(ad.gelu(ad.slice_axis(h, 1, 0, l // 2)), ad.slice_axis(h, 1, l // 2, l))
    body = ad.conv1d(gated, params.gate_proj.weight, params.gate_proj.bias)
    fused = ad.conv1d(ad.reshape(body, (b, c * l, t_len)), params.fuse.weight, params.fuse.bias)
    return ad.add(ad.reshape(fused, (n, l, t_len)), x)


def explicit_lift_rfamoe(x1, lift, params, b, c, gate_mode):
    """The block on the maps ``h0 = lift(x1)`` of [N, 1, T] signals, the
    pointwise lift applied as its own convolution and handed over as the
    block's input with no lifted source."""
    h0 = ad.conv1d(x1, lift.weight, lift.bias)
    return rfamoe_forward(h0, params, (b, c), gate_mode)


def naive_bridge(h, t, params):
    """FiLM of [N, L, T] maps, one affine map per feature channel."""
    d_emb = params.film.weight.shape[0]
    l = params.film.weight.shape[1] // 2
    emb = np.zeros(d_emb)
    for i in range(d_emb // 2):
        ang = t / 10000.0 ** (2.0 * i / d_emb)
        emb[2 * i] = math.sin(ang)
        emb[2 * i + 1] = math.cos(ang)
    gb = emb @ params.film.weight + params.film.bias
    gamma, beta = gb[:l], gb[l:]
    out = np.zeros_like(h)
    for ni in range(h.shape[0]):
        for li in range(l):
            for ti in range(h.shape[2]):
                out[ni, li, ti] = gamma[li] * h[ni, li, ti] + beta[li]
    return out


def naive_fusion_moe(x, params, gates=None):
    """The fusion head on [N, L, T] maps; [N, 1, T] out."""
    n, l, t_len = x.shape
    k = len(params.experts)
    if gates is None:
        pooled = x.mean(axis=2)
        logits = pooled @ params.router.weight + params.router.bias
        gates = np.stack([naive_softmax_row(row) for row in logits])
    out = np.zeros((n, 1, t_len))
    for ni in range(n):
        mw = sum(gates[ni, ki] * params.experts[ki].weight[0, :, 0] for ki in range(k))
        mb = sum(gates[ni, ki] * params.experts[ki].bias[0] for ki in range(k))
        for ti in range(t_len):
            out[ni, 0, ti] = mb + sum(mw[li] * x[ni, li, ti] for li in range(l))
    return out


def naive_backbone(x_t, x_bar, t, params):
    b, c, t_len = x_t.shape
    n = b * c
    h = naive_conv1d(x_t.reshape(n, 1, t_len), params.lift_xt.weight, params.lift_xt.bias)
    cond = naive_conv1d(x_bar.reshape(n, 1, t_len), params.lift_cond.weight, params.lift_cond.bias)
    for level in params.levels:
        cond = naive_rfamoe(cond, level.cond, b, c, params.spec.gate_mode)
        h = naive_rfamoe(h, level.main, b, c, params.spec.gate_mode) + naive_bridge(cond, t, level.bridge)
    return naive_fusion_moe(h, params.head).reshape(b, c, t_len)


def _dense_slice(node, grad, vals):
    out = np.zeros(vals[0].shape)
    index = [slice(None)] * out.ndim
    index[node.ctx["axis"]] = slice(node.ctx["start"], node.ctx["stop"])
    out[tuple(index)] = grad
    return [out]


def _dense_take_rows(node, grad, vals):
    out = np.zeros(vals[0].shape)
    np.add.at(out, node.ctx["idx"], grad)
    return [out]


def _dense_gather_cols(node, grad, vals):
    out = np.zeros(vals[0].shape)
    out[np.arange(out.shape[0]), node.ctx["idx"]] = grad
    return [out]


_DENSE_RULES = {"slice": _dense_slice, "take_rows": _dense_take_rows, "gather_cols": _dense_gather_cols}


def dense_backward(graph, loss):
    """Reverse pass with a full-size gradient for every gathered or sliced
    input and every reached node's gradient kept until the end; each
    contribution is added as ``old + new`` into a fresh array."""
    loss_id = loss.id
    grads = {loss_id: np.asarray(1.0)}
    for nid in range(loss_id, -1, -1):
        node = graph.nodes[nid]
        if nid not in grads or node.op == "leaf":
            continue
        rule = _DENSE_RULES.get(node.op, ad._BACKWARD[node.op])
        vals = [graph.nodes[i].value for i in node.inputs]
        for input_id, g in zip(node.inputs, rule(node, grads[nid], vals)):
            if input_id in grads:
                grads[input_id] = grads[input_id] + g
            else:
                grads[input_id] = np.asarray(g, dtype=np.float64)
    return grads

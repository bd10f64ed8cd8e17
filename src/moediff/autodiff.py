"""Define-by-run reverse-mode automatic differentiation.

A :class:`Graph` is an append-only tape. Every operation here executes
eagerly on float64 numpy arrays; when any argument is attached to a graph
(a :class:`Var`), the operation also records a node so :func:`backward`
can replay the tape in reverse. Called with plain arrays only, the same
functions are pure numpy evaluation and record nothing, which is how
inference runs.

Node ids are topologically ordered by construction: a node's inputs always
have smaller ids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import as_tensor

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORM_EPS = 1e-5  # instance_norm variance floor

# Hart (1968) algorithm 5666 for the normal tail, as given by West (2005),
# "Better approximations to cumulative normal functions": for a = |x|,
# 1 - Phi(a) = exp(-a^2/2) * P(a) / Q(a). Coefficients highest degree first.
_CDF_P = (0.0352624965998911, 0.700383064443688, 6.37396220353165, 33.912866078383,
          112.079291497871, 221.213596169931, 220.206867912376)
_CDF_Q = (0.0883883476483184, 1.75566716318264, 16.064177579207, 86.7807322029461,
          296.564248779674, 637.333633378831, 793.826512519948, 440.413735824752)
# Past this |x| the tail is below 1e-300 and Phi rounds to 0 or 1; clamping
# here keeps exp(-a^2/2) * P / Q finite at +-inf.
_CDF_CLAMP = 40.0
# Elements per block, for the loops that sweep a map a block at a time
# (the normal CDF, the instance norm's dx). The rational makes 32 passes
# over each block, which with its two polynomial buffers (1.5 MiB) stays in
# a core's L2 cache between them. Sweeping a whole [24, 16, 500] map at once
# ran ~60% slower.
_BLOCK = 1 << 16


@dataclass
class Node:
    """One tape entry. A backward rule reads the forward value of a leaf,
    of a softmax output and of an input named in ``_READS`` by a consumer;
    the tape keeps each such value in one of two ways. A node whose value
    can be rebuilt exactly from values the tape keeps anyway (an op in
    ``_REBUILD``) gets ``recipe``, the input nodes ``_REBUILD[op]`` reads;
    ``value`` rebuilds it the first time a rule reads it and keeps it in
    ``held``. Every other kept value is ``held`` from the forward on.
    :func:`backward` drops both from each non-leaf node it passes. A node
    with neither has ``value`` a read-only NaN stand-in of ``shape``,
    enough for the rules that read only shapes; a rule that read it would
    give NaN gradients."""

    op: str
    inputs: tuple[int, ...]
    shape: tuple[int, ...]
    ctx: dict = field(default_factory=dict)
    held: np.ndarray | None = None
    recipe: tuple["Node", ...] | None = field(default=None, repr=False)

    @property
    def value(self) -> np.ndarray:
        if self.held is None and self.recipe is not None:
            self.held = _REBUILD[self.op](self, self.recipe)
        return self.held if self.held is not None else _stand_in(self.shape)


# Cached by shape: backward asks for one per unheld input, and each is a
# zero-stride view of a single NaN.
@functools.lru_cache(maxsize=256)
def _stand_in(shape: tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(np.nan, shape)


class Graph:
    """Append-only operation tape. Single-writer: one forward pass at a time.

    The tape keeps a node's value only while a backward rule needs it (see
    :class:`Node`); the :class:`Var` handles own the forward values, so an
    intermediate no rule reads is freed with its last handle. ``backward``
    consumes the tape and marks it ``spent``."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.spent = False

    def leaf(self, value) -> "Var":
        """Add an input node (parameter or constant) and return its handle."""
        return self._record("leaf", (), as_tensor(value), {})

    def _record(self, op: str, inputs: tuple[int, ...], value, ctx: dict) -> "Var":
        nid = len(self.nodes)
        if any(i >= nid for i in inputs):
            raise ValueError(f"{op}: input ids {inputs} not topologically ordered")
        value = np.asarray(value, dtype=np.float64)
        held = value if op in ("leaf", "softmax") else None
        self.nodes.append(Node(op, inputs, value.shape, ctx, held))
        return Var(self, nid, value)


class Var:
    """Handle to one graph node, owning its forward value."""

    __slots__ = ("graph", "id", "value")

    def __init__(self, graph: Graph, nid: int, value: np.ndarray):
        self.graph = graph
        self.id = nid
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"Var(id={self.id}, shape={self.value.shape})"


def value_of(x) -> np.ndarray:
    """Underlying array of a Var or plain array-like.

    Only the dtype is coerced: a plain operand keeps its layout, as a Var's
    value does, so an op sums in the same order on and off the tape."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _graph_of(*args) -> Graph | None:
    graph = None
    for a in args:
        if isinstance(a, Var):
            if graph is None:
                graph = a.graph
            elif graph is not a.graph:
                raise ValueError("operands belong to different graphs")
    return graph


def _node(op: str, out, args, ctx: dict | None = None):
    """``out`` recorded as an ``op`` node over ``args`` when any of them is
    on a graph (plain operands become leaves); otherwise ``out`` itself.
    The inputs ``_READS`` names for ``op`` are kept on the tape from here
    on: by a recipe where :func:`_rebuildable` finds one, else by holding
    the array. Backward rules read input shapes from the input values, so
    ``ctx`` holds only what those values do not."""
    g = _graph_of(*args)
    if g is None:
        return out
    ids = tuple(a.id if isinstance(a, Var) else g.leaf(a).id for a in args)
    for k in _READS.get(op, ()):
        if isinstance(args[k], Var) and not _rebuildable(g.nodes, args[k].id):
            g.nodes[args[k].id].held = args[k].value
    return g._record(op, ids, out, {} if ctx is None else ctx)


def _rebuildable(nodes: list[Node], nid: int) -> bool:
    """Whether node ``nid``'s value is kept without holding a new array:
    it is held or has a recipe already, or it gets one here. A ``gelu``,
    ``mul`` or ``instance_norm`` node always can: the inputs its rebuild
    reads are ones its own rule reads, so the tape keeps them. A ``slice``
    or ``reshape`` can when its input is rebuildable in turn."""
    node = nodes[nid]
    if node.held is None and node.recipe is None:
        if node.op not in _REBUILD:
            return False
        if node.op in ("slice", "reshape") and not _rebuildable(nodes, node.inputs[0]):
            return False
        node.recipe = tuple(nodes[i] for i in node.inputs)
    return True


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------


def add(a, b):
    return _node("add", value_of(a) + value_of(b), (a, b))


def mul(a, b):
    return _node("mul", value_of(a) * value_of(b), (a, b))


def matmul(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError(f"matmul: expected 2-d operands, got {av.shape} @ {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul: inner axes disagree, {av.shape} @ {bv.shape}")
    return _node("matmul", av @ bv, (a, b))


def bmm(a, b):
    av, bv = value_of(a), value_of(b)
    if av.ndim != 3 or bv.ndim != 3 or av.shape[0] != bv.shape[0] or av.shape[2] != bv.shape[1]:
        raise ValueError(f"bmm: incompatible batched shapes {av.shape} @ {bv.shape}")
    return _node("bmm", np.einsum("nij,njk->nik", av, bv), (a, b))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape):
    return _node("reshape", value_of(a).reshape(shape), (a,))


def concat(parts, axis: int = 0):
    out = np.concatenate([value_of(p) for p in parts], axis=axis)
    return _node("concat", out, parts, {"axis": axis})


def _axis_index(ndim: int, axis: int, start: int, stop: int) -> tuple:
    """The basic index taking ``start:stop`` along ``axis`` of an ``ndim`` array."""
    return (slice(None),) * (axis % ndim) + (slice(start, stop),)


def slice_axis(a, axis: int, start: int, stop: int):
    """A view of ``start:stop`` along ``axis``, on and off the tape."""
    av = value_of(a)
    out = av[_axis_index(av.ndim, axis, start, stop)]
    return _node("slice", out, (a,), {"axis": axis, "start": start, "stop": stop})


def _distinct_rows(op: str, idx, n: int) -> np.ndarray:
    """``idx`` as a 1-d index of distinct rows in 0..n-1, the only kind the
    routed gather and scatter move; anything else raises naming ``op``."""
    idx = np.asarray(idx, dtype=np.intp)
    s = np.sort(idx, axis=None)
    if idx.ndim != 1 or (s.size and (s[0] < 0 or s[-1] >= n)) or (s[1:] == s[:-1]).any():
        raise ValueError(f"{op}: rows must be a 1-d index of distinct rows in 0..{n - 1}, got {idx.tolist()}")
    return idx


def take_rows(a, idx):
    """Rows ``idx`` of ``a``, distinct and in range."""
    av = value_of(a)
    idx = _distinct_rows("take_rows", idx, av.shape[0])
    return _node("take_rows", av[idx], (a,), {"idx": idx})


def scatter_rows(a, idx, n: int):
    """Rows of ``a`` placed at distinct positions ``idx`` of a zero tensor with ``n`` rows."""
    idx = _distinct_rows("scatter_rows", idx, n)
    av = value_of(a)
    out = np.zeros((n,) + av.shape[1:])
    out[idx] = av
    return _node("scatter_rows", out, (a,), {"idx": idx})


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a):
    """Sum of every entry."""
    return _node("sum", np.asarray(np.sum(value_of(a))), (a,))


def mean(a, axis: int):
    return _node("mean", np.asarray(np.mean(value_of(a), axis=axis)), (a,), {"axis": axis})


# ---------------------------------------------------------------------------
# neural-network primitives
# ---------------------------------------------------------------------------


def _conv1d_check(x, w):
    if x.ndim != 3:
        raise ValueError(f"conv1d: input must be rank 3 [N,Cin,T], got shape {x.shape}")
    if w.ndim != 3:
        raise ValueError(f"conv1d: weight must be rank 3 [Cout,Cin,S], got shape {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"conv1d: input channel axis has size {x.shape[1]}, weight expects {w.shape[1]}"
        )
    if w.shape[2] % 2 == 0:
        raise ValueError(f"conv1d: kernel size must be odd for same padding, got {w.shape[2]}")


def _pad_time(x: np.ndarray, p: int) -> np.ndarray:
    if not p:
        return x
    t = x.shape[2]
    xp = np.zeros(x.shape[:2] + (t + 2 * p,), dtype=x.dtype)
    xp[:, :, p : p + t] = x
    return xp


def _tap_sum(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_j w[:, :, j] @ xp[:, :, j:j+T]`` with ``xp`` = ``x`` [N,Cin,T]
    zero-padded by (S-1)/2 on each side of the time axis, for ``w``
    [Cout,Cin,S]. The contraction is chosen from the shapes alone, as the
    one that moves fewer bytes:

    - Cin < Cout and S > 1: ``xp`` is unfolded once into tap-minor columns
      [N, Cin*S, T] and contracted with ``w.reshape(Cout, Cin*S)`` in one
      batched matmul (im2col). The columns cost Cin*S*T per map, less than
      the Cout*T output that the per-tap sum reads and writes S times.
    - Otherwise one matmul per tap, batched over the maps, accumulated into
      the output: where Cin >= Cout the columns would outweigh the output.
    """
    n, c_in, t_out = x.shape
    c_out, _, s = w.shape
    xp = _pad_time(x, (s - 1) // 2)
    if c_in < c_out and s > 1:
        cols = sliding_window_view(xp, t_out, axis=2).reshape(n, c_in * s, t_out)
        return w.reshape(c_out, c_in * s) @ cols
    out = w[:, :, 0] @ xp[:, :, :t_out]
    for j in range(1, s):
        out += w[:, :, j] @ xp[:, :, j : j + t_out]
    return out


def conv1d(x, w):
    """Same-padded cross-correlation over the last axis: [N,Cin,T] x [Cout,Cin,S] -> [N,Cout,T],
    for an odd kernel size S. It adds no bias: as with :func:`matmul`, a
    caller that needs one adds it.

    With ``xp`` the input zero-padded by (S-1)/2 on each side,
    ``out = sum_j w[:, :, j] @ xp[:, :, j:j+T]``. :func:`_tap_sum` picks
    the contraction from the shapes: a narrow input (Cin < Cout, S > 1) is
    unfolded into [N, Cin*S, T] columns for one batched matmul, and every
    other shape runs one matmul per tap. The padded input and the columns
    are temporaries the tape does not keep.
    """
    xv, wv = value_of(x), value_of(w)
    _conv1d_check(xv, wv)
    return _node("conv1d", _tap_sum(xv, wv), (x, w))


def _horner(coeffs, a: np.ndarray) -> np.ndarray:
    """The polynomial ``coeffs`` (highest degree first) at ``a``, in one new buffer."""
    out = a * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= a
        out += c
    return out


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, Phi(x) = 0.5 + copysign(0.5 - tail(|x|), x),
    with the tail from Hart's rational (see ``_CDF_P``). Its absolute error
    against ``0.5 * (1 + erf(x / sqrt(2)))`` is at most 4.5e-16 (2 ulp at
    1) over [-40, 40]; +-inf give 1 and 0, and NaN stays NaN. Returns a new
    C-ordered array of ``x``'s shape, 0-d included."""
    # Worked in place over one flat buffer, a block at a time. out= keeps a
    # 0-d result an array: a ufunc on a 0-d array returns a scalar.
    phi = np.abs(x, out=np.empty(x.shape))
    flat = phi.reshape(-1)
    np.minimum(flat, _CDF_CLAMP, out=flat)
    for start in range(0, flat.size, _BLOCK):
        a = flat[start : start + _BLOCK]
        tail = _horner(_CDF_P, a)
        den = _horner(_CDF_Q, a)
        a *= a
        a *= -0.5
        np.exp(a, out=a)
        a *= tail
        a /= den
        np.subtract(0.5, a, out=a)
    np.copysign(phi, x, out=phi)
    phi += 0.5
    return phi


def gelu(x):
    """Exact-CDF GELU (Hendrycks & Gimpel 2016): x * Phi(x), with Phi the
    standard normal CDF computed by :func:`_normal_cdf` (Hart's rational,
    within 4.5e-16 of the erf form)."""
    xv = value_of(x)
    phi = _normal_cdf(xv)
    return _node("gelu", xv * phi, (x,), {"phi": phi})


def softmax(x):
    """Numerically stabilized softmax along the last axis."""
    xv = value_of(x)
    e = np.exp(xv - xv.max(axis=-1, keepdims=True))
    return _node("softmax", e / e.sum(axis=-1, keepdims=True), (x,))


def instance_norm(x, gamma, beta):
    """Per-(sample, channel) normalization over the time axis of [N,C,T]."""
    xv, gv, bv = value_of(x), value_of(gamma), value_of(beta)
    if xv.ndim != 3:
        raise ValueError(f"instance_norm: input must be rank 3 [N,C,T], got shape {xv.shape}")
    if xv.shape[2] < 2:
        raise ValueError(f"instance_norm: time axis must have length >= 2, got {xv.shape[2]}")
    if gv.shape != (xv.shape[1],) or bv.shape != (xv.shape[1],):
        raise ValueError(
            f"instance_norm: affine parameters must have shape ({xv.shape[1]},), "
            f"got gamma {gv.shape} and beta {bv.shape}"
        )
    # The centred copy is made once and scaled into xhat in place; the
    # variance sums its squares as np.var does, so the result is bit-identical.
    # The squares' buffer then takes the output.
    xhat = xv - xv.mean(axis=2, keepdims=True)
    out = np.square(xhat)
    var = out.mean(axis=2, keepdims=True)  # population variance
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat *= inv
    _scale_shift(gv, xhat, bv, out)
    return _node("instance_norm", out, (x, gamma, beta), {"xhat": xhat, "inv": inv})


def _scale_shift(gamma: np.ndarray, xhat: np.ndarray, beta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``gamma * xhat + beta`` per channel of [N, C, T] ``xhat``, written
    into ``out``: the norm's output, as its forward and its rebuild form it."""
    np.multiply(gamma[None, :, None], xhat, out=out)
    out += beta[None, :, None]
    return out


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _bwd_add(node, grad, vals):
    a, b = vals
    return [_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)]


def _bwd_mul(node, grad, vals):
    a, b = vals
    return [_unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)]


def _bwd_matmul(node, grad, vals):
    a, b = vals
    return [grad @ b.T, a.T @ grad]


def _bwd_bmm(node, grad, vals):
    a, b = vals
    return [np.einsum("nik,njk->nij", grad, b), np.einsum("nij,nik->njk", a, grad)]


def _bwd_reshape(node, grad, vals):
    return [grad.reshape(vals[0].shape)]


def _bwd_concat(node, grad, vals):
    axis = node.ctx["axis"]
    stops = itertools.accumulate(v.shape[axis] for v in vals)
    return [grad[_axis_index(grad.ndim, axis, stop - v.shape[axis], stop)] for v, stop in zip(vals, stops)]


class Region(NamedTuple):
    """A gradient that is zero outside ``index``: the input's gradient
    (of shape ``shape``) gains ``piece`` at ``index``. ``index`` names each
    element at most once, so ``acc[index] += piece`` adds every entry."""

    shape: tuple[int, ...]
    index: object
    piece: np.ndarray


def _bwd_slice(node, grad, vals):
    shape, ctx = vals[0].shape, node.ctx
    return [Region(shape, _axis_index(len(shape), ctx["axis"], ctx["start"], ctx["stop"]), grad)]


def _bwd_take_rows(node, grad, vals):
    return [Region(vals[0].shape, node.ctx["idx"], grad)]


def _bwd_scatter_rows(node, grad, vals):
    return [grad[node.ctx["idx"]]]


def _bwd_sum(node, grad, vals):
    return [np.full(vals[0].shape, grad)]


def _bwd_mean(node, grad, vals):
    shape, axis = vals[0].shape, node.ctx["axis"]
    return [np.broadcast_to(np.expand_dims(grad / shape[axis], axis), shape).copy()]


def _bwd_conv1d(node, grad, vals):
    """Per-tap transpose of :func:`conv1d`; the input is re-padded from its value.

    With ``p = (S-1)/2``, ``dw[:, :, j] = sum_n grad[n] @ xp[n, :, j:j+T].T``,
    one batched matmul per tap. ``dx`` is the same tap sum as the forward,
    run over ``grad`` with the kernel flipped in time and transposed (tap j
    becomes ``w[:, :, S-1-j].T``); the symmetric padding is its own mirror
    image. That equals accumulating ``dxp[:, :, j:j+T] += w[:, :, j].T @
    grad`` and dropping the padding, without building ``dxp``.
    :func:`_tap_sum` picks its contraction from the flipped kernel's shape,
    so the dx of a narrow-input conv (Cout >= Cin) runs per tap.
    """
    x, w = vals
    s, t_out = w.shape[2], grad.shape[2]
    xp = _pad_time(x, (s - 1) // 2)
    dw = np.empty_like(w)
    for j in range(s):
        dw[:, :, j] = (grad @ xp[:, :, j : j + t_out].transpose(0, 2, 1)).sum(axis=0)
    dx = _tap_sum(grad, w[:, :, ::-1].transpose(1, 0, 2))
    return [dx, dw]


def _bwd_gelu(node, grad, vals):
    """``grad * (phi + x * pdf(x))``, evaluated in one new buffer in place:
    each step is the same float operation as the out-of-place form. out=
    keeps a 0-d buffer an array, as in :func:`_normal_cdf`."""
    (x,) = vals
    out = np.multiply(x, -0.5, out=np.empty(x.shape))
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT2PI  # pdf
    np.multiply(x, out, out=out)
    out += node.ctx["phi"]
    out *= grad
    return [out]


def _bwd_softmax(node, grad, vals):
    y = node.value
    return [y * (grad - (grad * y).sum(axis=-1, keepdims=True))]


def _bwd_instance_norm(node, grad, vals):
    """``dbeta`` and ``dgamma`` are sums over the whole map; the product
    ``dgamma`` sums is made in ``dx``'s buffer. ``dx = inv * (gh - mean(gh)
    - xhat * mean(gh * xhat))``, ``gh = grad * gamma``, reads one (sample,
    channel) row at a time, so it is evaluated a block of samples at a time
    in two block-sized temporaries that every block reuses; each row gets
    the same float operations, in the same order, as the whole-map form."""
    _, gamma, _ = vals
    xhat, inv = node.ctx["xhat"], node.ctx["inv"]
    dbeta = grad.sum(axis=(0, 2))
    dx = grad * xhat
    dgamma = dx.sum(axis=(0, 2))
    n, c, t = grad.shape
    rows = max(1, _BLOCK // (c * t))
    gh_buf, tmp_buf = np.empty((2, min(rows, n), c, t))
    for start in range(0, n, rows):
        blk = slice(start, start + rows)
        out = dx[blk]
        gh = np.multiply(grad[blk], gamma[None, :, None], out=gh_buf[: len(out)])
        tmp = np.multiply(gh, xhat[blk], out=tmp_buf[: len(out)])
        scale = tmp.mean(axis=2, keepdims=True)
        np.subtract(gh, gh.mean(axis=2, keepdims=True), out=out)
        out -= np.multiply(xhat[blk], scale, out=tmp)
        out *= inv[blk]
    return [dx, dgamma, dbeta]


_BACKWARD: dict[str, Callable] = {
    "add": _bwd_add,
    "mul": _bwd_mul,
    "matmul": _bwd_matmul,
    "bmm": _bwd_bmm,
    "reshape": _bwd_reshape,
    "concat": _bwd_concat,
    "slice": _bwd_slice,
    "take_rows": _bwd_take_rows,
    "scatter_rows": _bwd_scatter_rows,
    "sum": _bwd_sum,
    "mean": _bwd_mean,
    "conv1d": _bwd_conv1d,
    "gelu": _bwd_gelu,
    "softmax": _bwd_softmax,
    "instance_norm": _bwd_instance_norm,
}

# Input positions whose values each op's rule (or, for instance_norm's
# beta, its rebuild) reads; every other rule reads only its inputs' shapes
# (softmax reads its own output, which is held).
_READS: dict[str, tuple[int, ...]] = {
    "mul": (0, 1),
    "matmul": (0, 1),
    "bmm": (0, 1),
    "conv1d": (0, 1),
    "gelu": (0,),
    "instance_norm": (1, 2),
}


# ---------------------------------------------------------------------------
# rebuilding kept values
# ---------------------------------------------------------------------------
# Each rebuild repeats its forward's float operations on the same operands,
# in plain numpy, so a rebuilt value equals the forward's bit for bit and
# records nothing. ``inputs`` are the node's input nodes (``Node.recipe``).


def _rebuild_slice(node, inputs):
    ctx = node.ctx
    return inputs[0].value[_axis_index(len(node.shape), ctx["axis"], ctx["start"], ctx["stop"])]


def _rebuild_reshape(node, inputs):
    return inputs[0].value.reshape(node.shape)


def _rebuild_mul(node, inputs):
    return inputs[0].value * inputs[1].value


def _rebuild_gelu(node, inputs):
    return inputs[0].value * node.ctx["phi"]


def _rebuild_instance_norm(node, inputs):
    xhat = node.ctx["xhat"]
    return _scale_shift(inputs[1].value, xhat, inputs[2].value, np.empty_like(xhat))


_REBUILD: dict[str, Callable] = {
    "slice": _rebuild_slice,
    "reshape": _rebuild_reshape,
    "mul": _rebuild_mul,
    "gelu": _rebuild_gelu,
    "instance_norm": _rebuild_instance_norm,
}

# Rules whose gradients may be views of the incoming gradient (shared with
# another input or id); every other rule returns fresh arrays.
_VIEW_RULES = frozenset(("add", "reshape", "concat"))


def backward(graph: Graph, loss) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss node with respect to every reached leaf.

    The tape is replayed in reverse. Gradients accumulate additively across
    fan-out, and each non-leaf node's gradient is dropped once its rule has
    run, so only the gradients still to be consumed are alive at any time.
    The returned map is keyed by leaf id; a leaf the loss does not reach is
    absent (use ``.get(id)``).
    A rule is handed each input's ``Node.value``: the held value of a leaf
    or of an input ``_READS`` declares, a NaN stand-in of its shape
    otherwise. A kept value with a recipe (the norm output, the slices and
    reshapes over it, the GELU output and the gated product) is rebuilt
    when the first rule reads it, at the top of its block's backward, and
    lives until its own node is passed: once per backward.

    Backward consumes the graph: once a non-leaf node's rule has run, its
    held value, recipe and ctx are dropped. Every consumer that reads the
    node has a larger id, so its rule has already run. Leaves keep their
    values; a second ``backward`` on the same graph raises ``ValueError``.

    A rule returns one gradient per input: a full array, or a
    :class:`Region` when the gradient is zero outside a few rows or a
    slice. The first gradient an input gets becomes its accumulator, and
    later ones are added into it in place, once backward owns it: a region
    is added into fresh zeros, and a fresh array from a rule outside
    ``_VIEW_RULES`` is owned as it is. An accumulator that a view rule
    handed out (possibly a view other ids share) is never written: the
    first add into it allocates (``acc + g``) or copies.
    """
    loss_id = loss.id if isinstance(loss, Var) else int(loss)
    loss_node = graph.nodes[loss_id]
    if loss_node.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss_node.shape}")
    if graph.spent:
        raise ValueError("backward: this graph was consumed by an earlier backward; record a new one")
    graph.spent = True
    grads: dict[int, np.ndarray] = {loss_id: np.asarray(1.0)}
    owned: set[int] = set()  # ids whose accumulator backward may write
    for nid in range(loss_id, -1, -1):
        node = graph.nodes[nid]
        if node.op == "leaf" or nid not in grads:
            continue
        grad = grads.pop(nid)
        vals = [graph.nodes[i].value for i in node.inputs]
        for input_id, g in zip(node.inputs, _BACKWARD[node.op](node, grad, vals)):
            acc = grads.get(input_id)
            if isinstance(g, Region):
                if acc is None:
                    acc = np.zeros(g.shape)
                elif input_id not in owned:
                    acc = acc.copy()
                acc[g.index] += g.piece
                owned.add(input_id)
            elif acc is None:
                acc = np.asarray(g, dtype=np.float64)
                if node.op not in _VIEW_RULES:
                    owned.add(input_id)
            elif input_id in owned:
                acc += g
            else:
                acc = acc + g
                owned.add(input_id)
            grads[input_id] = acc
        node.held = node.recipe = None
        node.ctx = {}
    return grads


def finite_diff_check(f, point, h: float = 1e-4) -> float:
    """Max relative disagreement between tape and central-difference gradients.

    ``f`` maps one tensor to a scalar. It is called once on a graph leaf
    for the analytic gradient and 2 * numel times on plain arrays for the
    finite-difference estimate, so the two routes share no code path.
    """
    if h <= 0:
        raise ValueError("finite_diff_check: h must be > 0")
    point = as_tensor(point)
    graph = Graph()
    x = graph.leaf(point)
    loss = f(x)
    if isinstance(loss, Var):
        grads = backward(graph, loss)
        g_ad = grads.get(x.id, np.zeros_like(point)).ravel()
    else:
        # The output never touched the leaf (e.g. a parameter that only
        # steers a discrete routing decision): analytic gradient is zero.
        if np.asarray(loss).shape != ():
            raise ValueError("finite_diff_check: f must return a scalar")
        g_ad = np.zeros(point.size)

    flat = point.ravel()
    g_fd = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        up = float(value_of(f(bumped.reshape(point.shape))))
        bumped[i] = flat[i] - h
        down = float(value_of(f(bumped.reshape(point.shape))))
        g_fd[i] = (up - down) / (2.0 * h)

    denom = np.maximum(1.0, np.maximum(np.abs(g_fd), np.abs(g_ad)))
    return float((np.abs(g_fd - g_ad) / denom).max()) if flat.size else 0.0

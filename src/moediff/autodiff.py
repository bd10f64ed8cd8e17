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
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .tensor import as_tensor

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORM_EPS = 1e-5  # instance_norm variance floor


@dataclass
class Node:
    """One tape entry. ``held`` is the forward value when a backward rule
    reads it: a leaf's, a softmax output's, or an input's named in
    ``_READS`` by a consumer; :func:`backward` drops it from each non-leaf
    node it has passed. Otherwise it is ``None`` and ``value`` is a
    read-only NaN stand-in of ``shape``, enough for the rules that read
    only shapes; a rule that read it would give NaN gradients."""

    op: str
    inputs: tuple[int, ...]
    shape: tuple[int, ...]
    ctx: dict = field(default_factory=dict)
    held: np.ndarray | None = None

    @property
    def value(self) -> np.ndarray:
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
    The inputs ``_READS`` names for ``op`` are held on the tape from here
    on. Backward rules read input shapes from the input values, so ``ctx``
    holds only what those values do not."""
    g = _graph_of(*args)
    if g is None:
        return out
    ids = tuple(a.id if isinstance(a, Var) else g.leaf(a).id for a in args)
    for k in _READS.get(op, ()):
        if isinstance(args[k], Var):
            g.nodes[args[k].id].held = args[k].value
    return g._record(op, ids, out, {} if ctx is None else ctx)


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


def sub(a, b):
    return _node("sub", value_of(a) - value_of(b), (a, b))


def mul(a, b):
    return _node("mul", value_of(a) * value_of(b), (a, b))


def scale(a, s: float):
    """Multiply by a python scalar without creating a constant leaf."""
    return _node("scale", value_of(a) * s, (a,), {"s": float(s)})


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


def transpose(a, axes):
    return _node("transpose", np.transpose(value_of(a), axes), (a,), {"axes": tuple(axes)})


def concat(parts, axis: int = 0):
    out = np.concatenate([value_of(p) for p in parts], axis=axis)
    return _node("concat", out, parts, {"axis": axis})


def slice_axis(a, axis: int, start: int, stop: int):
    av = value_of(a)
    index = [slice(None)] * av.ndim
    index[axis] = slice(start, stop)
    out = av[tuple(index)]
    if not isinstance(a, Var):
        return np.ascontiguousarray(out)
    return _node("slice", out, (a,), {"axis": axis, "start": start, "stop": stop})


def take_rows(a, idx):
    idx = np.asarray(idx, dtype=np.intp)
    out = value_of(a)[idx]
    if not isinstance(a, Var):
        return out
    return _node("take_rows", out, (a,), {"idx": idx, "repeats": len(np.unique(idx)) != len(idx)})


def scatter_rows(a, idx, n: int):
    """Rows of ``a`` placed at positions ``idx`` of a zero tensor with ``n`` rows."""
    idx = np.asarray(idx, dtype=np.intp)
    av = value_of(a)
    out = np.zeros((n,) + av.shape[1:])
    out[idx] = av
    return _node("scatter_rows", out, (a,), {"idx": idx})


def gather_cols(a, idx):
    """out[n] = a[n, idx[n]] for a 2-d input."""
    idx = np.asarray(idx, dtype=np.intp)
    av = value_of(a)
    if av.ndim != 2:
        raise ValueError(f"gather_cols: expected 2-d input, got shape {av.shape}")
    return _node("gather_cols", av[np.arange(av.shape[0]), idx], (a,), {"idx": idx})


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


def _conv1d_check(x, w, b):
    if x.ndim != 3:
        raise ValueError(f"conv1d: input must be rank 3 [N,Cin,T], got shape {x.shape}")
    if w.ndim != 3:
        raise ValueError(f"conv1d: weight must be rank 3 [Cout,Cin,S], got shape {w.shape}")
    if b.ndim != 1 or b.shape[0] != w.shape[0]:
        raise ValueError(
            f"conv1d: bias axis has size {b.shape}, weight output axis has size {w.shape[0]}"
        )
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
    - Cin = S = 1: the broadcast product ``w[:, :, 0] * x``, bit-identical
      to the size-1 matmul it replaces.
    - Otherwise one matmul per tap, batched over the maps, accumulated into
      the output: where Cin >= Cout the columns would outweigh the output.
    """
    n, c_in, t_out = x.shape
    c_out, _, s = w.shape
    if c_in == 1 and s == 1:
        return w[:, :, 0] * x
    xp = _pad_time(x, (s - 1) // 2)
    if c_in < c_out and s > 1:
        cols = sliding_window_view(xp, t_out, axis=2).reshape(n, c_in * s, t_out)
        return w.reshape(c_out, c_in * s) @ cols
    out = w[:, :, 0] @ xp[:, :, :t_out]
    for j in range(1, s):
        out += w[:, :, j] @ xp[:, :, j : j + t_out]
    return out


def conv1d(x, w, b):
    """Same-padded cross-correlation over the last axis: [N,Cin,T] x [Cout,Cin,S] -> [N,Cout,T],
    for an odd kernel size S.

    With ``xp`` the input zero-padded by (S-1)/2 on each side,
    ``out = sum_j w[:, :, j] @ xp[:, :, j:j+T] + b``. :func:`_tap_sum`
    picks the contraction from the shapes: a narrow input (Cin < Cout,
    S > 1) is unfolded into [N, Cin*S, T] columns for one batched matmul,
    a one-channel kernel-1 conv is a broadcast product, and every other
    shape runs one matmul per tap. The padded input and the columns are
    temporaries the tape does not keep.
    """
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    _conv1d_check(xv, wv, bv)
    out = _tap_sum(xv, wv)
    out += bv[:, None]
    return _node("conv1d", out, (x, w, b))


def gelu(x):
    """Exact-CDF GELU: x * Phi(x) with Phi the standard normal CDF (erf form)."""
    xv = value_of(x)
    phi = 0.5 * (1.0 + erf(xv * _INV_SQRT2))
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
    xhat = xv - xv.mean(axis=2, keepdims=True)
    var = np.square(xhat).mean(axis=2, keepdims=True)  # population variance
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat *= inv
    out = gv[None, :, None] * xhat
    out += bv[None, :, None]
    return _node("instance_norm", out, (x, gamma, beta), {"xhat": xhat, "inv": inv})


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _bwd_add(node, grad, vals):
    a, b = vals
    return [_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)]


def _bwd_sub(node, grad, vals):
    a, b = vals
    return [_unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape)]


def _bwd_mul(node, grad, vals):
    a, b = vals
    return [_unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)]


def _bwd_scale(node, grad, vals):
    return [grad * node.ctx["s"]]


def _bwd_matmul(node, grad, vals):
    a, b = vals
    return [grad @ b.T, a.T @ grad]


def _bwd_bmm(node, grad, vals):
    a, b = vals
    return [np.einsum("nik,njk->nij", grad, b), np.einsum("nij,nik->njk", a, grad)]


def _bwd_reshape(node, grad, vals):
    return [grad.reshape(vals[0].shape)]


def _bwd_transpose(node, grad, vals):
    return [np.transpose(grad, np.argsort(node.ctx["axes"]))]


def _bwd_concat(node, grad, vals):
    axis = node.ctx["axis"]
    splits = np.cumsum([v.shape[axis] for v in vals[:-1]])
    return list(np.split(grad, splits, axis=axis))


class Region(NamedTuple):
    """A gradient that is zero outside ``index``: the input's gradient
    (of shape ``shape``) gains ``piece`` at ``index``. ``index`` names each
    element at most once, so ``acc[index] += piece`` adds every entry."""

    shape: tuple[int, ...]
    index: object
    piece: np.ndarray


def _bwd_slice(node, grad, vals):
    shape = vals[0].shape
    index = [slice(None)] * len(shape)
    index[node.ctx["axis"]] = slice(node.ctx["start"], node.ctx["stop"])
    return [Region(shape, tuple(index), grad)]


def _bwd_take_rows(node, grad, vals):
    shape, idx = vals[0].shape, node.ctx["idx"]
    if not node.ctx["repeats"]:
        return [Region(shape, idx, grad)]
    rows, where = np.unique(idx, return_inverse=True)
    piece = np.zeros((len(rows),) + grad.shape[1:])
    np.add.at(piece, where, grad)
    return [Region(shape, rows, piece)]


def _bwd_scatter_rows(node, grad, vals):
    return [grad[node.ctx["idx"]]]


def _bwd_gather_cols(node, grad, vals):
    shape = vals[0].shape
    return [Region(shape, (np.arange(shape[0]), node.ctx["idx"]), grad)]


def _bwd_sum(node, grad, vals):
    return [np.full(vals[0].shape, grad)]


def _bwd_mean(node, grad, vals):
    shape, axis = vals[0].shape, node.ctx["axis"]
    return [np.broadcast_to(np.expand_dims(grad / shape[axis], axis), shape).copy()]


def _bwd_conv1d(node, grad, vals):
    """Per-tap transpose of :func:`conv1d`; the input is re-padded from its value.

    With ``p = (S-1)/2``, ``dw[:, :, j] = sum_n grad[n] @ xp[n, :, j:j+T].T``,
    one batched matmul per tap; ``db`` sums ``grad`` over maps and time.
    ``dx`` is the same tap sum as the forward, run over ``grad`` with the
    kernel flipped in time and transposed (tap j becomes
    ``w[:, :, S-1-j].T``); the symmetric padding is its own mirror image.
    That equals accumulating ``dxp[:, :, j:j+T] += w[:, :, j].T @ grad``
    and dropping the padding, without building ``dxp``. :func:`_tap_sum`
    picks its contraction from the flipped kernel's shape, so the dx of a
    narrow-input conv (Cout >= Cin) runs per tap.
    """
    x, w, _ = vals
    s, t_out = w.shape[2], grad.shape[2]
    xp = _pad_time(x, (s - 1) // 2)
    dw = np.empty_like(w)
    for j in range(s):
        dw[:, :, j] = (grad @ xp[:, :, j : j + t_out].transpose(0, 2, 1)).sum(axis=0)
    dx = _tap_sum(grad, w[:, :, ::-1].transpose(1, 0, 2))
    return [dx, dw, grad.sum(axis=(0, 2))]


def _bwd_gelu(node, grad, vals):
    (x,) = vals
    phi = node.ctx["phi"]
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return [grad * (phi + x * pdf)]


def _bwd_softmax(node, grad, vals):
    y = node.value
    return [y * (grad - (grad * y).sum(axis=-1, keepdims=True))]


def _bwd_instance_norm(node, grad, vals):
    _, gamma, _ = vals
    xhat, inv = node.ctx["xhat"], node.ctx["inv"]
    dbeta = grad.sum(axis=(0, 2))
    dgamma = (grad * xhat).sum(axis=(0, 2))
    gh = grad * gamma[None, :, None]
    # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), evaluated in place.
    dx = gh - gh.mean(axis=2, keepdims=True)
    dx -= xhat * (gh * xhat).mean(axis=2, keepdims=True)
    dx *= inv
    return [dx, dgamma, dbeta]


_BACKWARD: dict[str, Callable] = {
    "add": _bwd_add,
    "sub": _bwd_sub,
    "mul": _bwd_mul,
    "scale": _bwd_scale,
    "matmul": _bwd_matmul,
    "bmm": _bwd_bmm,
    "reshape": _bwd_reshape,
    "transpose": _bwd_transpose,
    "concat": _bwd_concat,
    "slice": _bwd_slice,
    "take_rows": _bwd_take_rows,
    "scatter_rows": _bwd_scatter_rows,
    "gather_cols": _bwd_gather_cols,
    "sum": _bwd_sum,
    "mean": _bwd_mean,
    "conv1d": _bwd_conv1d,
    "gelu": _bwd_gelu,
    "softmax": _bwd_softmax,
    "instance_norm": _bwd_instance_norm,
}

# Input positions whose values each op's rule reads; every other rule reads
# only its inputs' shapes (softmax reads its own output, which is held).
_READS: dict[str, tuple[int, ...]] = {
    "mul": (0, 1),
    "matmul": (0, 1),
    "bmm": (0, 1),
    "conv1d": (0, 1),
    "gelu": (0,),
    "instance_norm": (1,),
}


def backward(graph: Graph, loss) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss node with respect to every reached leaf.

    The tape is replayed in reverse. Gradients accumulate additively across
    fan-out, and each non-leaf node's gradient is dropped once its rule has
    run, so only the gradients still to be consumed are alive at any time.
    The returned map is keyed by leaf id; a leaf the loss does not reach is
    absent (use ``.get(id)``).
    A rule is handed each input's ``Node.value``: the held value of a leaf
    or of an input ``_READS`` declares, a NaN stand-in of its shape otherwise.

    Backward consumes the graph: once a non-leaf node's rule has run, its
    held value and ctx are dropped. Every consumer that reads the node has
    a larger id, so its rule has already run. Leaves keep their values; a
    second ``backward`` on the same graph raises ``ValueError``.

    A rule returns one gradient per input: a full array, or a
    :class:`Region` when the gradient is zero outside a few rows or a
    slice. A region's piece is added into the input's accumulator in place;
    an accumulator that a rule handed out (possibly a view other ids share)
    is copied once before its first in-place add.
    """
    loss_id = loss.id if isinstance(loss, Var) else int(loss)
    loss_node = graph.nodes[loss_id]
    if loss_node.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss_node.shape}")
    if graph.spent:
        raise ValueError("backward: this graph was consumed by an earlier backward; record a new one")
    graph.spent = True
    grads: dict[int, np.ndarray] = {loss_id: np.asarray(1.0)}
    owned: set[int] = set()  # ids whose accumulator backward allocated itself
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
            else:
                acc = acc + g
                owned.add(input_id)
            grads[input_id] = acc
        node.held = None
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

"""Full noise estimator: parallel per-channel feature stacks over the noisy
signal and the masked condition, per-level FiLM injection, fusion head.

Also home of :class:`ModelSpec`, the one place the model's structure is
stored and checked; of the parameter-tree utilities (one named traversal
that mapping, lifting and checkpoint filling are built on) shared by
training, gradient checks, and the CLI; and of checkpoints that store the
spec they were built from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Var
from .blocks import (
    GATE_MODES,
    Affine,
    FusionMoEParams,
    RFAMoEParams,
    bridge_forward,
    fusion_moe_forward,
    init_bridge,
    init_fusion,
    init_pointwise,
    init_rfamoe,
    rfamoe_forward,
)
from .tensor import read_checkpoint, write_checkpoint


@dataclass
class LevelParams:
    main: RFAMoEParams
    cond: RFAMoEParams
    bridge: Affine  # FiLM: emb @ W, W [d_emb, 2L] (see bridge_forward)


class SpecError(ValueError):
    """A :class:`ModelSpec` value out of range: ``field`` names it and
    ``reason`` says what it must be and what it was."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


@dataclass(frozen=True)
class ModelSpec:
    """The structure of a noise estimator, which :func:`init_backbone`
    builds: checked on construction (a bad value raises
    :class:`SpecError`) and stored in checkpoints as ``meta.<field>``
    records. At depth 0 no RFAMoE block is built and the kernel ladder is
    stored empty."""

    channels: int
    width: int  # feature channels per map
    depth: int  # RFAMoE levels
    kernel_sizes: tuple  # one RFAMoE expert per size
    head_experts: int
    d_emb: int = 64  # step-embedding size
    gate_mode: str = "unit"  # one of GATE_MODES

    def __post_init__(self):
        k = tuple(self.kernel_sizes) if self.depth else ()
        object.__setattr__(self, "kernel_sizes", k)
        ladder = self.depth == 0 or (k and len(set(k)) == len(k) and all(s >= 1 and s % 2 for s in k))
        for name, ok, rule in (
            ("channels", self.channels >= 1, ">= 1"),
            ("width", self.width >= 2 and self.width % 2 == 0, "even and >= 2"),
            ("depth", self.depth >= 0, ">= 0"),
            ("kernel_sizes", ladder, "one or more distinct odd sizes >= 1"),
            ("head_experts", self.head_experts >= 1, ">= 1"),
            ("d_emb", self.d_emb >= 2 and self.d_emb % 2 == 0, "even and >= 2"),
            ("gate_mode", self.gate_mode in GATE_MODES, f"one of {GATE_MODES}"),
        ):
            if not ok:
                raise SpecError(name, f"must be {rule}, got {getattr(self, name)!r}")

    def records(self) -> dict[str, np.ndarray]:
        """The ``meta.<field>`` records; the gate mode is stored as its index
        in GATE_MODES."""
        values = {**asdict(self), "gate_mode": GATE_MODES.index(self.gate_mode)}
        return {f"meta.{key}": np.asarray(v, dtype=np.float64) for key, v in values.items()}

    @classmethod
    def from_records(cls, named: dict[str, np.ndarray]) -> "ModelSpec":
        """The spec that :meth:`records` stored in ``named``; a missing,
        malformed or out-of-range record raises ValueError naming it."""
        values = {}
        for f in fields(cls):
            name = f"meta.{f.name}"
            if name not in named:
                raise ValueError(
                    f"checkpoint has no record {name!r}: checkpoints without a stored model spec "
                    "are not supported"
                )
            v = named[name]
            ndim = 1 if f.name == "kernel_sizes" else 0
            if v.ndim != ndim or not np.all(np.isfinite(v) & (v == np.floor(v))):
                raise ValueError(f"checkpoint record {name!r} holds {v.tolist()}, not a valid {f.name}")
            values[f.name] = tuple(int(s) for s in v) if ndim else int(v)
        mode = values["gate_mode"]
        values["gate_mode"] = GATE_MODES[mode] if 0 <= mode < len(GATE_MODES) else mode
        try:
            return cls(**values)
        except SpecError as exc:
            raise ValueError(f"checkpoint record 'meta.{exc.field}': {exc}") from None


@dataclass
class BackboneParams:
    lift_xt: Affine  # W @ x, W [L, 1]: pointwise lift
    lift_cond: Affine  # W @ x, W [L, 1]
    levels: list  # LevelParams
    head: FusionMoEParams
    spec: ModelSpec  # holds no parameters


def init_backbone(rng: np.random.Generator, spec: ModelSpec) -> BackboneParams:
    levels = [
        LevelParams(
            main=init_rfamoe(rng, spec.width, spec.channels, spec.kernel_sizes),
            cond=init_rfamoe(rng, spec.width, spec.channels, spec.kernel_sizes),
            bridge=init_bridge(rng, spec.d_emb, spec.width),
        )
        for _ in range(spec.depth)
    ]
    return BackboneParams(
        lift_xt=init_pointwise(rng, spec.width, 1),
        lift_cond=init_pointwise(rng, spec.width, 1),
        levels=levels,
        head=init_fusion(rng, spec.width, spec.head_experts),
        spec=spec,
    )


def _check_inputs(where: str, x, params: BackboneParams) -> tuple[int, int, int]:
    """(B, C, Tlen) of a [B, C, Tlen] input with the channels ``params`` expects."""
    if x.ndim != 3:
        raise ValueError(f"{where}: inputs must be [B, C, Tlen], got shape {x.shape}")
    if x.shape[1] != params.spec.channels:
        raise ValueError(
            f"{where}: input has {x.shape[1]} channels, parameters were built for {params.spec.channels}"
        )
    return x.shape


def _lift(x, lift: Affine):
    """The pointwise lift of [B, C, Tlen] ``x`` to [N, L, T] maps, and the
    same lift as the first block's source: ``z = [x, 1]`` per map and the
    [2, L, 1] map ``m`` whose rows are the lift's weight and bias, which
    a kernel-1 conv composes into each expert (see :func:`rfamoe_forward`)."""
    b, c, t_len = ad.value_of(x).shape
    x1 = ad.reshape(x, (b * c, 1, t_len))
    h = ad.add(ad.mul(x1, lift.weight), ad.reshape(lift.bias, (-1, 1)))
    z = ad.concat([x1, np.ones((b * c, 1, t_len))], axis=1)
    m = ad.concat([ad.reshape(p, (1, -1, 1)) for p in (lift.weight, lift.bias)], axis=0)
    return h, (z, m)


def condition_features(x_bar, params: BackboneParams) -> list:
    """Run the condition path over the masked condition ``x_bar`` [B, C, Tlen].

    Returns one [N, L, T] map per level (N = B*C), the input to that
    level's FiLM bridge. The maps depend on ``x_bar`` and the weights only,
    never on the noisy signal or the step, so a sampler computes them once
    and hands them to every :func:`noise_estimate` call as ``cond``.
    """
    _check_inputs("condition_features", ad.value_of(x_bar), params)
    h, source = _lift(x_bar, params.lift_cond)
    maps = []
    for level in params.levels:
        h = rfamoe_forward(h, level.cond, source)
        maps.append(h)
        source = None  # only the first level reads the lifted signal
    return maps


def noise_estimate(x_t, x_bar, t, params: BackboneParams, head_gates=None, *, cond=None):
    """Predict the injected noise from (x_t, masked condition, step t).

    Inputs are [B, C, Tlen]; each of the N = B*C channels becomes an
    independent feature map. ``t`` is one step for the batch or B steps,
    one per batch row. ``cond`` holds the per-level [N, L, T] condition
    maps of :func:`condition_features` for ``x_bar``; when None they are
    computed here. Each level FiLM-injects its condition map into the main
    path; the fusion head collapses the final width-L features back to one
    value per timestep.
    """
    xv, cv = ad.value_of(x_t), ad.value_of(x_bar)
    if xv.shape != cv.shape:
        raise ValueError(f"noise_estimate: x_t shape {xv.shape} != x_bar shape {cv.shape}")
    b, c, t_len = _check_inputs("noise_estimate", xv, params)
    steps = np.asarray(t)
    if steps.shape not in ((), (b,)):
        raise ValueError(
            f"noise_estimate: step t has shape {steps.shape}, inputs {xv.shape} need () or ({b},)"
        )
    if np.any(steps < 1):
        raise ValueError(f"noise_estimate: step must be >= 1, got {steps.tolist()}")
    if steps.ndim:
        steps = np.repeat(steps, c)  # one step per feature map
    n = b * c
    if cond is None:
        cond = condition_features(x_bar, params)
    want = (n, params.spec.width, t_len)
    shapes = [ad.value_of(m).shape for m in cond]
    if len(shapes) != params.spec.depth or any(s != want for s in shapes):
        raise ValueError(
            f"noise_estimate: condition maps have shapes {shapes}, inputs {xv.shape} "
            f"need {params.spec.depth} of {want}"
        )
    h, source = _lift(x_t, params.lift_xt)
    for level, cond_map in zip(params.levels, cond):
        # Rebinding h drops each map once it is read: the level's input
        # after the block, the block's output after the FiLM add.
        h = rfamoe_forward(h, level.main, source)
        h = ad.add(h, bridge_forward(cond_map, steps, level.bridge))
        source = None
    out = fusion_moe_forward(h, params.head, gates_override=head_gates)  # [N, 1, T]
    return ad.reshape(out, (b, c, t_len))


# ---------------------------------------------------------------------------
# parameter-tree utilities
# ---------------------------------------------------------------------------

_LEAF_TYPES = (np.ndarray, Var)


def _is_param_node(obj) -> bool:
    return (is_dataclass(obj) and not isinstance(obj, ModelSpec)) or isinstance(obj, (list, *_LEAF_TYPES))


def _walk(fn, tree, *others, prefix: str = ""):
    """Rebuild ``tree`` with ``fn(name, leaf, *other_leaves)`` at every
    array/Var leaf, walking ``others`` (trees of the same structure) in
    lockstep. ``name`` is the leaf's dotted path in declaration order, e.g.
    ``levels.0.main.experts.2``."""
    if isinstance(tree, _LEAF_TYPES):
        return fn(prefix, tree, *others)
    dot = f"{prefix}." if prefix else ""
    if isinstance(tree, list):
        return [
            _walk(fn, v, *(o[i] for o in others), prefix=f"{dot}{i}") for i, v in enumerate(tree)
        ]
    updates = {
        f.name: _walk(fn, v, *(getattr(o, f.name) for o in others), prefix=dot + f.name)
        for f in fields(tree)
        if _is_param_node(v := getattr(tree, f.name))
    }
    return replace(tree, **updates)


def named_params(params) -> list:
    """(dotted name, leaf) pairs in a stable declaration order,
    e.g. ``levels.0.main.experts.2``."""
    out = []

    def visit(name, leaf):
        out.append((name, leaf))
        return leaf

    _walk(visit, params)
    return out


def zip_map_params(fn, a, b):
    """Rebuild tree ``a`` with ``fn(leaf_a, leaf_b)`` over matching leaves."""
    return _walk(lambda _, x, y: fn(x, y), a, b)


def lift_params(graph: Graph, params):
    """Clone the tree with every array replaced by a graph leaf."""
    return _walk(lambda _, arr: graph.leaf(arr) if isinstance(arr, np.ndarray) else arr, params)


def grads_like(lifted_params, grad_map: dict[int, np.ndarray]):
    """Gradient tree matching ``lifted_params`` (zeros for unreached leaves)."""

    def pick(_, leaf):
        if not isinstance(leaf, Var):
            raise ValueError("grads_like expects a lifted (Var) parameter tree")
        g = grad_map.get(leaf.id)
        return np.zeros_like(leaf.value) if g is None else g

    return _walk(pick, lifted_params)


def param_count(params) -> int:
    """Exact number of scalar parameters."""
    return int(sum(ad.value_of(v).size for _, v in named_params(params)))


def replace_param(params, target_name: str, value):
    """Clone the tree with the named leaf swapped for ``value``."""
    found = []

    def swap(name, leaf):
        if name != target_name:
            return leaf
        found.append(name)
        return value

    out = _walk(swap, params)
    if not found:
        raise KeyError(f"no parameter named {target_name!r}")
    return out


def fill_params(params, records: dict[str, np.ndarray], prefix: str = ""):
    """Clone the tree with each leaf taken from ``records[prefix + name]``;
    a missing or wrongly shaped record raises ValueError naming it."""

    def take(name, leaf):
        key = prefix + name
        if key not in records:
            raise ValueError(f"checkpoint has no record {key!r}")
        value = records[key]
        if value.shape != leaf.shape:
            raise ValueError(
                f"checkpoint record {key!r} has shape {value.shape}, the model needs {leaf.shape}"
            )
        return value

    return _walk(take, params)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_backbone(path, params: BackboneParams, extra: dict[str, np.ndarray] | None = None) -> None:
    """Write every parameter plus the model spec as ``meta.*`` records."""
    named = {name: np.asarray(ad.value_of(v)) for name, v in named_params(params)}
    named.update(params.spec.records())
    if extra:
        named.update(extra)
    write_checkpoint(path, named)


class _ShapesOnly:
    """Stands in for the RNG of :func:`init_backbone` when every weight is
    about to be replaced: hands back uninitialised arrays, draws nothing."""

    @staticmethod
    def normal(loc, scale, size):
        return np.empty(size)


def load_backbone(path, gate_mode: str = "unit") -> tuple[BackboneParams, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (params, auxiliary ``meta.*``/``opt.*`` records).

    The model is built from the stored spec and every parameter is filled
    by name. A missing, unexpected or wrongly shaped record, or a stored
    gate mode other than ``gate_mode``, raises ValueError.
    """
    named = read_checkpoint(path)
    spec = ModelSpec.from_records(named)
    if spec.gate_mode != gate_mode:
        raise ValueError(
            f"checkpoint was trained with gate_mode={spec.gate_mode!r}, "
            f"cannot load it with gate_mode={gate_mode!r}"
        )
    params = fill_params(init_backbone(_ShapesOnly(), spec), named)
    aux = {k: v for k, v in named.items() if k.startswith(("meta.", "opt."))}
    unexpected = sorted(named.keys() - aux.keys() - {name for name, _ in named_params(params)})
    if unexpected:
        raise ValueError(f"checkpoint record {unexpected[0]!r} is not a parameter of the model")
    return params, aux

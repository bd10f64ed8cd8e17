"""In-memory span recorder that wraps moediff's public functions from outside.

A traced function is wrapped once, and the wrapper is installed wherever
the function is looked up: on its defining module (which covers
module-attribute calls such as ``ad.conv1d`` and calls from inside that
module) and on every ``moediff`` module that imported it by value (for
example ``moediff.diffusion.noise_estimate``). Backward rules are wrapped
in place in ``moediff.autodiff._BACKWARD``.

Each span stores its name, start, end and parent in flat arrays; nothing
is written until :meth:`SpanRecorder.save`. Self time is a span's duration
minus the durations of its direct children (calls are strictly nested:
the program is single-threaded).
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# Forward op name -> function name in moediff.autodiff, for every op that
# has a backward rule.
_OP_FUNCS = {"slice": "slice_axis", "sum": "tsum"}


def _conv1d_flop(args, kwargs, result):
    w = args[1]
    out = getattr(result, "value", result)
    n, c_out, t_out = out.shape
    c_in, s = np.shape(getattr(w, "value", w))[1:]
    return 2.0 * n * c_out * t_out * c_in * s


def _kshot_out(args, kwargs, result):
    """(K, whether the averaged reconstruction is finite)."""
    k = args[3] if len(args) > 3 else kwargs["k"]
    return (int(k), bool(np.isfinite(result).all()))


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _tape(args, kwargs, result):
    """(nodes, bytes) held by the graph handed to ``backward``."""
    nodes = args[0].nodes
    total = 0
    for node in nodes:
        total += node.value.nbytes
        for v in node.ctx.values():
            if isinstance(v, np.ndarray):
                total += v.nbytes
    return (len(nodes), total)


def layer_targets(ad_module):
    """(span name, module, attribute, work hook) for every layer the traced
    run measures."""
    targets = []
    for op in ad_module._BACKWARD:
        hook = _conv1d_flop if op == "conv1d" else None
        targets.append((f"autodiff.op.{op}", "moediff.autodiff", _OP_FUNCS.get(op, op), hook))
    targets += [
        ("autodiff.backward", "moediff.autodiff", "backward", _tape),
        ("blocks.rfamoe_forward", "moediff.blocks", "rfamoe_forward", None),
        ("blocks.fusion_moe_forward", "moediff.blocks", "fusion_moe_forward", None),
        ("blocks.bridge_forward", "moediff.blocks", "bridge_forward", None),
        ("backbone.lift_params", "moediff.backbone", "lift_params", None),
        ("backbone.grads_like", "moediff.backbone", "grads_like", None),
        ("backbone.load_backbone", "moediff.backbone", "load_backbone", None),
        ("backbone.save_backbone", "moediff.backbone", "save_backbone", None),
        ("diffusion.sample", "moediff.diffusion", "sample", None),
        # Only training calls it in the benchmark: the SGD/momentum update.
        ("training.zip_map_params", "moediff.backbone", "zip_map_params", None),
        ("masking.continuous_mask", "moediff.masking", "continuous_mask", None),
        ("metrics.evaluate", "moediff.metrics", "evaluate", None),
        ("tensor.read_checkpoint", "moediff.tensor", "read_checkpoint", _file_bytes),
        ("tensor.write_checkpoint", "moediff.tensor", "write_checkpoint", _file_bytes),
        ("synth.synth_generate", "moediff.synth", "synth_generate", None),
    ]
    return targets


HOOK_SPAN = "trace.hook"

# Boundary spans the end-to-end metrics are computed from; recorded in
# every run, traced or not.
BOUNDARY_TARGETS = [
    ("diffusion.train_step", "moediff.diffusion", "train_step", None),
    ("backbone.noise_estimate", "moediff.backbone", "noise_estimate", None),
    ("diffusion.reverse_step", "moediff.diffusion", "reverse_step", None),
    ("kshot.kshot_average", "moediff.kshot", "kshot_average", _kshot_out),
]


class SpanRecorder:
    """Flat, append-only span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[str, object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, work=None):
        nid, hook_id = self._intern(name), self._intern(HOOK_SPAN)
        name_ids, parents, starts, ends, works = (
            self.name_id, self.parent, self.start, self.end, self.work
        )
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(None)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                ends[i] = perf_counter()
                stack.pop()
                if work is not None and done:
                    # The hook's own time becomes a sibling span, so it is
                    # charged to no layer's self time.
                    h0 = perf_counter()
                    works[i] = work(args, kwargs, result)
                    name_ids.append(hook_id)
                    parents.append(stack[-1] if stack else -1)
                    works.append(None)
                    starts.append(h0)
                    ends.append(perf_counter())

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, targets) -> None:
        """Wrap each target where it is defined and at every by-value importer."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "moediff" or key.startswith("moediff."))
        ]
        for name, module, attr, work in targets:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, work)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((name, holder, key, value))
                        setattr(holder, key, wrapper)

    def install_backward_rules(self, ad_module) -> None:
        table = ad_module._BACKWARD
        for op, rule in list(table.items()):
            name = f"autodiff.bwd.{op}"
            self._patches.append((name, table, op, rule))
            table[op] = self.wrap(name, rule)

    def uninstall(self, keep=()) -> None:
        """Restore every patched lookup except those of the spans in ``keep``."""
        kept = []
        for patch in reversed(self._patches):
            name, holder, key, original = patch
            if name in keep:
                kept.append(patch)
            elif isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches = kept[::-1]

    # -- analysis --------------------------------------------------------

    def table(self, windows=None) -> "SpanTable":
        return SpanTable(self, windows)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class SpanTable:
    """Spans that started inside any of ``windows`` ((t0, t1) pairs; all
    spans when None), with per-span self time."""

    def __init__(self, rec: SpanRecorder, windows=None):
        name_id = np.frombuffer(rec.name_id, dtype=np.int32)
        parent = np.frombuffer(rec.parent, dtype=np.int32)
        start = np.frombuffer(rec.start, dtype=np.float64)
        end = np.frombuffer(rec.end, dtype=np.float64)
        dur = end - start
        covered = np.zeros(len(dur))
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        keep = np.ones(len(dur), dtype=bool)
        if windows is not None:
            keep[:] = False
            for t0, t1 in windows:
                keep |= (start >= t0) & (start <= t1)
        self._rec = rec
        self._index = np.nonzero(keep)[0]
        self._name_id = name_id[keep]
        self.dur = dur[keep]
        self.self_time = (dur - covered)[keep]

    def _mask(self, name: str) -> np.ndarray:
        nid = self._rec._name_ids.get(name, -1)
        return self._name_id == nid

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def work(self, name: str) -> list:
        return [self._rec.work[i] for i in self._index[self._mask(name)]]

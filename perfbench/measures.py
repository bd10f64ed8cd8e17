"""Metric definitions and their computation from spans and run outcomes.

``END_TO_END`` is what a user of moediff sees and is measured with tracing
off; ``PER_LAYER`` comes from the traced run. Per-layer values named
``*_per_step``, ``*.calls`` or ``*.self_ms`` are normalised by the steps of
the traced main units: training steps on ``train-*``, reverse sampler
steps on ``impute-kshot-toy``. Values named ``*.ms`` or ``*.bytes`` are
means per call over set-up and every traced unit.
"""

from __future__ import annotations

import math

import numpy as np

from .spans import SpanTable

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_steps_per_s", "1/s", "higher"),
    ("train_step_ms_p50", "ms", "lower"),
    ("train_step_ms_tail", "ms", "lower"),
    ("final_loss", "mse", "lower"),
    ("sample_step_ms_p50", "ms", "lower"),
    ("sample_step_ms_tail", "ms", "lower"),
    ("kshot_s.k1", "s", "lower"),
    ("kshot_s.k8", "s", "lower"),
    ("prd_missing.k1", "%", "lower"),
    ("prd_missing.k8", "%", "lower"),
    ("ssd_missing.k1", "ssd", "lower"),
    ("ssd_missing.k8", "ssd", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

OPS = ("conv1d", "instance_norm", "gelu", "softmax", "matmul", "bmm", "take_rows", "scatter_rows", "add", "mul")
KS = (1, 2, 4, 8)

PER_LAYER = (
    [(f"autodiff.op.{op}.{kind}", unit, "lower") for op in OPS for kind, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"autodiff.bwd.{op}.self_ms", "ms", "lower") for op in OPS]
    + [
        ("autodiff.backward.calls", "count", "lower"),
        ("autodiff.backward.ms_per_step", "ms", "lower"),
        ("autodiff.tape_nodes_per_step", "count", "lower"),
        ("autodiff.tape_mb_per_step", "MB", "lower"),
        ("autodiff.conv1d.gflop", "GFLOP", "lower"),
        ("autodiff.conv1d.gflop_per_s", "GFLOP/s", "higher"),
        ("blocks.rfamoe_forward.self_ms", "ms", "lower"),
        ("blocks.fusion_moe_forward.self_ms", "ms", "lower"),
        ("blocks.bridge_forward.self_ms", "ms", "lower"),
        ("blocks.experts_active_per_call", "count", "lower"),
        ("backbone.noise_estimate.calls_per_train_step", "count", "lower"),
        ("backbone.lift_params.ms", "ms", "lower"),
        ("backbone.grads_like.ms", "ms", "lower"),
        ("backbone.load_backbone.ms", "ms", "lower"),
        ("backbone.save_backbone.ms", "ms", "lower"),
        ("diffusion.train_step.self_ms", "ms", "lower"),
        ("diffusion.sample.ms", "ms", "lower"),
        ("diffusion.reverse_step.ms", "ms", "lower"),
        ("training.update_ms_per_step", "ms", "lower"),
    ]
    + [(f"kshot.kshot_average.ms.k{k}", "ms", "lower") for k in KS]
    + [
        ("masking.continuous_mask.ms", "ms", "lower"),
        ("metrics.evaluate.ms", "ms", "lower"),
        ("tensor.read_checkpoint.ms", "ms", "lower"),
        ("tensor.read_checkpoint.bytes", "B", "lower"),
        ("tensor.write_checkpoint.ms", "ms", "lower"),
        ("tensor.write_checkpoint.bytes", "B", "lower"),
        ("synth.synth_generate.ms", "ms", "lower"),
        ("process.cpu_over_wall", "ratio", "higher"),
        ("trace.overhead_ms_per_step", "ms", "lower"),
    ]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# Spans the per-layer metrics read. Every workload calls each of them at
# least once in its traced run (set-up included), so one that records no
# call means a refactor unhooked a layer, and the traced run fails.
EXPECTED_SPANS = (
    [f"autodiff.op.{op}" for op in OPS]
    + [f"autodiff.bwd.{op}" for op in OPS]
    + [
        "autodiff.backward",
        "blocks.rfamoe_forward",
        "blocks.fusion_moe_forward",
        "blocks.bridge_forward",
        "backbone.noise_estimate",
        "backbone.lift_params",
        "backbone.grads_like",
        "backbone.load_backbone",
        "backbone.save_backbone",
        "diffusion.train_step",
        "diffusion.sample",
        "diffusion.reverse_step",
        "training.zip_map_params",
        "kshot.kshot_average",
        "masking.continuous_mask",
        "metrics.evaluate",
        "tensor.read_checkpoint",
        "tensor.write_checkpoint",
        "synth.synth_generate",
    ]
)


# Highest percentile a tail metric reports. Above it the figure follows a
# shared machine's rare stalls rather than the program: on a 2-core shared
# VM the 99th percentile of the same code's sampler steps ranged from 20 to
# 45 ms between runs.
TAIL_MAX_PCT = 90


def median_and_tail(samples) -> dict:
    """Median, and the highest whole percentile, up to ``TAIL_MAX_PCT``,
    with at least ten samples beyond it (all but one when there are ten or
    fewer)."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n == 0:
        return {"p50": math.nan, "tail": math.nan, "tail_pct": None, "n": 0, "beyond": 0}
    pct = min(TAIL_MAX_PCT, math.floor(100.0 * (n - 10) / n)) if n > 10 else TAIL_MAX_PCT
    while pct > 0 and (x > np.percentile(x, pct)).sum() < min(10, n - 1):
        pct -= 1
    tail = float(np.percentile(x, pct))
    return {
        "p50": float(np.median(x)),
        "tail": tail,
        "tail_pct": pct,
        "n": n,
        "beyond": int((x > tail).sum()),
    }


def sample_steps_ms(spans: SpanTable) -> np.ndarray:
    """One reverse step = its noise estimate plus its ancestral update."""
    est = spans.durations("backbone.noise_estimate")
    upd = spans.durations("diffusion.reverse_step")
    if len(est) != len(upd):
        raise ValueError(f"{len(est)} noise estimates but {len(upd)} reverse steps in K-shot rounds")
    return 1000.0 * (est + upd)


def main_steps_ms(run, rec, traced: bool | None = None) -> np.ndarray:
    """Step times of the loop's main units: training or reverse sampler steps."""
    units = run.loop_units(run.workload.main, traced)
    spans = rec.table([(u.t0, u.t1) for u in units])
    if run.workload.main == "episode":
        return 1000.0 * spans.durations("diffusion.train_step")
    return sample_steps_ms(spans)


def end_to_end(run, rec, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """(metric values, detail recorded beside them)."""
    episodes, rounds = run.loop_units("episode"), run.loop_units("round")
    train_spans = rec.table([(u.t0, u.t1) for u in episodes])
    train = median_and_tail(1000.0 * train_spans.durations("diffusion.train_step"))
    sample = median_and_tail(sample_steps_ms(rec.table([(u.t0, u.t1) for u in rounds])))
    values = {
        "setup_s": setup_s,
        "train_steps_per_s": train_spans.calls("diffusion.train_step") / sum(u.t1 - u.t0 for u in episodes),
        "train_step_ms_p50": train["p50"],
        "train_step_ms_tail": train["tail"],
        "final_loss": run.final_loss(),
        "sample_step_ms_p50": sample["p50"],
        "sample_step_ms_tail": sample["tail"],
        "peak_rss_mb": peak_rss_mb,
    }
    for k in (1, 8):
        values[f"kshot_s.k{k}"] = float(np.median(run.kshot_seconds(k)))
    values.update(run.quality())
    detail = {
        "train_step_ms_tail": {"percentile": train["tail_pct"], "samples": train["n"], "beyond": train["beyond"]},
        "sample_step_ms_tail": {"percentile": sample["tail_pct"], "samples": sample["n"], "beyond": sample["beyond"]},
        "loop_episodes": len(episodes),
        "loop_rounds": len(rounds),
    }
    return {name: values[name] for name, _, _ in END_TO_END}, detail


def _per_call_ms(spans: SpanTable, name: str) -> float:
    d = spans.durations(name)
    return 1000.0 * float(d.mean()) if len(d) else 0.0


def per_layer(run, rec, setup_window: tuple[float, float], cpu_over_wall: float) -> dict:
    """Per-layer metrics: per step over the traced main units of the loop,
    per call over set-up and every traced unit."""
    main = run.workload.main
    w = rec.table([(u.t0, u.t1) for u in run.loop_units(main, traced=True)])
    every = rec.table([setup_window] + [(u.t0, u.t1) for u in run.units if u.traced])
    train_steps = w.calls("diffusion.train_step")
    steps = train_steps if main == "episode" else w.calls("diffusion.reverse_step")
    if steps == 0:
        raise ValueError("the traced main units hold no complete step")
    overhead_ms = float(np.median(main_steps_ms(run, rec, True)) - np.median(main_steps_ms(run, rec, False)))

    def per_step(x):
        return x / steps

    out = {}
    for op in OPS:
        out[f"autodiff.op.{op}.calls"] = per_step(w.calls(f"autodiff.op.{op}"))
        out[f"autodiff.op.{op}.self_ms"] = per_step(1000.0 * w.self_seconds(f"autodiff.op.{op}"))
        out[f"autodiff.bwd.{op}.self_ms"] = per_step(1000.0 * w.self_seconds(f"autodiff.bwd.{op}"))
    tape = w.work("autodiff.backward")
    flop = float(sum(w.work("autodiff.op.conv1d")))
    conv_s = w.self_seconds("autodiff.op.conv1d")
    rfamoe_calls = w.calls("blocks.rfamoe_forward")
    out.update(
        {
            "autodiff.backward.calls": per_step(len(tape)),
            "autodiff.backward.ms_per_step": per_step(1000.0 * float(w.durations("autodiff.backward").sum())),
            "autodiff.tape_nodes_per_step": per_step(sum(n for n, _ in tape)),
            "autodiff.tape_mb_per_step": per_step(sum(b for _, b in tape) / 2**20),
            "autodiff.conv1d.gflop": per_step(flop / 1e9),
            "autodiff.conv1d.gflop_per_s": flop / 1e9 / conv_s if conv_s > 0 else 0.0,
            "blocks.rfamoe_forward.self_ms": per_step(1000.0 * w.self_seconds("blocks.rfamoe_forward")),
            "blocks.fusion_moe_forward.self_ms": per_step(1000.0 * w.self_seconds("blocks.fusion_moe_forward")),
            "blocks.bridge_forward.self_ms": per_step(1000.0 * w.self_seconds("blocks.bridge_forward")),
            "blocks.experts_active_per_call": w.calls("autodiff.op.take_rows") / rfamoe_calls if rfamoe_calls else 0.0,
            "backbone.noise_estimate.calls_per_train_step": (
                w.calls("backbone.noise_estimate") / train_steps if train_steps else 0.0
            ),
            "diffusion.train_step.self_ms": (
                1000.0 * w.self_seconds("diffusion.train_step") / train_steps if train_steps else 0.0
            ),
            "training.update_ms_per_step": (
                1000.0 * float(w.durations("training.zip_map_params").sum()) / train_steps if train_steps else 0.0
            ),
            "process.cpu_over_wall": cpu_over_wall,
            "trace.overhead_ms_per_step": overhead_ms,
        }
    )
    for name in (
        "backbone.lift_params",
        "backbone.grads_like",
        "backbone.load_backbone",
        "backbone.save_backbone",
        "diffusion.sample",
        "diffusion.reverse_step",
        "masking.continuous_mask",
        "metrics.evaluate",
        "tensor.read_checkpoint",
        "tensor.write_checkpoint",
        "synth.synth_generate",
    ):
        out[f"{name}.ms"] = _per_call_ms(every, name)
    for name in ("tensor.read_checkpoint", "tensor.write_checkpoint"):
        sizes = every.work(name)
        out[f"{name}.bytes"] = float(np.mean(sizes)) if sizes else 0.0
    kshot_d = every.durations("kshot.kshot_average")
    kshot_k = np.asarray([k for k, _ in every.work("kshot.kshot_average")])
    for k in KS:
        sel = kshot_d[kshot_k == k] if len(kshot_k) else kshot_d[:0]
        out[f"kshot.kshot_average.ms.k{k}"] = 1000.0 * float(sel.mean()) if len(sel) else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER}

"""The names the benchmark's traced run hooks into moediff still resolve.

The traced run wraps moediff functions by module and attribute name and
fails when one is missing; these checks catch a refactor that unhooks a
layer without running the benchmark. The sampler's call counts are pinned
too, since the per-step sampler metric pairs spans call by call, and so
are the K-shot paths' condition-stack counts that the K-shot times rest on.
The traced run times every backward rule through ``_BACKWARD`` and measures
the tape after ``backward`` returns, so both are pinned as well. One short
traced run of each workload checks the benchmark's own outputs (the
seed-0 reference values and a call in every span); the wide one holds the
reference where rounding is most exposed (12 channels, depth 2, 16 head
experts)."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moediff.autodiff as ad

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # perfbench lives at the repo root
from perfbench import measures, spans  # noqa: E402

TARGETS = spans.layer_targets(ad) + spans.BOUNDARY_TARGETS


@pytest.mark.parametrize("span, module, attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_span_target_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{span}: {module}.{attr}"


def test_measured_ops_have_backward_rules():
    assert set(measures.OPS) <= set(ad._BACKWARD)


def _spy(monkeypatch, *targets):
    """Record (name, positional args) of every call to each (module, name)."""
    calls = []

    def patch(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in targets:
        patch(module, name)
    return calls


def _count(calls, name, blocks=None):
    """Calls of ``name``; with ``blocks``, only those whose second argument is one of them."""
    return sum(n == name and (blocks is None or any(args[1] is b for b in blocks)) for n, args in calls)


def _model():
    import moediff.backbone as backbone
    import moediff.diffusion as diffusion

    params = backbone.init_backbone(
        np.random.default_rng(0), channels=2, width=4, depth=2,
        kernel_sizes=(1, 3), head_experts=2, d_emb=8,
    )
    return params, diffusion.make_schedule(5)


def test_sampler_call_counts(monkeypatch):
    # sample_step_ms pairs each diffusion.noise_estimate span with one
    # diffusion.reverse_step span; the condition path runs once per call.
    import moediff.backbone as backbone
    import moediff.diffusion as diffusion

    params, sched = _model()
    calls = _spy(
        monkeypatch,
        (diffusion, "noise_estimate"), (diffusion, "reverse_step"), (backbone, "rfamoe_forward"),
    )
    diffusion.sample(params, np.zeros((1, 2, 16)), sched, np.random.default_rng(1))

    assert _count(calls, "noise_estimate") == _count(calls, "reverse_step") == sched.t_steps
    cond_blocks = [level.cond for level in params.levels]
    main_blocks = [level.main for level in params.levels]
    assert _count(calls, "rfamoe_forward", cond_blocks) == params.spec.depth
    assert _count(calls, "rfamoe_forward", main_blocks) == params.spec.depth * sched.t_steps


def test_output_checks_run_on_a_model():
    # perfbench's output checks reach into the parameter tree
    # (params.head.experts), noise_estimate(head_gates=) and
    # kshot_ensemble(...).shots; run them on a real, tiny model.
    from types import SimpleNamespace

    from perfbench import checks

    params, sched = _model()
    truth = np.random.default_rng(3).standard_normal((2, 2, 16))
    run = SimpleNamespace(params=params, x_bar=truth * (truth > -0.5), truth=truth, sched=sched)
    assert checks.convex_deviation(run, np.random.default_rng(4)) <= checks.CONVEX_TOL
    assert checks.jensen_margin(run, np.random.default_rng(5)) >= 0.0


def test_spoiled_copy_spoils_only_its_reconstruction():
    # perfbench/selftest.py deep-copies the model and writes a NaN into one
    # head bias to check that a non-finite reconstruction is rejected.
    import copy

    import moediff.kshot as kshot

    params, sched = _model()
    x_bar = np.random.default_rng(2).standard_normal((1, 2, 16))
    spoiled = copy.deepcopy(params)
    spoiled.head.experts[0].bias[0] = float("nan")
    assert not np.isfinite(kshot.kshot_average(spoiled, x_bar, sched, 1, np.random.default_rng(1))).all()
    assert np.isfinite(kshot.kshot_average(params, x_bar, sched, 1, np.random.default_rng(1))).all()


def test_kshot_condition_call_counts(monkeypatch):
    # Every shot, and every head variant of the fixed-expert table, samples
    # the same x_bar: the condition path runs once per call, not once per run.
    import moediff.backbone as backbone
    import moediff.kshot as kshot

    params, sched = _model()
    x_bar = np.random.default_rng(2).standard_normal((1, 2, 16))
    cond_blocks = [level.cond for level in params.levels]
    main_blocks = [level.main for level in params.levels]
    runs = {"ensemble": 3, "experts": len(params.head.experts) + 1}

    for what, n_runs in runs.items():
        calls = _spy(monkeypatch, (backbone, "rfamoe_forward"))
        if what == "ensemble":
            kshot.kshot_ensemble(params, x_bar, sched, n_runs, np.random.default_rng(1))
        else:
            kshot.fixed_expert_error_table(params, x_bar, x_bar, sched, 1, 0, 0)
        assert _count(calls, "rfamoe_forward", cond_blocks) == params.spec.depth, what
        assert _count(calls, "rfamoe_forward", main_blocks) == params.spec.depth * sched.t_steps * n_runs, what
        monkeypatch.undo()


def test_backward_keeps_rules_and_tape(monkeypatch):
    # The sparse gather/slice gradients are still computed by the rules in
    # _BACKWARD (the bwd.* spans wrap them there), and after backward returns
    # every node still exposes an ndarray value (the tape span reads them):
    # the held ones are real, the released ones shape-only NaN stand-ins.
    import moediff.backbone as backbone
    import moediff.diffusion as diffusion

    counts = dict.fromkeys(("take_rows", "slice", "gather_cols"), 0)
    for op in counts:
        def rule(*args, _op=op, _original=ad._BACKWARD[op]):
            counts[_op] += 1
            return _original(*args)

        monkeypatch.setitem(ad._BACKWARD, op, rule)
    graphs = []
    original_backward = ad.backward

    def spy(graph, loss):
        graphs.append(graph)
        return original_backward(graph, loss)

    monkeypatch.setattr(ad, "backward", spy)
    params = backbone.init_backbone(
        np.random.default_rng(0), channels=2, width=4, depth=2,
        kernel_sizes=(1, 3), head_experts=2, d_emb=8, gate_mode="raw",
    )
    batch = np.random.default_rng(1).standard_normal((2, 2, 16))
    diffusion.train_step(params, batch, np.ones_like(batch), diffusion.make_schedule(5), np.random.default_rng(2))

    assert all(counts.values()), counts
    (graph,) = graphs
    assert all(isinstance(node.value, np.ndarray) for node in graph.nodes)


def test_tape_span_measures_a_train_step_graph(monkeypatch):
    # The autodiff.backward span's hook reads the graph after backward
    # returns; on a real training step it must give a node count and a
    # finite byte total.
    import moediff.diffusion as diffusion

    params, sched = _model()
    calls = _spy(monkeypatch, (ad, "backward"))
    batch = np.random.default_rng(1).standard_normal((2, 2, 16))
    diffusion.train_step(params, batch, np.ones_like(batch), sched, np.random.default_rng(2))

    ((_, args),) = calls
    nodes, nbytes = spans._tape(args, {}, None)
    assert nodes == len(args[0].nodes) > 0
    assert np.isfinite(nbytes) and nbytes > 0


@pytest.mark.parametrize("workload", ["train-toy", "impute-kshot-toy", "train-wide"])
def test_toy_benchmark_output_checks_pass(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = run.stdout.strip().splitlines()
    assert lines, run.stderr[-2000:]
    record = json.loads(next(line for line in lines if line.startswith("run record: "))[len("run record: "):])
    result = json.loads(lines[-1])
    assert result["correct"] is True, record["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert record["reference_held"]
    assert run.returncode == 0, run.stderr[-2000:]

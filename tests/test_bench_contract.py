"""The names the benchmark's traced run hooks into moediff still resolve.

The traced run wraps moediff functions by module and attribute name and
fails when one is missing; these checks catch a refactor that unhooks a
layer without running the benchmark. The sampler's call counts are pinned
too, since the per-step sampler metric pairs spans call by call."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import moediff.autodiff as ad

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # perfbench lives at the repo root
from perfbench import measures, spans  # noqa: E402

TARGETS = spans.layer_targets(ad) + spans.BOUNDARY_TARGETS


@pytest.mark.parametrize("span, module, attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_span_target_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{span}: {module}.{attr}"


def test_measured_ops_have_backward_rules():
    assert set(measures.OPS) <= set(ad._BACKWARD)


def test_sampler_call_counts(monkeypatch):
    # sample_step_ms pairs each diffusion.noise_estimate span with one
    # diffusion.reverse_step span; the condition path runs once per call.
    import moediff.backbone as backbone
    import moediff.diffusion as diffusion

    params = backbone.init_backbone(
        np.random.default_rng(0), channels=2, width=4, depth=2,
        kernel_sizes=(1, 3), head_experts=2, d_emb=8,
    )
    sched = diffusion.make_schedule(5)
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(diffusion, "noise_estimate")
    spy(diffusion, "reverse_step")
    spy(backbone, "rfamoe_forward")
    diffusion.sample(params, np.zeros((1, 2, 16)), sched, np.random.default_rng(1))

    def count(name, blocks=None):
        return sum(
            n == name and (blocks is None or any(args[1] is b for b in blocks)) for n, args in calls
        )

    assert count("noise_estimate") == count("reverse_step") == sched.t_steps
    cond_blocks = [level.cond for level in params.levels]
    main_blocks = [level.main for level in params.levels]
    assert count("rfamoe_forward", cond_blocks) == params.depth
    assert count("rfamoe_forward", main_blocks) == params.depth * sched.t_steps

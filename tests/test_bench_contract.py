"""The names the benchmark's traced run hooks into moediff still resolve.

The traced run wraps moediff functions by module and attribute name and
fails when one is missing; these checks catch a refactor that unhooks a
layer without running the benchmark."""

import importlib
import sys
from pathlib import Path

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

import numpy as np
import pytest

from moediff.backbone import ModelSpec, init_backbone
from moediff.diffusion import make_schedule


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_backbone():
    """Width-4, depth-1 backbone over 2 channels; small enough for
    finite-difference sweeps and hand traces."""
    return init_backbone(
        np.random.default_rng(7),
        ModelSpec(channels=2, width=4, depth=1, kernel_sizes=(1, 3), head_experts=2, d_emb=8),
    )


@pytest.fixture
def sched10():
    return make_schedule(10)

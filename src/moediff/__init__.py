"""Conditional-diffusion imputation for multichannel physiological time
series, with mixture-of-experts noise estimation and an executable
verification that gate-fused estimates are no worse than averaged runs."""

from .autodiff import Graph, Var, backward, conv1d, finite_diff_check, gelu, instance_norm, softmax
from .backbone import (
    BackboneParams, ModelSpec, init_backbone, load_backbone, noise_estimate, param_count, save_backbone
)
from .blocks import (
    Affine,
    FusionMoEParams,
    RFAMoEParams,
    bridge_forward,
    fusion_moe_forward,
    rfamoe_forward,
    route_top1,
    step_embedding,
)
from .config import RunConfig, load_config, parse_config
from .diffusion import (
    NoiseSchedule,
    ReverseCoefficients,
    forward_noise,
    make_schedule,
    reverse_coefficients,
    reverse_step,
    sample,
    train_step,
)
from .kshot import (
    ConvexLoss,
    ShotEnsemble,
    jensen_check,
    kshot_average,
    kshot_ensemble,
    verify_convex_combination,
    weight_sweep,
)
from .masking import apply_mask, continuous_mask, draw_mask, random_mask
from .metrics import MetricsReport, evaluate, mad, prd, ssd
from .synth import SyntheticConfig, synth_generate
from .tensor import pin_heap_thresholds, read_tsb1, write_tsb1

# Steps allocate and free arrays of the same sizes over and over; keep that
# memory on the heap so step times do not depend on allocation history.
pin_heap_thresholds()

__version__ = "0.1.0"

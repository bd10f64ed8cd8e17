"""Missing-data simulation: i.i.d. random dropout and contiguous-run masks.

Masks are float64 tensors of 0s and 1s with 0 marking a missing entry; the
conditioning signal is the elementwise product of signal and mask, so
missing values are encoded as zeros. A run's mask, in training and
imputation alike, is set only by its config's ``mask_*``, ``drop_*`` and
``shared_window`` keys; :func:`draw_mask` draws it, and :func:`check_kind`,
:func:`check_ratio` and :func:`check_runs` state the rules those keys obey.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .tensor import as_tensor, require_binary

if TYPE_CHECKING:  # config imports this module to check its mask kind and ratio
    from .config import RunConfig


def check_kind(kind: str) -> None:
    """Raise ValueError unless ``kind`` names a mask :func:`draw_mask` can draw."""
    if kind not in ("random", "continuous"):
        raise ValueError(f"mask_kind must be 'random' or 'continuous', got {kind!r}")


def check_ratio(ratio: float) -> None:
    """Raise ValueError unless ``ratio`` lies in [0, 1]."""
    if not 0.0 <= ratio <= 1.0:  # nan fails this too
        raise ValueError(f"mask_ratio must be finite and lie in [0, 1], got {ratio}")


def draw_mask(cfg: RunConfig, b: int, c: int, t_len: int, rng: np.random.Generator) -> np.ndarray:
    """A [b, c, t_len] mask of the config's mask keys, drawn from ``rng``."""
    check_kind(cfg.mask_kind)
    if cfg.mask_kind == "random":
        return random_mask(b, c, t_len, cfg.mask_ratio, rng)
    return continuous_mask(b, c, t_len, cfg.drop_length, cfg.drop_channels, rng, cfg.shared_window)


def random_mask(b: int, c: int, t_len: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Each entry is independently missing (0) with probability ``ratio``."""
    check_ratio(ratio)
    return (rng.random((b, c, t_len)) >= ratio).astype(np.float64)


def check_runs(c: int, t_len: int, drop_length: int, drop_channels: int) -> None:
    """Raise ValueError unless ``drop_channels`` runs of ``drop_length`` fit a [c, t_len] mask."""
    if not 1 <= drop_length <= t_len:
        raise ValueError(f"drop_length must lie in 1..{t_len}, got {drop_length}")
    if not 1 <= drop_channels <= c:
        raise ValueError(f"drop_channels must lie in 1..{c}, got {drop_channels}")


def continuous_mask(
    b: int,
    c: int,
    t_len: int,
    drop_length: int,
    drop_channels: int,
    rng: np.random.Generator,
    shared_window: bool = False,
) -> np.ndarray:
    """Zero one contiguous run of ``drop_length`` entries in each of
    ``drop_channels`` randomly chosen channels per sample.

    Runs are placed independently per chosen channel unless
    ``shared_window`` aligns them at one start position per sample.
    """
    check_runs(c, t_len, drop_length, drop_channels)
    mask = np.ones((b, c, t_len))
    for i in range(b):
        chans = rng.choice(c, size=drop_channels, replace=False)
        start = int(rng.integers(0, t_len - drop_length + 1)) if shared_window else None
        for ch in chans:
            s = int(rng.integers(0, t_len - drop_length + 1)) if start is None else start
            mask[i, ch, s : s + drop_length] = 0.0
    return mask


def apply_mask(x, mask) -> np.ndarray:
    """Elementwise product; idempotent because the mask is binary."""
    x, mask = as_tensor(x), as_tensor(mask)
    if x.shape != mask.shape:
        raise ValueError(f"apply_mask: signal shape {x.shape} != mask shape {mask.shape}")
    require_binary(mask)
    return x * mask

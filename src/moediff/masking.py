"""Missing-data simulation: i.i.d. random dropout and contiguous-run masks.

Masks are float64 tensors of 0s and 1s with 0 marking a missing entry; the
conditioning signal is the elementwise product of signal and mask, so
missing values are encoded as zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import as_tensor, require_binary


@dataclass(frozen=True)
class MaskSpec:
    """Declarative description of a missingness pattern, reproducible from
    its seed."""

    kind: str  # "random" | "continuous"
    ratio: float = 0.0
    drop_length: int = 0
    drop_channels: int = 1
    seed: int = 0
    shared_window: bool = False

    def build(self, b: int, c: int, t_len: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """A [b, c, t_len] mask drawn from ``rng``, or from the spec's seed when None."""
        rng = np.random.default_rng(self.seed) if rng is None else rng
        if self.kind == "random":
            return random_mask(b, c, t_len, self.ratio, rng)
        if self.kind == "continuous":
            return continuous_mask(
                b, c, t_len, self.drop_length, self.drop_channels, rng, self.shared_window
            )
        raise ValueError(f"mask kind must be 'random' or 'continuous', got {self.kind!r}")


def random_mask(b: int, c: int, t_len: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Each entry is independently missing (0) with probability ``ratio``."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"mask ratio must lie in [0, 1], got {ratio}")
    return (rng.random((b, c, t_len)) >= ratio).astype(np.float64)


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
    if not 1 <= drop_length <= t_len:
        raise ValueError(f"drop_length must lie in 1..{t_len}, got {drop_length}")
    if not 1 <= drop_channels <= c:
        raise ValueError(f"drop_channels must lie in 1..{c}, got {drop_channels}")
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

"""Synthetic multichannel quasi-periodic signals for desk-scale experiments.

Each channel draws its own fundamental frequency, so periodicity varies
across channels and samples; optional sparse spikes imitate transient
waveform features and every channel is standardized to zero mean, unit
variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SyntheticConfig:
    n_samples: int
    channels: int
    t_len: int
    f_min: float = 3.0  # cycles per window
    f_max: float = 9.0
    harmonics: int = 2
    spike_prob: float = 0.3
    amp_jitter: float = 0.2
    noise_sigma: float = 0.05
    seed: int = 0

    def check(self) -> "SyntheticConfig":
        if self.f_min > self.f_max:
            raise ValueError(f"f_min {self.f_min} exceeds f_max {self.f_max}")
        if not 0.0 <= self.spike_prob <= 1.0:
            raise ValueError(f"spike_prob must lie in [0, 1], got {self.spike_prob}")
        if self.harmonics < 0:
            raise ValueError(f"harmonics must be >= 0, got {self.harmonics}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.n_samples < 1 or self.channels < 1 or self.t_len < 2:
            raise ValueError("need n_samples >= 1, channels >= 1, t_len >= 2")
        return self


def synth_generate(cfg: SyntheticConfig) -> np.ndarray:
    """Generate [n_samples, channels, t_len] standardized signals."""
    cfg.check()
    rng = np.random.default_rng(cfg.seed)
    tau = np.arange(cfg.t_len) / cfg.t_len
    out = np.empty((cfg.n_samples, cfg.channels, cfg.t_len))
    for i in range(cfg.n_samples):
        for c in range(cfg.channels):
            f0 = rng.uniform(cfg.f_min, cfg.f_max)
            x = np.zeros(cfg.t_len)
            for h in range(1, cfg.harmonics + 1):
                amp = (1.0 + cfg.amp_jitter * rng.uniform(-1.0, 1.0)) / h**2
                phase = rng.uniform(0.0, 2.0 * np.pi)
                x += amp * np.sin(2.0 * np.pi * f0 * h * tau + phase)
            if rng.random() < cfg.spike_prob:
                center = rng.uniform(0.05, 0.95)
                width = rng.uniform(1.5, 4.0) / cfg.t_len
                sign = 1.0 if rng.random() < 0.5 else -1.0
                height = sign * rng.uniform(2.0, 4.0)
                x += height * np.exp(-0.5 * ((tau - center) / width) ** 2)
            if cfg.noise_sigma > 0.0:
                x += cfg.noise_sigma * rng.standard_normal(cfg.t_len)
            x -= x.mean()
            std = x.std()
            if std > 1e-12:
                x /= std
            out[i, c] = x
    return out

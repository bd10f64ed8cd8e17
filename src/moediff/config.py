"""Run configuration: flat ``key=value`` files with ``#`` comments.

Two profiles ship in ``configs/``: ``toy.cfg`` restates the
:class:`RunConfig` defaults, which keep every experiment in the minutes
range on one core; ``full.cfg`` is sized for real 12-lead recordings
(40 diffusion steps, width 160, 15 receptive field experts, 16 head
experts, batch 6).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .backbone import ModelSpec, SpecError

# ModelSpec field -> the config key that sets it
_SPEC_KEYS = {f.name: f.name for f in dataclasses.fields(ModelSpec)} | {"kernel_sizes": "rfa_kernels"}


@dataclass
class RunConfig:
    # diffusion schedule
    steps: int = 10
    beta_start: float = 1e-4
    beta_end: float = 0.05
    # backbone dims (rules in backbone.ModelSpec)
    width: int = 16  # feature channels per map
    depth: int = 1
    rfa_kernels: tuple = (3, 5, 7, 9, 11)
    head_experts: int = 4
    d_emb: int = 64
    gate_mode: str = "unit"
    # data dims
    channels: int = 3
    t_len: int = 256
    # optimizer
    lr: float = 5e-3
    momentum: float = 0.9
    train_steps: int = 500
    batch: int = 8
    # masking
    mask_kind: str = "continuous"
    mask_ratio: float = 0.3
    drop_length: int = 26
    drop_channels: int = 1
    shared_window: bool = False
    # misc
    seed: int = 0

    def model_spec(self) -> ModelSpec:
        """The model structure the backbone keys describe."""
        return ModelSpec(**{field: getattr(self, key) for field, key in _SPEC_KEYS.items()})

    def check(self) -> "RunConfig":
        try:
            self.model_spec()
        except SpecError as exc:
            raise ValueError(f"{_SPEC_KEYS[exc.field]} {exc.reason}") from None
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.train_steps < 0:
            raise ValueError(f"train_steps must be >= 0, got {self.train_steps}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.mask_kind not in ("random", "continuous"):
            raise ValueError(f"mask_kind must be 'random' or 'continuous', got {self.mask_kind!r}")
        return self


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_value(field: dataclasses.Field, raw: str):
    raw = raw.strip()
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    if field.type in ("bool", bool):
        if raw.lower() not in _BOOL:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOL[raw.lower()]
    if field.type in ("tuple", tuple):
        items = raw.split(",")
        if any(not p.strip() for p in items):
            raise ValueError(f"empty item in list {raw!r}")
        return tuple(int(p) for p in items)
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines; unknown keys and malformed lines are errors."""
    by_name = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in by_name:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(by_name[key], raw)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: key {key!r}: {exc}") from None
    return RunConfig(**values).check()


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

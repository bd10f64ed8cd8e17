"""Run configuration: flat ``key=value`` files with ``#`` comments.

Two profiles ship in ``configs/``: ``toy.cfg`` restates the
:class:`RunConfig` defaults, which keep every experiment in the minutes
range on one core; ``full.cfg`` is sized for real 12-lead recordings
(40 diffusion steps, width 160, 15 receptive field experts, 16 head
experts, batch 6).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .backbone import ModelSpec, SpecError
from .diffusion import make_schedule
from .masking import check_kind, check_ratio
from .tensor import read_text

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

    def check_spec(self, spec: ModelSpec, source) -> None:
        """Raise ValueError naming the first backbone key whose value in the
        model ``spec`` (read from ``source``) differs from this config's."""
        want = self.model_spec()
        for field, key in _SPEC_KEYS.items():
            have, need = getattr(spec, field), getattr(want, field)
            if have != need:
                raise ValueError(f"{source} holds a model with {key} = {have!r}, the config sets {key} = {need!r}")

    def check(self) -> "RunConfig":
        try:
            self.model_spec()
        except SpecError as exc:
            raise ValueError(f"{_SPEC_KEYS[exc.field]} {exc.reason}") from None
        make_schedule(self.steps, self.beta_start, self.beta_end)
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.train_steps < 0:
            raise ValueError(f"train_steps must be >= 0, got {self.train_steps}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.t_len < 2:  # synth's rule; each block's instance norm needs two time steps
            raise ValueError(f"t_len must be >= 2, got {self.t_len}")
        check_kind(self.mask_kind)
        check_ratio(self.mask_ratio)
        return self


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_value(field: dataclasses.Field, raw: str):
    raw = raw.strip()
    if field.type == "int":
        return int(raw)
    if field.type == "float":
        return float(raw)
    if field.type == "bool":
        if raw.lower() not in _BOOL:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOL[raw.lower()]
    if field.type == "tuple":
        items = raw.split(",")
        if any(not p.strip() for p in items):
            raise ValueError(f"empty item in list {raw!r}")
        return tuple(int(p) for p in items)
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines; unknown or repeated keys and malformed lines
    are errors."""
    by_name = {f.name: f for f in dataclasses.fields(RunConfig)}
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in by_name:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"config line {lineno}: key {key!r} was already set on line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = _parse_value(by_name[key], raw)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: key {key!r}: {exc}") from None
    return RunConfig(**values).check()


def load_config(path) -> RunConfig:
    return parse_config(read_text(path))

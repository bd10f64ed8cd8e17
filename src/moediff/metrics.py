"""Signal reconstruction quality metrics: PRD, SSD, MAD.

Conventions: PRD is normalized by the uncentered reference energy, so a
zero prediction scores exactly 100; per-sample values pool all channels of
a sample; the aggregate is the arithmetic mean over samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import as_tensor, require_binary, write_csv


@dataclass(frozen=True)
class SampleMetrics:
    prd: float
    ssd: float
    mad: float


@dataclass(frozen=True)
class MetricsReport:
    per_sample: list
    aggregate: SampleMetrics


def _pair(x, x_hat, op: str):
    x, x_hat = as_tensor(x), as_tensor(x_hat)
    if x.shape != x_hat.shape:
        raise ValueError(f"{op}: reference shape {x.shape} != prediction shape {x_hat.shape}")
    return x, x_hat


def ssd(x, x_hat) -> float:
    """Sum of squared differences."""
    x, x_hat = _pair(x, x_hat, "ssd")
    return float(((x - x_hat) ** 2).sum())


def prd(x, x_hat) -> float:
    """Percent root-mean-square difference: 100 * sqrt(sum err^2 / sum ref^2)."""
    x, x_hat = _pair(x, x_hat, "prd")
    denom = float((x**2).sum())
    if denom <= 0.0:
        raise ValueError("prd: reference signal has zero energy, ratio undefined")
    return 100.0 * math.sqrt(float(((x - x_hat) ** 2).sum()) / denom)


def mad(x, x_hat) -> float:
    """Maximum absolute difference."""
    x, x_hat = _pair(x, x_hat, "mad")
    return float(np.abs(x - x_hat).max())


def evaluate(truth, pred, region=None) -> MetricsReport:
    """Per-sample and mean metrics over [B, C, Tlen] stacks.

    With ``region`` given (same shape, binary), scoring is restricted to
    the missing set, i.e. entries where region == 0.
    """
    truth, pred = _pair(truth, pred, "evaluate")
    if truth.ndim != 3:
        raise ValueError(f"evaluate: expected [B, C, Tlen] stacks, got shape {truth.shape}")
    if region is not None:
        region = require_binary(as_tensor(region), "region")
        if region.shape != truth.shape:
            raise ValueError(
                f"evaluate: region shape {region.shape} != signal shape {truth.shape}"
            )
    rows = []
    for i in range(truth.shape[0]):
        x, x_hat = truth[i], pred[i]
        if region is not None:
            missing = region[i] == 0.0
            if not missing.any():
                raise ValueError(f"evaluate: sample {i} has an empty missing region")
            x, x_hat = x[missing], x_hat[missing]
        rows.append(SampleMetrics(prd=prd(x, x_hat), ssd=ssd(x, x_hat), mad=mad(x, x_hat)))
    agg = SampleMetrics(
        prd=float(np.mean([r.prd for r in rows])),
        ssd=float(np.mean([r.ssd for r in rows])),
        mad=float(np.mean([r.mad for r in rows])),
    )
    return MetricsReport(per_sample=rows, aggregate=agg)


def write_report(path, report: MetricsReport) -> None:
    """CSV of one row per sample plus an ``aggregate`` row."""
    rows = [(i, r.prd, r.ssd, r.mad) for i, r in enumerate(report.per_sample)]
    a = report.aggregate
    write_csv(path, ["index", "prd", "ssd", "mad"], rows + [("aggregate", a.prd, a.ssd, a.mad)])

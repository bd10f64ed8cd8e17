"""Dataset I/O for [B, C, Tlen] signal stacks.

Two interchangeable formats:

* ``tsb1`` — one binary file holding the whole rank-3 stack.
* ``csv`` — one file per sample with header ``channel_0..channel_{C-1}``
  and one row per timestep; multi-sample stacks use a directory of
  ``sample_NNNN.csv`` files.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .tensor import TensorFormatError, as_tensor, read_text, read_tsb1, write_csv, write_tsb1


def _parse_sample_csv(path) -> np.ndarray:
    lines = read_text(path).split("\n")
    if not lines[0].strip():
        raise TensorFormatError(f"{path}: missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [f"channel_{i}" for i in range(len(header))]
    if header != expected:
        raise TensorFormatError(
            f"{path}: line 1: header must be {','.join(expected[:3])}{',...' if len(expected) > 3 else ''}; "
            f"got {lines[0]!r}"
        )
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise TensorFormatError(
                f"{path}: line {lineno}: expected {len(header)} columns, found {len(cells)}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise TensorFormatError(f"{path}: line {lineno}: {exc}") from None
        bad = [j for j, v in enumerate(row) if not math.isfinite(v)]
        if bad:
            raise TensorFormatError(
                f"{path}: line {lineno}: non-finite value {row[bad[0]]} in column channel_{bad[0]}"
            )
        rows.append(row)
    if not rows:
        raise TensorFormatError(f"{path}: no data rows")
    return as_tensor(rows).T  # [C, T]


def _write_sample_csv(path, sample: np.ndarray) -> None:
    write_csv(path, [f"channel_{i}" for i in range(sample.shape[0])], sample.T)


def infer_format(path) -> str:
    if os.path.isdir(path) or str(path).endswith(".csv"):
        return "csv"
    return "tsb1"


def load_signals(path) -> np.ndarray:
    """Load a [B, C, Tlen] stack in the format :func:`infer_format` reads from the path.

    An empty stack, or one holding a NaN or an Inf, is a
    :class:`TensorFormatError` naming the file and the first bad entry: its
    [sample, channel, timestep] in a TSB1 stack, its line and column in a
    CSV sample file.
    """
    if infer_format(path) == "tsb1":
        arr = read_tsb1(path)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3:
            raise TensorFormatError(f"{path}: expected rank 2 or 3 signals, got rank {arr.ndim}")
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            where = tuple(int(i) for i in bad[0])
            raise TensorFormatError(
                f"{path}: non-finite value {arr[where]} at [sample, channel, timestep] = {list(where)}"
            )
    elif os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
        if not names:
            raise TensorFormatError(f"{path}: directory holds no .csv sample files")
        samples = [_parse_sample_csv(os.path.join(path, n)) for n in names]
        shapes = {s.shape for s in samples}
        if len(shapes) != 1:
            raise TensorFormatError(f"{path}: samples disagree in shape: {sorted(shapes)}")
        arr = np.stack(samples)
    else:
        arr = _parse_sample_csv(path)[None]
    if arr.size == 0:
        raise TensorFormatError(f"{path}: empty signal stack of shape {list(arr.shape)}")
    return arr


def save_signals(path, data, fmt: str | None = None) -> None:
    data = as_tensor(data)
    if data.ndim != 3:
        raise ValueError(f"save_signals: expected [B, C, Tlen], got shape {data.shape}")
    fmt = infer_format(path) if fmt is None else fmt
    if fmt == "tsb1":
        write_tsb1(path, data)
    elif fmt == "csv":
        if data.shape[0] == 1 and str(path).endswith(".csv"):
            _write_sample_csv(path, data[0])
        else:
            os.makedirs(path, exist_ok=True)
            for i, sample in enumerate(data):
                _write_sample_csv(os.path.join(path, f"sample_{i:04d}.csv"), sample)
    else:
        raise ValueError(f"format must be 'csv' or 'tsb1', got {fmt!r}")

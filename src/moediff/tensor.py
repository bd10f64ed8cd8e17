"""Dense float64 tensors and the TSB1 / CKP1 binary formats.

All numeric state in this package lives in float64 numpy arrays: inputs
and stored records C-contiguous (row-major), intermediates such as
transposes possibly strided views. Arrays are treated as immutable values:
operations never write into their inputs.

TSB1 is the on-disk tensor format used for signals, masks, and checkpoint
records: magic ``TSB1``, u32 little-endian rank, rank x u32 little-endian
dims, then product(dims) float64 little-endian values in row-major order.

CKP1 is the checkpoint container: magic ``CKP1``, u32 record count, then
records of (u16 name length, UTF-8 name, embedded TSB1 blob).

Both formats are streamed. A writer sends each payload from its array's
own buffer to a new file next to the target and moves that file into
place once it is complete; a reader reads each payload straight into its
array. So neither holds a second copy of the data.

Every CSV file the package writes goes through :func:`write_csv`.

:func:`pin_heap_thresholds`, called when the package is imported, keeps
freed arrays on the C heap for reuse (glibc only).
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import math
import os
import struct
import sys

import numpy as np

TSB1_MAGIC = b"TSB1"
CKP1_MAGIC = b"CKP1"


class TensorFormatError(ValueError):
    """A TSB1/CKP1 payload does not match its declared format."""


def as_tensor(values) -> np.ndarray:
    """Coerce to a C-ordered float64 array (copying only if needed).

    Unlike ``np.ascontiguousarray`` this preserves 0-d inputs as 0-d.
    """
    return np.asarray(values, dtype=np.float64, order="C")


def require_finite(arr: np.ndarray, label: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{label} contains non-finite entries (NaN or Inf)")
    return arr


def require_binary(arr: np.ndarray, label: str = "mask") -> np.ndarray:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{label} must contain only 0.0 and 1.0 entries")
    return arr


# ---------------------------------------------------------------------------
# Heap
# ---------------------------------------------------------------------------

# mallopt parameters, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_MMAP_BYTES = 32 << 20  # the largest mmap threshold glibc accepts on 64-bit
HEAP_TRIM_BYTES = 1 << 30


def pin_heap_thresholds() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    Every training step records a tape of large arrays and frees it whole,
    and every sampler step frees its temporaries. By default glibc serves a
    block above its mmap threshold with fresh pages, raises that threshold
    to the largest such block freed so far, and hands the top of the heap
    back to the system once twice the threshold is free. So whether a
    step's arrays reuse resident memory or fault in new pages depends on
    which sizes the process happened to free before, and the same step
    takes a different time in each process. With blocks under 32 MiB
    always on the heap and up to 1 GiB of free heap kept, each step reuses
    the memory of the last one from the first step on. Blocks of 32 MiB or
    more are still mapped and unmapped per call. Returns whether both
    thresholds were set: False off glibc.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # present in glibc only
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_BYTES)) and bool(mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_BYTES))


# ---------------------------------------------------------------------------
# TSB1
# ---------------------------------------------------------------------------


def _write_tensor(fh, arr) -> None:
    """Write one TSB1 blob: the header, then the payload straight from the
    array's own C-ordered little-endian buffer (copied only when ``arr`` is
    not already one)."""
    arr = np.asarray(arr, dtype="<f8", order="C")
    fh.write(TSB1_MAGIC + struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
    fh.write(arr)


def _read_tensor(fh, offset: int, size: int) -> tuple[np.ndarray, int]:
    """Decode the TSB1 blob at ``offset`` of an open file of ``size`` bytes;
    returns (array, next offset). Each length is checked against ``size``
    before anything is allocated, and the payload is read straight into
    the returned array."""
    magic = fh.read(4)
    if magic != TSB1_MAGIC:
        raise TensorFormatError(
            f"bad tensor magic at offset {offset}: expected {TSB1_MAGIC!r}, found {magic!r}"
        )
    offset += 4
    if size < offset + 4:
        raise TensorFormatError(f"truncated tensor header at offset {offset}")
    (rank,) = struct.unpack("<I", fh.read(4))
    offset += 4
    if size < offset + 4 * rank:
        raise TensorFormatError(f"truncated dim list at offset {offset} (rank {rank})")
    dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    offset += 4 * rank
    nbytes = 8 * math.prod(dims)
    if size < offset + nbytes:
        raise TensorFormatError(
            f"truncated tensor payload at offset {offset}: need {nbytes} bytes, have {size - offset}"
        )
    arr = np.empty(dims, dtype="<f8")
    fh.readinto(arr)
    return arr.astype(np.float64, copy=False), offset + nbytes


def _write_replacing(path, write) -> None:
    """Run ``write`` on a new file next to ``path``, then move that file
    onto ``path``. A write that fails part-way leaves an existing file at
    ``path`` as it was and removes the new one."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def tsb1_bytes(arr) -> bytes:
    buf = io.BytesIO()
    _write_tensor(buf, arr)
    return buf.getvalue()


def write_tsb1(path, arr) -> None:
    _write_replacing(path, lambda fh: _write_tensor(fh, arr))


def read_tsb1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        arr, end = _read_tensor(fh, 0, size)
    if end != size:
        raise TensorFormatError(f"{size - end} trailing bytes after tensor payload")
    return arr


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, header, rows) -> None:
    """A header line, then one line of comma-joined cells per row. Strings
    and integers are written as they are; any other value as
    ``repr(float(v))``, which reads back to the same float."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


# ---------------------------------------------------------------------------
# CKP1
# ---------------------------------------------------------------------------


def write_checkpoint(path, named: dict[str, np.ndarray]) -> None:
    """Write a name -> tensor mapping. Records are sorted by name for
    byte-stable output and written one at a time, each payload from its
    array's own buffer, so no copy of the file is built in memory."""

    def write(fh):
        fh.write(CKP1_MAGIC + struct.pack("<I", len(named)))
        for name in sorted(named):
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise TensorFormatError(f"record name too long: {name[:40]}...")
            fh.write(struct.pack("<H", len(raw)) + raw)
            _write_tensor(fh, named[name])

    _write_replacing(path, write)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a name -> tensor mapping, each payload straight into its array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != CKP1_MAGIC:
            raise TensorFormatError(
                f"bad checkpoint magic: expected {CKP1_MAGIC!r}, found {head[:4]!r}"
            )
        if len(head) < 8:
            raise TensorFormatError(f"truncated checkpoint header: need 8 bytes, have {len(head)}")
        (count,) = struct.unpack_from("<I", head, 4)
        offset = 8
        named: dict[str, np.ndarray] = {}
        for _ in range(count):
            if size < offset + 2:
                raise TensorFormatError(f"truncated record header at offset {offset}")
            (nlen,) = struct.unpack("<H", fh.read(2))
            offset += 2
            if size < offset + nlen:
                raise TensorFormatError(
                    f"truncated record name at offset {offset}: need {nlen} bytes, have {size - offset}"
                )
            try:
                name = fh.read(nlen).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TensorFormatError(
                    f"record name at offset {offset} is not UTF-8: {exc.reason} at byte {exc.start}"
                ) from None
            if name in named:
                raise TensorFormatError(f"duplicate record name {name!r}")
            offset += nlen
            named[name], offset = _read_tensor(fh, offset, size)
    if offset != size:
        raise TensorFormatError(f"{size - offset} trailing bytes after last record")
    return named

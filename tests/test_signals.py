"""TSB1 binary format and CSV signal layout: round trips and diagnostics;
the pinned heap thresholds."""

import os
import re
import resource
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from moediff.signals import load_signals, save_signals
from moediff.tensor import (
    TensorFormatError,
    pin_heap_thresholds,
    read_checkpoint,
    read_tsb1,
    write_checkpoint,
    write_tsb1,
)


def _tsb1_bytes(tmp_path, arr) -> bytes:
    """The blob :func:`write_tsb1` stores for ``arr``."""
    path = tmp_path / "blob.tsb1"
    write_tsb1(path, arr)
    return path.read_bytes()


class TestHeapThresholds:
    def test_a_freed_tape_is_reused_without_page_faults(self):
        if not pin_heap_thresholds():
            pytest.skip("needs glibc malloc")
        # 80 MiB in 4 MiB blocks: more free heap than glibc's default trim
        # threshold ever allows, in blocks under its largest mmap threshold.
        n = (4 << 20) // 8

        def tape():
            blocks = [np.ones(n) for _ in range(20)]
            del blocks

        tape()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        tape()
        tape()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000, f"{faults} page faults re-allocating a freed 80 MiB tape (~20000 per fresh tape)"


class TestTsb1:
    def test_roundtrip_bit_identical(self, tmp_path, rng):
        arr = rng.standard_normal((3, 4, 5))
        path = tmp_path / "x.tsb1"
        write_tsb1(path, arr)
        npt.assert_array_equal(read_tsb1(path), arr)

    def test_scalar_and_vector(self, tmp_path):
        path = tmp_path / "s.tsb1"
        write_tsb1(path, np.asarray(3.5))
        assert float(read_tsb1(path)) == 3.5
        write_tsb1(path, np.array([1.0, 2.0]))
        npt.assert_array_equal(read_tsb1(path), [1.0, 2.0])

    def test_layout_bytes(self, tmp_path):
        blob = _tsb1_bytes(tmp_path, np.array([[1.0, 2.0]]))
        assert blob[:4] == b"TSB1"
        assert blob[4:8] == (2).to_bytes(4, "little")  # rank
        assert blob[8:12] == (1).to_bytes(4, "little")
        assert blob[12:16] == (2).to_bytes(4, "little")
        assert len(blob) == 16 + 2 * 8

    def test_bad_magic_names_found_bytes(self, tmp_path):
        path = tmp_path / "bad.tsb1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match=r"found b'NOPE'"):
            read_tsb1(path)

    def test_truncated_payload_offsets(self, tmp_path):
        path = tmp_path / "trunc.tsb1"
        path.write_bytes(_tsb1_bytes(tmp_path, np.ones(4))[:-8])
        with pytest.raises(TensorFormatError, match="truncated tensor payload"):
            read_tsb1(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.tsb1"
        path.write_bytes(_tsb1_bytes(tmp_path, np.ones(2)) + b"xx")
        with pytest.raises(TensorFormatError, match="trailing"):
            read_tsb1(path)


class TestCheckpointContainer:
    def test_roundtrip(self, tmp_path, rng):
        named = {"a.weight": rng.standard_normal((2, 3)), "b": np.asarray(1.5)}
        path = tmp_path / "c.ckp1"
        write_checkpoint(path, named)
        loaded = read_checkpoint(path)
        assert set(loaded) == set(named)
        for k in named:
            npt.assert_array_equal(loaded[k], named[k])

    def test_sorted_records_stable_bytes(self, tmp_path):
        a = {"z": np.ones(1), "a": np.zeros(1)}
        b = {"a": np.zeros(1), "z": np.ones(1)}
        pa, pb = tmp_path / "a.ckp1", tmp_path / "b.ckp1"
        write_checkpoint(pa, a)
        write_checkpoint(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckp1"
        path.write_bytes(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(TensorFormatError, match="checkpoint magic"):
            read_checkpoint(path)

    @pytest.mark.parametrize("tail", [b"", b"\x01", b"\x01\x00\x00"])
    def test_truncated_header(self, tmp_path, tail):
        path = tmp_path / "short.ckp1"
        path.write_bytes(b"CKP1" + tail)
        with pytest.raises(TensorFormatError, match=f"truncated checkpoint header: need 8 bytes, have {4 + len(tail)}"):
            read_checkpoint(path)

    def test_layout_bytes(self, tmp_path):
        # Sorted records of (u16 name length, name, TSB1 blob); an integer or
        # strided array is stored as the float64 values of its C-order copy.
        path = tmp_path / "c.ckp1"
        write_checkpoint(path, {"bb": np.arange(6).reshape(2, 3).T, "a": np.asarray(3.5)})
        assert path.read_bytes() == (
            b"CKP1" + struct.pack("<I", 2)
            + struct.pack("<H", 1) + b"a" + b"TSB1" + struct.pack("<Id", 0, 3.5)
            + struct.pack("<H", 2) + b"bb" + b"TSB1" + struct.pack("<3I", 2, 3, 2)
            + struct.pack("<6d", 0, 3, 1, 4, 2, 5)
        )

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "c.ckp1"
        write_checkpoint(path, {"a": np.ones(3)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_checkpoint(path, {"a": np.zeros(3), "z": "not a number"})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.ckp1"]

    def test_truncated_record_name(self, tmp_path):
        path = tmp_path / "short.ckp1"
        path.write_bytes(b"CKP1" + struct.pack("<IH", 1, 10) + b"abc")
        with pytest.raises(TensorFormatError, match="truncated record name at offset 10: need 10 bytes, have 3"):
            read_checkpoint(path)

    def test_non_utf8_record_name(self, tmp_path):
        path = tmp_path / "bad.ckp1"
        path.write_bytes(b"CKP1" + struct.pack("<IH", 1, 2) + b"a\xff" + _tsb1_bytes(tmp_path, np.ones(1)))
        with pytest.raises(TensorFormatError, match="record name at offset 10 is not UTF-8"):
            read_checkpoint(path)

    def test_streamed_io_holds_no_second_copy(self, tmp_path):
        # 8 MiB in 1 MiB records. Building the file in memory, or reading it
        # whole before copying the arrays out, would hold every byte twice.
        size = 1 << 20
        named = {f"r{i}": np.full(size // 8, float(i)) for i in range(8)}
        path = tmp_path / "big.ckp1"
        tracemalloc.start()
        try:
            write_checkpoint(path, named)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loaded = read_checkpoint(path)
            held, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert write_peak < size + size // 4, f"write peaked at {write_peak / size:.2f} MiB"
        assert held >= 8 * size
        assert read_peak - held < size + size // 4, f"read held {(read_peak - held) / size:.2f} MiB extra"
        for name, arr in named.items():
            npt.assert_array_equal(loaded[name], arr)


class TestSignalsCsv:
    def test_handwritten_two_by_three(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("channel_0,channel_1\n1.0,4.0\n2.0,5.0\n3.0,6.0\n")
        arr = load_signals(path)
        npt.assert_array_equal(arr, [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])

    def test_roundtrip_single_sample(self, tmp_path, rng):
        data = rng.standard_normal((1, 3, 20))
        path = tmp_path / "one.csv"
        save_signals(path, data, "csv")
        npt.assert_array_equal(load_signals(path), data)

    def test_roundtrip_directory(self, tmp_path, rng):
        data = rng.standard_normal((4, 2, 16))
        path = tmp_path / "stack"
        save_signals(path, data, "csv")
        npt.assert_array_equal(load_signals(path), data)

    def test_roundtrip_tsb1(self, tmp_path, rng):
        data = rng.standard_normal((4, 2, 16))
        path = tmp_path / "stack.tsb1"
        save_signals(path, data)
        npt.assert_array_equal(load_signals(path), data)

    def test_bad_header_diagnostic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("col_a,col_b\n1,2\n")
        with pytest.raises(TensorFormatError, match="line 1"):
            load_signals(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("channel_0,channel_1\n1.0,2.0\n3.0\n")
        with pytest.raises(TensorFormatError, match="line 3"):
            load_signals(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("channel_0\n1.0\npotato\n")
        with pytest.raises(TensorFormatError, match="line 3"):
            load_signals(path)

    @pytest.mark.parametrize("as_dir", [False, True], ids=["file", "directory"])
    def test_non_utf8_byte_is_located(self, tmp_path, as_dir):
        # Alone or in a directory, the bad sample file is named.
        d = tmp_path / "stack"
        d.mkdir()
        path = d / "sample_0001.csv"
        path.write_bytes(b"channel_0\n1.0\n2.\xe90\n")
        if as_dir:
            (d / "sample_0000.csv").write_text("channel_0\n1.0\n2.0\n")
        located = f"{path}: line 3: byte 0xe9 at offset 16 is not UTF-8"
        with pytest.raises(TensorFormatError, match=re.escape(located)):
            load_signals(d if as_dir else path)

    def test_mismatched_directory_shapes(self, tmp_path):
        d = tmp_path / "stack"
        d.mkdir()
        (d / "sample_0000.csv").write_text("channel_0\n1.0\n2.0\n")
        (d / "sample_0001.csv").write_text("channel_0\n1.0\n")
        with pytest.raises(TensorFormatError, match="disagree"):
            load_signals(d)


class TestLoadChecks:
    @pytest.mark.parametrize(
        "where, value", [((0, 0, 0), np.nan), ((2, 1, 7), np.inf), ((3, 0, 15), -np.inf)]
    )
    @pytest.mark.parametrize("fmt", ["tsb1", "csv"])
    def test_non_finite_entry_is_located(self, tmp_path, rng, fmt, where, value):
        data = rng.standard_normal((4, 2, 16))
        data[where] = value
        path = tmp_path / ("stack.tsb1" if fmt == "tsb1" else "stack")
        save_signals(path, data, fmt)
        if fmt == "tsb1":
            located = f"{path}: non-finite value {value} at [sample, channel, timestep] = {list(where)}"
        else:
            # A CSV sample names its file, its line (after the header) and its column.
            sample, channel, step = where
            csv = path / f"sample_{sample:04d}.csv"
            located = f"{csv}: line {step + 2}: non-finite value {value} in column channel_{channel}"
        with pytest.raises(TensorFormatError, match=re.escape(located)):
            load_signals(path)

    @pytest.mark.parametrize("shape", [(0, 3, 256), (2, 0, 8), (2, 3, 0), (0, 5)])
    def test_empty_stack_names_the_shape(self, tmp_path, shape):
        path = tmp_path / "empty.tsb1"
        write_tsb1(path, np.zeros(shape))
        want = list(shape) if len(shape) == 3 else [1, *shape]
        with pytest.raises(TensorFormatError, match=re.escape(f"{path}: empty signal stack of shape {want}")):
            load_signals(path)

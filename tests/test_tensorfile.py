import hashlib

import numpy as np
import pytest

from tsprep.tensorfile import (
    HEADER_SIZE,
    MAGIC,
    TensorFileError,
    read_tensor,
    write_tensor,
)
from tsprep.util import sha256_file


@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0,
        np.array([1, 2, 3], dtype=np.int64),
        np.float32(np.random.RandomState(0).randn(5, 2)),
    ],
)
def test_roundtrip_bitwise(tmp_path, array):
    path = tmp_path / "t.bin"
    write_tensor(path, array)
    out = read_tensor(path)
    assert out.dtype == array.dtype
    assert out.shape == array.shape
    np.testing.assert_array_equal(out, array)


def test_nan_survives(tmp_path):
    array = np.array([[np.nan, 1.0], [2.0, np.nan]])
    write_tensor(tmp_path / "t.bin", array)
    out = read_tensor(tmp_path / "t.bin")
    np.testing.assert_array_equal(np.isnan(out), np.isnan(array))


def test_header_layout(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros((2, 5), dtype=np.float64))
    blob = path.read_bytes()
    assert blob.startswith(MAGIC)
    header = blob[:HEADER_SIZE]
    assert len(header) == HEADER_SIZE
    fields = header[len(MAGIC) :].decode("ascii").split()
    assert fields == ["f64", "2", "2", "5"]
    assert len(blob) == HEADER_SIZE + 2 * 5 * 8


def test_downcast_on_write(tmp_path):
    array = np.random.RandomState(1).randn(4, 3)
    write_tensor(tmp_path / "t.bin", array, "f32")
    out = read_tensor(tmp_path / "t.bin")
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, array.astype(np.float32))


def test_payload_is_little_endian(tmp_path):
    write_tensor(tmp_path / "t.bin", np.array([1], dtype=np.int64))
    payload = (tmp_path / "t.bin").read_bytes()[HEADER_SIZE:]
    assert payload == (1).to_bytes(8, "little")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"NOTMAGIC" + b" " * 100)
    with pytest.raises(TensorFileError, match="not a tensor file"):
        read_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros(10))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(TensorFileError, match="payload"):
        read_tensor(path)


def test_unknown_code_rejected(tmp_path):
    with pytest.raises(TensorFileError, match="unknown element type"):
        write_tensor(tmp_path / "t.bin", np.zeros(3), "f16")
    with pytest.raises(TensorFileError, match="unsupported dtype"):
        write_tensor(tmp_path / "t.bin", np.zeros(3, dtype=np.int32))


def test_write_returns_digest_of_the_file(tmp_path):
    path = tmp_path / "t.bin"
    array = np.random.RandomState(2).randn(7, 5, 3)
    assert write_tensor(path, array) == sha256_file(path)
    assert write_tensor(path, array, "f32") == sha256_file(path)
    assert write_tensor(path, np.zeros((0, 4))) == sha256_file(path)


def test_read_updates_digest_with_every_byte(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.arange(30, dtype=np.int64).reshape(5, 6))
    digest = hashlib.sha256()
    out = read_tensor(path, digest)
    assert digest.hexdigest() == sha256_file(path)
    assert out.flags.writeable  # owns a fresh buffer, like the former copy
    out[0, 0] = -1
    assert read_tensor(path)[0, 0] == 0


@pytest.mark.parametrize("offset", [len(MAGIC) + 1, 20, HEADER_SIZE - 1])
def test_non_ascii_header_byte_rejected(tmp_path, offset):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros((2, 3)))
    blob = bytearray(path.read_bytes())
    blob[offset] = 0xE9
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError, match="malformed header"):
        read_tensor(path)


def test_trailing_byte_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros(10))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(TensorFileError, match="payload"):
        read_tensor(path)


@pytest.mark.parametrize("dims", ["2 99999999999 99999999999", "2 -3 -8"])
def test_impossible_shape_rejected_before_allocating(tmp_path, dims):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros((3, 8)))
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) : HEADER_SIZE] = f" f64 {dims}".encode("ascii").ljust(HEADER_SIZE - len(MAGIC))
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError):
        read_tensor(path)

import numpy as np
import pytest

from tsprep.tensor_core import Ragged
from tsprep.tensorfile import (
    HEADER_SIZE,
    MAGIC,
    Rows,
    TensorFile,
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
    entry = write_tensor(path, array, f"{array.dtype.kind}{array.dtype.itemsize * 8}")
    out = read_tensor(path, entry)
    assert out.dtype == array.dtype
    assert out.shape == array.shape
    np.testing.assert_array_equal(out, array)


def test_nan_survives(tmp_path):
    array = np.array([[np.nan, 1.0], [2.0, np.nan]])
    entry = write_tensor(tmp_path / "t.bin", array, "f64")
    out = read_tensor(tmp_path / "t.bin", entry)
    np.testing.assert_array_equal(np.isnan(out), np.isnan(array))


def test_header_layout(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros((2, 5), dtype=np.float64), "f64")
    blob = path.read_bytes()
    assert blob.startswith(MAGIC)
    header = blob[:HEADER_SIZE]
    assert len(header) == HEADER_SIZE
    fields = header[len(MAGIC) :].decode("ascii").split()
    assert fields == ["f64", "2", "2", "5"]
    assert len(blob) == HEADER_SIZE + 2 * 5 * 8


def test_downcast_on_write(tmp_path):
    array = np.random.RandomState(1).randn(4, 3)
    entry = write_tensor(tmp_path / "t.bin", array, "f32")
    out = read_tensor(tmp_path / "t.bin", entry)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, array.astype(np.float32))


def test_payload_is_little_endian(tmp_path):
    write_tensor(tmp_path / "t.bin", np.array([1], dtype=np.int64), "i64")
    payload = (tmp_path / "t.bin").read_bytes()[HEADER_SIZE:]
    assert payload == (1).to_bytes(8, "little")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.bin"
    entry = write_tensor(path, np.zeros(1), "f64")
    path.write_bytes(b"NOTMAGIC" + b" " * 100)
    with pytest.raises(TensorFileError, match="not a tensor file"):
        read_tensor(path, entry)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.bin"
    entry = write_tensor(path, np.zeros(10), "f64")
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(TensorFileError, match="payload"):
        read_tensor(path, entry)


def test_unknown_code_rejected(tmp_path):
    with pytest.raises(TensorFileError, match="unknown element type"):
        write_tensor(tmp_path / "t.bin", np.zeros(3), "f16")


def test_write_returns_digest_of_the_file(tmp_path):
    path = tmp_path / "t.bin"
    array = np.random.RandomState(2).randn(7, 5, 3)
    assert write_tensor(path, array, "f64")["sha256"] == sha256_file(path)
    assert write_tensor(path, array, "f32")["sha256"] == sha256_file(path)
    assert write_tensor(path, np.zeros((0, 4)), "f64")["sha256"] == sha256_file(path)


@pytest.mark.parametrize("code", ["f64", "f32"])
def test_write_returns_the_files_entry_of_the_header(tmp_path, code):
    """The entry holds the shape and element type written into the header,
    for an array, gathered rows and a converted tensor file alike."""
    array = np.arange(24, dtype=np.float64).reshape(4, 3, 2)
    whole = write_tensor(tmp_path / "whole.bin", array, "f64")
    assert whole == {"sha256": sha256_file(tmp_path / "whole.bin"), "shape": [4, 3, 2],
                     "dtype": "f64"}
    rows = write_tensor(tmp_path / "rows.bin", Rows(array, np.array([2, 0])), code)
    assert rows["shape"] == [2, 3, 2] and rows["dtype"] == code
    copy = write_tensor(tmp_path / "copy.bin", TensorFile(tmp_path / "whole.bin", whole), code)
    assert copy["shape"] == [4, 3, 2] and copy["dtype"] == code
    for name, entry in (("rows.bin", rows), ("copy.bin", copy)):
        assert entry["sha256"] == sha256_file(tmp_path / name)
        read_tensor(tmp_path / name, entry)


def test_read_updates_digest_with_every_byte(tmp_path):
    """Given its files entry, a read checks the digest of the bytes it read:
    one flipped payload byte is refused."""
    path = tmp_path / "t.bin"
    array = np.arange(30, dtype=np.int64).reshape(5, 6)
    entry = write_tensor(path, array, "i64")
    assert entry["sha256"] == sha256_file(path)
    out = read_tensor(path, entry)
    np.testing.assert_array_equal(out, array)
    assert out.flags.writeable  # owns a fresh buffer, like the former copy
    out[0, 0] = -1
    assert read_tensor(path, entry)[0, 0] == 0
    blob = path.read_bytes()
    for offset in (HEADER_SIZE, len(blob) - 1):
        flipped = bytearray(blob)
        flipped[offset] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(TensorFileError, match="checksum mismatch"):
            read_tensor(path, entry)


@pytest.mark.parametrize("field, value", [("shape", [5, 7]), ("shape", [30]), ("dtype", "f64")])
@pytest.mark.parametrize("reader", [TensorFile, read_tensor])
def test_open_refuses_a_header_differing_from_its_entry(tmp_path, reader, field, value):
    """Both readers check the header against the files entry when they open
    the file, before any payload is read."""
    path = tmp_path / "t.bin"
    array = np.arange(30, dtype=np.int64).reshape(5, 6)
    entry = write_tensor(path, array, "i64")
    reader(path, entry)
    entry[field] = value
    with pytest.raises(TensorFileError, match=r"t\.bin: header holds .*, manifest states "):
        reader(path, entry)


@pytest.mark.parametrize("offset", [len(MAGIC) + 1, 20, HEADER_SIZE - 1])
def test_non_ascii_header_byte_rejected(tmp_path, offset):
    path = tmp_path / "t.bin"
    entry = write_tensor(path, np.zeros((2, 3)), "f64")
    blob = bytearray(path.read_bytes())
    blob[offset] = 0xE9
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError, match="malformed header"):
        read_tensor(path, entry)


def test_trailing_byte_rejected(tmp_path):
    path = tmp_path / "t.bin"
    entry = write_tensor(path, np.zeros(10), "f64")
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(TensorFileError, match="payload"):
        read_tensor(path, entry)


@pytest.mark.parametrize("dims", ["2 99999999999 99999999999", "2 -3 -8"])
def test_impossible_shape_rejected_before_allocating(tmp_path, dims):
    path = tmp_path / "t.bin"
    entry = write_tensor(path, np.zeros((3, 8)), "f64")
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) : HEADER_SIZE] = f" f64 {dims}".encode("ascii").ljust(HEADER_SIZE - len(MAGIC))
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError):
        read_tensor(path, entry)


def test_rows_write_the_gathered_rows_and_reject_bad_indices(tmp_path):
    array = np.arange(24, dtype=np.float64).reshape(4, 3, 2)
    write_tensor(tmp_path / "rows.bin", Rows(array, np.array([-1, 0, 2])), "f64")
    write_tensor(tmp_path / "whole.bin", array[[-1, 0, 2]], "f64")
    assert (tmp_path / "rows.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()
    ragged = Ragged.of_lengths(array.reshape(12, 2), [3, 3, 3, 3])
    for source in (array, ragged):  # checked as its block is gathered, inside the write
        with pytest.raises(IndexError):
            write_tensor(tmp_path / "bad.bin", Rows(source, np.array([0, 4])), "f64")
    with pytest.raises(TypeError):  # a mask would select fewer rows than the header states
        Rows(array, np.array([True, False, True, False]))


@pytest.mark.parametrize("lengths", [[3, 3, 3, 3], [3, 1, 3, 2]], ids=["equal", "unequal"])
@pytest.mark.parametrize("index", [None, [2, 0, 3]], ids=["all", "gathered"])
def test_rows_of_a_ragged_write_the_bytes_of_its_padded_rows(tmp_path, lengths, index):
    """A Ragged is padded into the writer's block buffer, whether its padded
    form is a view of its rows (equal lengths) or not."""
    series = [np.random.RandomState(5 + i).randn(L, 2) for i, L in enumerate(lengths)]
    ragged = Ragged.of_lengths(np.concatenate(series), lengths)
    padded = np.full((len(lengths), max(lengths), 2), np.nan)
    for i, m in enumerate(series):
        padded[i, : len(m)] = m
    index = None if index is None else np.array(index)
    got = write_tensor(tmp_path / "rows.bin", Rows(ragged, index), "f64")
    want = write_tensor(tmp_path / "padded.bin", padded if index is None else padded[index], "f64")
    assert got == want
    assert (tmp_path / "rows.bin").read_bytes() == (tmp_path / "padded.bin").read_bytes()

"""Dense binary tensor files.

One array per file, parseable from any language without libraries:

* bytes 0-7: magic ``TSPREP\\x01``
* bytes 8-95: ASCII, space-separated: element type code (``f32``, ``f64``
  or ``i64``), rank, then one dimension per rank; padded with spaces to the
  fixed 96-byte header
* bytes 96+: the array payload, row-major (C order), little-endian

The same serializer backs the on-disk cache and the CLI export, so cache
entries are self-describing.
"""

import hashlib
import math
import os
from pathlib import Path

import numpy as np

MAGIC = b"TSPREP\x01"
HEADER_SIZE = 96

DTYPE_OF_CODE = {"f32": "<f4", "f64": "<f8", "i64": "<i8"}
CODE_OF_KIND = {("f", 4): "f32", ("f", 8): "f64", ("i", 8): "i64"}


class TensorFileError(ValueError):
    """Raised for unreadable or malformed tensor files."""


def code_for(array: np.ndarray) -> str:
    try:
        return CODE_OF_KIND[(array.dtype.kind, array.dtype.itemsize)]
    except KeyError:
        raise TensorFileError(f"unsupported dtype {array.dtype}") from None


def write_tensor(path: Path, array: np.ndarray, code: str | None = None) -> str:
    """Write one array; ``code`` converts on the way out (e.g. f64 -> f32).

    Returns the SHA256 hex digest of the file, computed from the header and
    payload bytes in memory, so the file is never read back.
    """
    if code is None:
        code = code_for(array)
    if code not in DTYPE_OF_CODE:
        raise TensorFileError(f"unknown element type code {code!r}")
    payload = np.ascontiguousarray(array.astype(DTYPE_OF_CODE[code], copy=False))
    fields = " ".join([code, str(payload.ndim), *(str(d) for d in payload.shape)])
    header = MAGIC + b" " + fields.encode("ascii")
    if len(header) > HEADER_SIZE:
        raise TensorFileError("tensor rank too large for the fixed header")
    header = header.ljust(HEADER_SIZE, b" ")
    data = memoryview(payload.reshape(-1).view(np.uint8))
    digest = hashlib.sha256(header)
    digest.update(data)
    with open(path, "wb") as f:
        f.write(header)
        f.write(data)
    return digest.hexdigest()


def _parse_header(path: Path, header: bytes) -> tuple[np.dtype, tuple[int, ...]]:
    if len(header) < HEADER_SIZE or not header.startswith(MAGIC):
        raise TensorFileError(f"{path}: not a tensor file")
    try:
        fields = header[len(MAGIC) :].decode("ascii").split()
        code, rank = fields[0], int(fields[1])
        shape = tuple(int(d) for d in fields[2 : 2 + rank])
        dtype = np.dtype(DTYPE_OF_CODE[code])
    except (KeyError, ValueError, IndexError):  # ValueError covers non-ASCII bytes
        raise TensorFileError(f"{path}: malformed header") from None
    if len(shape) != rank or any(d < 0 for d in shape):
        raise TensorFileError(f"{path}: malformed header")
    return dtype, shape


def read_tensor(path: Path, digest=None) -> np.ndarray:
    """Read one array into a fresh buffer that the returned array owns.

    ``digest`` (a ``hashlib`` object) is updated with every byte of the
    file as read, so a caller can check a checksum without reading the file
    a second time.
    """
    with open(path, "rb") as f:
        header = f.read(HEADER_SIZE)
        dtype, shape = _parse_header(path, header)
        expected = math.prod(shape) * dtype.itemsize
        size = os.fstat(f.fileno()).st_size - HEADER_SIZE
        if size != expected:
            raise TensorFileError(f"{path}: payload is {size} bytes, expected {expected}")
        buffer = bytearray(expected)
        got = f.readinto(buffer)
    if got != expected:
        raise TensorFileError(f"{path}: payload is {got} bytes, expected {expected}")
    if digest is not None:
        digest.update(header)
        digest.update(buffer)
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)

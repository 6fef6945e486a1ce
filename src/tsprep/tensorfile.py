"""Dense binary tensor files, and the manifest of the directories holding them.

One array per file, parseable from any language without libraries:

* bytes 0-7: magic ``TSPREP\\x01``
* bytes 8-95: ASCII, space-separated: element type code (``f32``, ``f64``
  or ``i64``), rank, then one dimension per rank; padded with spaces to the
  fixed 96-byte header
* bytes 96+: the array payload, row-major (C order), little-endian

Every directory tsprep writes (cache entries, prepared directories and
exports) holds such files plus a ``manifest.json`` whose ``files`` map gives
each blob ``{sha256, shape, dtype}``; see :func:`read_manifest`.
"""

import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from tsprep.tensor_core import SPLIT_CODES
from tsprep.util import sha256_file

MAGIC = b"TSPREP\x01"
HEADER_SIZE = 96

DTYPE_OF_CODE = {"f32": "<f4", "f64": "<f8", "i64": "<i8"}
CODE_OF_KIND = {("f", 4): "f32", ("f", 8): "f64", ("i", 8): "i64"}

MANIFEST_VERSION = 1  # manifest_version of prepared and export directories
CACHE_FORMAT_VERSION = 2  # format_version of cache entries
CACHE_BLOBS = ("X.bin", "y.bin", "length.bin")
_VERSIONS = {"cache": ("format_version", CACHE_FORMAT_VERSION),
             "prepared": ("manifest_version", MANIFEST_VERSION)}
_SHA256 = re.compile(r"[0-9a-f]{64}")


class TensorFileError(ValueError):
    """Raised for unreadable or malformed tensor files."""


class ManifestError(ValueError):
    """Missing or malformed manifest."""


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


def split_blobs(splits) -> set[str]:
    """Blob names of a prepared or export directory holding ``splits``."""
    return {f"{stem}_{split}.bin" for stem in ("X", "y", "length") for split in splits}


def file_entry(digest: str, array: np.ndarray, code: str) -> dict:
    """The ``files`` entry of a blob that :func:`write_tensor` wrote."""
    return {"sha256": digest, "shape": list(array.shape), "dtype": code}


def read_manifest(directory: Path, kind: str | None = None) -> dict:
    """Parse and check ``<directory>/manifest.json``, else :class:`ManifestError`.

    One with ``split_sizes`` is of kind ``"prepared"`` (prepared and export
    directories), one without of kind ``"cache"``; ``kind`` None accepts
    either. ``files`` must name exactly the blobs of that kind, each with a
    64-hex ``sha256``, a ``shape`` of non-negative ints and a known ``dtype``.
    """
    path = Path(directory) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"{directory}: no manifest.json") from None
    except ValueError as err:  # undecodable bytes or invalid JSON
        raise ManifestError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: not a JSON object")
    found = "prepared" if "split_sizes" in manifest else "cache"
    kind = kind or found
    key, version = _VERSIONS[kind]
    if found != kind or manifest.get(key) != version:
        raise ManifestError(f"{path}: not a {kind} manifest of {key} {version}")
    sizes = manifest.get("split_sizes", {})
    unknown = sorted(set(sizes) - set(SPLIT_CODES)) if isinstance(sizes, dict) else [sizes]
    if unknown or (kind == "prepared" and "train" not in sizes):
        raise ManifestError(f"{path}: split_sizes must name train, and only train, val, test")
    expected = split_blobs(sizes) if kind == "prepared" else set(CACHE_BLOBS)
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise ManifestError(f"{path}: files must be an object")
    unknown, missing = sorted(set(files) - expected), sorted(expected - set(files))
    if unknown or missing:
        problem = f"unknown file name {unknown[0]!r}" if unknown else f"no entry for {missing[0]}"
        raise ManifestError(f"{path}: {problem}")
    for name, entry in sorted(files.items()):
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (
            isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
            and isinstance(entry.get("sha256"), str) and _SHA256.fullmatch(entry["sha256"])
            and entry.get("dtype") in DTYPE_OF_CODE
        ):
            raise ManifestError(f"{path}: malformed files entry {name!r}")
    return manifest


def verify_dir(directory: Path) -> list[str]:
    """Names of the blobs of a tensor directory that are missing or whose
    SHA256, read from disk, differs from the manifest; empty means intact."""
    directory = Path(directory)
    return [
        name
        for name, entry in sorted(read_manifest(directory)["files"].items())
        if not (directory / name).is_file() or sha256_file(directory / name) != entry["sha256"]
    ]

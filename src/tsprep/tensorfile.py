"""Dense binary tensor files, and the manifest of the directories holding them.

One array per file, parseable from any language without libraries:

* bytes 0-7: magic ``TSPREP\\x01``
* bytes 8-95: ASCII, space-separated: element type code (``f32``, ``f64``
  or ``i64``), rank, then one dimension per rank; padded with spaces to the
  fixed 96-byte header
* bytes 96+: the array payload, row-major (C order), little-endian

:func:`write_tensor` is the one writer: it takes an array, the rows of one
(:class:`Rows`) or another tensor file (:class:`TensorFile`) and writes,
converts and hashes the payload one row block of :data:`BLOCK_BYTES` at a
time, so no second copy of a payload is ever held.

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
BLOCK_BYTES = 1 << 20  # bytes per row block that the writer and block reader hold

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


def _block_rows(shape: tuple[int, ...], itemsize: int) -> int:
    """Rows per block: as many as fit in :data:`BLOCK_BYTES`, at least one."""
    return max(1, BLOCK_BYTES // max(1, math.prod(shape[1:]) * itemsize))


class Rows:
    """The rows ``array[index]`` (every row when ``index`` is None), which
    :func:`write_tensor` gathers one block at a time instead of whole."""

    def __init__(self, array: np.ndarray, index=None) -> None:
        self.array = np.atleast_1d(array)
        n = len(self.array)
        if index is not None:
            index = np.asarray(index)
            if index.dtype.kind not in "iu" or index.ndim != 1:
                raise TypeError("row index must be a 1-D array of integer positions")
            if index.size and not (-n <= index.min() and index.max() < n):
                raise IndexError(f"row index out of range for {n} rows")
        self.index = index
        self.dtype = self.array.dtype
        self.shape = (n if index is None else len(index),) + self.array.shape[1:]

    def blocks(self, itemsize: int = 0):
        """Yield C-contiguous row blocks of at most :data:`BLOCK_BYTES` (at
        ``max(itemsize, dtype.itemsize)`` bytes per element); gathered
        blocks share one buffer, so each is valid until the next."""
        n, step = self.shape[0], _block_rows(self.shape, max(itemsize, self.dtype.itemsize))
        buffer = None
        for start in range(0, n, step):
            stop = min(start + step, n)
            if self.index is None:
                yield np.ascontiguousarray(self.array[start:stop])
                continue
            if buffer is None:
                buffer = np.empty((min(step, n),) + self.shape[1:], self.dtype)
            # indices are checked above; "wrap" keeps np.take from buffering
            yield np.take(self.array, self.index[start:stop], axis=0,
                          out=buffer[: stop - start], mode="wrap")


class TensorFile:
    """A tensor file read in row blocks, for payloads too large to hold
    twice; the header is checked against the file size when opened."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as f:
            _, self.dtype, self.shape = _read_header(self.path, f)

    def blocks(self, itemsize: int = 0):
        """Yield the payload in row blocks, as :meth:`Rows.blocks` does, read
        with ``readinto`` into one reused buffer."""
        n, step = self.shape[0], _block_rows(self.shape, max(itemsize, self.dtype.itemsize))
        buffer = np.empty((min(step, n),) + self.shape[1:], self.dtype)
        with open(self.path, "rb") as f:
            f.seek(HEADER_SIZE)
            for start in range(0, n, step):
                block = buffer[: min(step, n - start)]
                got = f.readinto(memoryview(block.reshape(-1).view(np.uint8)))
                if got != block.nbytes:
                    raise TensorFileError(f"{self.path}: payload ends early")
                yield block


def write_tensor(path: Path, array, code: str | None = None) -> str:
    """Write an array, the rows of a :class:`Rows` or the tensor of a
    :class:`TensorFile`; ``code`` converts on the way out (e.g. f64 -> f32).

    The one writer: the payload goes out one row block at a time, converted
    into a reused buffer where ``code`` differs, so memory beyond the source
    stays within two blocks. Returns the SHA256 hex digest of the file, fed
    with each block as written, so the file is never read back.
    """
    source = array if isinstance(array, (Rows, TensorFile)) else Rows(array)
    if code is None:
        code = code_for(source)
    if code not in DTYPE_OF_CODE:
        raise TensorFileError(f"unknown element type code {code!r}")
    dtype = np.dtype(DTYPE_OF_CODE[code])
    fields = " ".join([code, str(len(source.shape)), *(str(d) for d in source.shape)])
    header = MAGIC + b" " + fields.encode("ascii")
    if len(header) > HEADER_SIZE:
        raise TensorFileError("tensor rank too large for the fixed header")
    header = header.ljust(HEADER_SIZE, b" ")
    digest = hashlib.sha256(header)
    converted = None
    with open(path, "wb") as f:
        f.write(header)
        for block in source.blocks(dtype.itemsize):
            if block.dtype != dtype:
                if converted is None:
                    converted = np.empty(block.shape, dtype)
                np.copyto(converted[: len(block)], block, casting="unsafe")
                block = converted[: len(block)]
            data = memoryview(block.reshape(-1).view(np.uint8))
            digest.update(data)
            f.write(data)
    return digest.hexdigest()


def _read_header(path: Path, f) -> tuple[bytes, np.dtype, tuple[int, ...]]:
    """Read and parse the header of the open file ``f``; checks that the
    payload size matches it."""
    header = f.read(HEADER_SIZE)
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
    expected = math.prod(shape) * dtype.itemsize
    size = os.fstat(f.fileno()).st_size - HEADER_SIZE
    if size != expected:
        raise TensorFileError(f"{path}: payload is {size} bytes, expected {expected}")
    return header, dtype, shape


def read_tensor(path: Path, digest=None) -> np.ndarray:
    """Read one array into a fresh buffer that the returned array owns.

    ``digest`` (a ``hashlib`` object) is updated with every byte of the
    file as read, so a caller can check a checksum without reading the file
    a second time.
    """
    with open(path, "rb") as f:
        header, dtype, shape = _read_header(path, f)
        buffer = bytearray(math.prod(shape) * dtype.itemsize)
        got = f.readinto(buffer)
    if got != len(buffer):
        raise TensorFileError(f"{path}: payload is {got} bytes, expected {len(buffer)}")
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


def check_entry(path: Path, entry: dict, source) -> None:
    """Raise :class:`TensorFileError` unless ``source`` (an array or a
    :class:`TensorFile`) has the element type and shape ``entry`` states."""
    found, stated = (code_for(source), list(source.shape)), (entry["dtype"], entry["shape"])
    if found != stated:
        raise TensorFileError(f"{path}: header holds {found}, manifest states {stated}")


def read_manifest(directory: Path, kind: str | None = None) -> dict:
    """Parse and check ``<directory>/manifest.json``, else :class:`ManifestError`.

    One with ``split_sizes`` is of kind ``"prepared"`` (prepared and export
    directories), one without of kind ``"cache"``; ``kind`` None accepts
    either. ``files`` must name exactly the blobs of that kind, each with a
    64-hex ``sha256``, a ``shape`` of non-negative ints and a known ``dtype``,
    and the rest of the manifest must agree with those shapes (see
    :func:`_check_prepared` and :func:`_check_cache`).
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
    (_check_prepared if kind == "prepared" else _check_cache)(path, manifest)
    return manifest


_DATASET_INFO_KEYS = {"time_channel", "channels", "mask_covers_time", "dropped_records"}


def _check_cache(path: Path, manifest: dict) -> None:
    """The blob digests do not cover a cache manifest's ``dataset_info``:
    it must hold its four keys and name one channel per data channel of
    ``X.bin`` (channel 0 is the time stamp)."""
    info = manifest.get("dataset_info")
    shape = manifest["files"]["X.bin"]["shape"]
    if not (
        isinstance(info, dict) and _DATASET_INFO_KEYS <= info.keys()
        and isinstance(info["channels"], list) and [len(info["channels"]) + 1] == shape[-1:]
    ):
        raise ManifestError(f"{path}: dataset_info does not describe X.bin of shape {shape}")


def _check_prepared(path: Path, manifest: dict) -> None:
    """A prepared manifest must agree with its own ``files`` shapes: each
    split's size is the first dimension of its three blobs, and the channel
    names and kinds are strings, one per last dimension of its ``X``.
    ``dataset``, ``tool`` and ``tool_version`` are strings and ``seed`` an
    integer or null."""
    if not (
        all(isinstance(manifest.get(key), str) for key in ("dataset", "tool", "tool_version"))
        and "seed" in manifest and (manifest["seed"] is None or type(manifest["seed"]) is int)
    ):
        raise ManifestError(f"{path}: dataset, tool and tool_version must be strings "
                            "and seed an integer or null")
    files = manifest["files"]
    names, kinds = manifest.get("channels"), manifest.get("channel_kinds")
    for split, size in manifest["split_sizes"].items():
        for stem in ("X", "y", "length"):
            rows = files[f"{stem}_{split}.bin"]["shape"][:1]
            if rows != [size]:
                raise ManifestError(f"{path}: split_sizes {split} is {size!r}, "
                                    f"{stem}_{split}.bin has {rows[0] if rows else 'no'} rows")
        if not (
            isinstance(names, list) and isinstance(kinds, list)
            and all(isinstance(text, str) for text in names + kinds)
            and len(names) == len(kinds)
            and files[f"X_{split}.bin"]["shape"][-1:] == [len(names)]
        ):
            raise ManifestError(f"{path}: channels and channel_kinds must be lists of "
                                f"strings, one per channel of X_{split}.bin")


def _intact(path: Path, entry: dict) -> bool:
    try:
        check_entry(path, entry, TensorFile(path))
    except (OSError, TensorFileError):
        return False
    return sha256_file(path) == entry["sha256"]


def verify_dir(directory: Path) -> list[str]:
    """Names of the blobs of a tensor directory that are missing, whose
    header differs from their ``files`` entry or whose SHA256, read from
    disk, differs from the manifest; empty means intact."""
    directory = Path(directory)
    return [
        name
        for name, entry in sorted(read_manifest(directory)["files"].items())
        if not _intact(directory / name, entry)
    ]

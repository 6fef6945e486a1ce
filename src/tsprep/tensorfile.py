"""Dense binary tensor files, and the manifest of the directories holding them.

One array per file, parseable from any language without libraries:

* bytes 0-7: magic ``TSPREP\\x01``
* bytes 8-95: ASCII, space-separated: element type code (``f32``, ``f64``
  or ``i64``), rank, then one dimension per rank; padded with spaces to the
  fixed 96-byte header
* bytes 96+: the array payload, row-major (C order), little-endian

:func:`write_tensor` is the one writer: it takes an array, the rows of one
or the padded sequences of a :class:`~tsprep.tensor_core.Ragged`
(:class:`Rows`), or another tensor file (:class:`TensorFile`), and writes,
converts and hashes the payload one row block of :data:`BLOCK_BYTES` at a
time, so no second copy of a payload, and no padded copy of a ragged one,
is ever held.

Every directory tsprep writes (cache entries, prepared directories and
exports) holds such files plus a ``manifest.json`` whose ``files`` map gives
each blob ``{sha256, shape, dtype}``. This module owns that format:
:data:`SCHEMA` lists the keys of each kind, :func:`check_manifest` checks
them on every read (:func:`read_manifest`) and every write (:func:`publish`).
A blob's entry is its one handle: :func:`write_tensor` returns it, and every
reader takes it (:class:`TensorFile`, :func:`read_tensor`) and refuses a
header that differs from it; :func:`read_tensor` also checks the digest of
the bytes it reads.
"""

import hashlib
import json
import math
import os
import re
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from tsprep.tensor_core import DATA, DELTA, MASK, SPLIT_CODES, TIME, Ragged
from tsprep.util import sha256_file, staged_dir

MAGIC = b"TSPREP\x01"
HEADER_SIZE = 96
BLOCK_BYTES = 1 << 20  # bytes per row block that the writer and block reader hold

DTYPE_OF_CODE = {"f32": "<f4", "f64": "<f8", "i64": "<i8"}

MANIFEST_VERSION = 1  # manifest_version of prepared and export directories
CACHE_FORMAT_VERSION = 3  # format_version of cache entries: X.bin holds real steps only
CACHE_BLOBS = ("X.bin", "y.bin", "length.bin")
_SHA256 = re.compile(r"[0-9a-f]{64}")


class TensorFileError(ValueError):
    """Raised for unreadable or malformed tensor files."""


class ManifestError(ValueError):
    """Missing or malformed manifest."""


def _block_rows(shape: tuple[int, ...], itemsize: int) -> int:
    """Rows per block: as many as fit in :data:`BLOCK_BYTES`, at least one."""
    return max(1, BLOCK_BYTES // max(1, math.prod(shape[1:]) * itemsize))


class Rows:
    """The rows ``array[index]`` (every row when ``index`` is None) of an
    array, or the padded sequences of a :class:`~tsprep.tensor_core.Ragged`,
    which :func:`write_tensor` gathers or pads one block at a time instead
    of whole."""

    def __init__(self, array, index=None) -> None:
        if isinstance(array, Ragged) and array.dense is not None:
            array = array.dense  # every sequence whole: gather the padded form
        self.array = array if isinstance(array, Ragged) else np.atleast_1d(array)
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
        ragged = isinstance(self.array, Ragged)
        buffer = None
        for start in range(0, n, step):
            stop = min(start + step, n)
            if self.index is None and not ragged:
                yield np.ascontiguousarray(self.array[start:stop])
                continue
            if buffer is None:
                buffer = np.empty((min(step, n),) + self.shape[1:], self.dtype)
            if ragged:
                rows = slice(start, stop) if self.index is None else self.index[start:stop]
                yield self.array.pad(rows, out=buffer[: stop - start])
            else:
                # indices are checked above; "wrap" keeps np.take from buffering
                yield np.take(self.array, self.index[start:stop], axis=0,
                              out=buffer[: stop - start], mode="wrap")


class TensorFile:
    """A tensor file read in row blocks, for payloads too large to hold
    twice; the header is checked against the file size and against the
    blob's ``files`` ``entry`` when opened (:func:`_read_header`)."""

    def __init__(self, path: Path, entry: dict) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as f:
            _, self.dtype, self.shape = _read_header(self.path, f, entry)

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


def write_tensor(path: Path, array, code: str) -> dict:
    """Write an array, the rows of a :class:`Rows` or the tensor of a
    :class:`TensorFile` as element type ``code``, converting on the way out
    where the source differs (e.g. f64 -> f32).

    The one writer: the payload goes out one row block at a time, converted
    into a reused buffer where ``code`` differs, so memory beyond the source
    stays within two blocks. Returns the blob's ``files`` entry, whose
    SHA256 is fed with each block as written, so the file is never read back.
    """
    source = array if isinstance(array, (Rows, TensorFile)) else Rows(array)
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
    return {"sha256": digest.hexdigest(), "shape": list(source.shape), "dtype": code}


def _read_header(path: Path, f, entry: dict) -> tuple[bytes, np.dtype, tuple[int, ...]]:
    """Read and parse the header of the open file ``f``; checks that the
    payload size matches it and that it holds the element type and shape
    that the blob's ``files`` ``entry`` states."""
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
    found, stated = (code, list(shape)), (entry["dtype"], entry["shape"])
    if found != stated:
        raise TensorFileError(f"{path}: header holds {found}, manifest states {stated}")
    return header, dtype, shape


def read_tensor(path: Path, entry: dict) -> np.ndarray:
    """Read one array into a fresh buffer that the returned array owns.

    The header is checked against the blob's ``files`` ``entry``
    (:func:`_read_header`) and the SHA256 of the bytes just read against
    its digest, so the file is opened and read once.
    """
    with open(path, "rb") as f:
        header, dtype, shape = _read_header(path, f, entry)
        buffer = bytearray(math.prod(shape) * dtype.itemsize)
        got = f.readinto(buffer)
    if got != len(buffer):
        raise TensorFileError(f"{path}: payload is {got} bytes, expected {len(buffer)}")
    digest = hashlib.sha256(header)
    digest.update(buffer)
    if digest.hexdigest() != entry["sha256"]:
        raise TensorFileError(f"{path}: checksum mismatch")
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


def split_blobs(splits) -> set[str]:
    """Blob names of a prepared or export directory holding ``splits``."""
    return {f"{stem}_{split}.bin" for stem in ("X", "y", "length") for split in splits}


def check_bounds(directory: Path, length: np.ndarray, X_shape, y_shape) -> None:
    """Raise :class:`TensorFileError` unless ``length.bin`` of the cache
    entry ``directory`` bounds the rows of its ``X.bin`` (cache format 3):
    one length of at least 1 per row of ``y.bin``, summing to the row count
    of a 2-D ``X.bin``. Matching digests cannot show this, as they cannot
    show that ``dataset_info`` fits ``X.bin``, which :func:`check_manifest`
    checks."""
    if (length < 1).any():
        raise TensorFileError(f"{directory}: length.bin holds a length below 1")
    if (length.ndim != 1 or len(X_shape) != 2 or int(length.sum()) != X_shape[0]
            or list(y_shape[:1]) != [len(length)]):
        raise TensorFileError(
            f"{directory}: length.bin ({len(length)} lengths summing to {int(length.sum())}) "
            f"does not bound X.bin of shape {tuple(X_shape)} and y.bin of shape {tuple(y_shape)}"
        )


def _integer(value) -> bool:
    """an integer"""
    return type(value) is int


def _sha256(value) -> bool:
    """64 lowercase hex digits"""
    return type(value) is str and _SHA256.fullmatch(value) is not None


ABSENT = object()  # the value of a key left out, allowed where a spec lists it
_FILE = {"sha256": _sha256, "shape": [int], "dtype": tuple(DTYPE_OF_CODE)}
# Every key of each kind of manifest and the value it must hold; other keys
# are ignored. ``int`` is a non-negative integer (never a bool) and ``dict``
# any object; a function tests the value; a tuple lists alternatives, each a
# spec or an allowed value; ``[spec]`` is a list, a nested dict an object of
# those keys and ``{str: spec}`` one of any keys. Exports are "prepared".
SCHEMA = {
    "cache": {
        "format_version": (CACHE_FORMAT_VERSION,), "dataset": str, "created_utc": str,
        "dataset_info": {"time_channel": str, "channels": [str], "mask_covers_time": bool,
                         "dropped_records": int},
        "files": {str: _FILE},
    },
    "prepared": {
        "manifest_version": (MANIFEST_VERSION,), "tool": str, "tool_version": str,
        "created_utc": str, "dataset": str, "config": dict, "seed": (_integer, None),
        "split_sizes": {str: int}, "channels": [str], "channel_kinds": [(TIME, DATA, MASK, DELTA)],
        "dropped_records": int, "exported_dtype": (ABSENT, "f32", "f64"), "files": {str: _FILE},
    },
}
_WORDS = {int: "a non-negative integer", str: "a string", bool: "true or false",
          dict: "an object", list: "a list"}


def _fits(value, spec) -> bool:
    """Whether ``value`` fits a spec that is not an object or a list."""
    if isinstance(spec, tuple):
        return any(_fits(value, alt) for alt in spec)
    if isinstance(spec, type):
        return type(value) is spec and (spec is not int or value >= 0)
    return spec(value) if callable(spec) else type(value) is type(spec) and value == spec


def _describe(spec) -> str:
    if isinstance(spec, tuple):
        return " or ".join(_describe(alt) for alt in spec if alt is not ABSENT)
    if isinstance(spec, (type, dict, list)):
        return _WORDS[spec if isinstance(spec, type) else type(spec)]
    return spec.__doc__ if callable(spec) else json.dumps(spec)


def _check(path: Path, value, spec, where: str) -> None:
    """Raise :class:`ManifestError` naming the first key at or below
    ``where`` whose value does not fit ``spec``."""
    if isinstance(spec, dict) and type(value) is dict:
        each = spec.get(str)  # the spec of every value of a {str: spec} object
        for key in value if each else spec:
            _check(path, value.get(key, ABSENT), each or spec[key],
                   f"{where}.{key}" if where else key)
    elif isinstance(spec, list) and type(value) is list:
        for i, item in enumerate(value):
            _check(path, item, spec[0], f"{where}[{i}]")
    elif isinstance(spec, (dict, list)) or not _fits(value, spec):
        problem = "is missing" if value is ABSENT else f"must be {_describe(spec)}"
        raise ManifestError(f"{path}: {where or 'the manifest'} {problem}")


def check_manifest(path: Path, manifest: dict, kind: str) -> None:
    """Raise :class:`ManifestError` unless ``manifest`` fits ``SCHEMA[kind]``,
    names exactly the blobs of its kind and counts what their shapes hold:
    the rows of each split, the channels of each ``X`` (after the time stamp
    for ``dataset_info.channels``)."""
    _check(path, manifest, SCHEMA[kind], "")
    files, sizes = manifest["files"], manifest.get("split_sizes", {})
    if kind == "prepared" and not ("train" in sizes and set(sizes) <= set(SPLIT_CODES)):
        raise ManifestError(f"{path}: split_sizes must name train, and only train, val, test")
    expected = split_blobs(sizes) if kind == "prepared" else set(CACHE_BLOBS)
    unknown, missing = sorted(set(files) - expected), sorted(expected - set(files))
    if unknown or missing:
        problem = f"unknown file name {unknown[0]!r}" if unknown else f"no entry for {missing[0]}"
        raise ManifestError(f"{path}: {problem}")
    if kind == "cache":
        counts = [("dataset_info.channels", len(manifest["dataset_info"]["channels"]) + 1,
                   "X.bin", -1)]
    else:
        counts = [(f"split_sizes.{split}", size, f"{stem}_{split}.bin", 0)
                  for split, size in sizes.items() for stem in ("X", "y", "length")]
        counts += [(key, len(manifest[key]), f"X_{split}.bin", -1)
                   for key in ("channels", "channel_kinds") for split in sizes]
    for key, count, name, axis in counts:
        shape = files[name]["shape"]
        if shape[axis:][:1] != [count]:
            raise ManifestError(f"{path}: {key} does not describe {name} of shape {shape}")


def read_manifest(directory: Path, kind: str | None = None) -> dict:
    """Parse and check ``<directory>/manifest.json``, else :class:`ManifestError`.
    One with ``split_sizes`` is of kind ``"prepared"``, one without of kind
    ``"cache"``; ``kind`` None accepts either."""
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
    if kind not in (None, found):
        raise ManifestError(f"{path}: a {found} manifest, not a {kind} one")
    check_manifest(path, manifest, found)
    return manifest


@contextmanager
def publish(final: Path, kind: str, fields: dict) -> Iterator[tuple[Path, dict]]:
    """Publish a tensor directory of ``kind`` whole (:func:`staged_dir`).

    Yields ``(tmp, files)``: the caller writes its blobs into ``tmp`` with
    :func:`write_tensor` and stores the entry it returns under the blob's
    name in ``files``. Then ``fields``, the version key, ``created_utc`` and
    ``files`` are checked (:func:`check_manifest`) and written as canonical
    JSON (sorted keys, 2-space indent), so no writer publishes a manifest
    that its reader would refuse."""
    final = Path(final)
    with staged_dir(final) as tmp:
        files: dict[str, dict] = {}
        yield tmp, files
        version = next(iter(SCHEMA[kind]))  # each table lists its version key first
        manifest = {**fields, version: SCHEMA[kind][version][0],
                    "created_utc": datetime.now(timezone.utc).isoformat(), "files": files}
        check_manifest(final / "manifest.json", manifest, kind)
        text = json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        (tmp / "manifest.json").write_text(text, encoding="utf-8")


def _intact(path: Path, entry: dict) -> bool:
    try:
        TensorFile(path, entry)
    except (OSError, TensorFileError):
        return False
    return sha256_file(path) == entry["sha256"]


def verify_dir(directory: Path) -> list[str]:
    """Names of the blobs of a tensor directory that are missing, whose
    header differs from their ``files`` entry or whose SHA256, read from
    disk, differs from the manifest, and, in a cache entry whose blobs are
    intact, ``length.bin`` when it does not bound ``X.bin``
    (:func:`check_bounds`, the check a build makes); empty means intact."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    files = manifest["files"]
    bad = [name for name, entry in sorted(files.items()) if not _intact(directory / name, entry)]
    if "split_sizes" not in manifest and not bad:
        try:
            check_bounds(directory, read_tensor(directory / "length.bin", files["length.bin"]),
                         files["X.bin"]["shape"], files["y.bin"]["shape"])
        except TensorFileError:
            bad.append("length.bin")
    return bad

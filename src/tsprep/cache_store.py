"""On-disk cache of the processed master dataset with SHA256 validation.

Layout: ``<root>/.torchtime/<key>/`` holding ``X.bin``, ``y.bin``,
``length.bin`` (full-precision tensor files), ``meta.json`` and
``checksums.txt`` (``sha256sum``-compatible lines covering the blobs).
Entries are published whole by :func:`tsprep.util.staged_dir`, so readers
only ever see absent, old or complete entries.
"""

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from tsprep.tensorfile import TensorFileError, read_tensor, write_tensor
from tsprep.util import canonical_json, sha256_file, staged_dir

CACHE_FORMAT_VERSION = 1
CACHE_DIRNAME = ".torchtime"
# checksums.txt covers the tensor blobs only: blob serialization is
# deterministic, so identical data always yields identical checksum files
# (meta.json carries a creation timestamp and is validated structurally)
_BLOBS = ("X.bin", "y.bin", "length.bin")


class CacheMiss(Exception):
    """Entry unusable; the pipeline rebuilds."""


class CacheAbsent(CacheMiss):
    pass


class CacheCorrupt(CacheMiss):
    """Checksum or format mismatch: never silently loaded."""


def entry_dir(root: Path, key: str) -> Path:
    return Path(root) / CACHE_DIRNAME / key


def save(
    root: Path,
    key: str,
    X: np.ndarray,
    y: np.ndarray,
    length: np.ndarray,
    source_options: dict,
    dataset_info: dict | None = None,
) -> None:
    """Write a cache entry through :func:`tsprep.util.staged_dir`.

    Tensors are stored at full precision (f64/f64/i64) so a cache round trip
    is bitwise exact; ``checksums.txt`` holds the digests of the bytes as
    they were written. Concurrent writers of one key do not fail: a writer
    whose rename finds another writer's entry already in place discards its
    own copy and keeps that entry, which holds the same bytes when the
    inputs are the same.
    """
    with staged_dir(entry_dir(root, key)) as tmp:
        checksums = {
            "X.bin": write_tensor(tmp / "X.bin", X, "f64"),
            "y.bin": write_tensor(tmp / "y.bin", y, "f64"),
            "length.bin": write_tensor(tmp / "length.bin", length, "i64"),
        }
        meta = {
            "format_version": CACHE_FORMAT_VERSION,
            "dataset": key,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "source_options": source_options,
            "dataset_info": dataset_info or {},
        }
        (tmp / "meta.json").write_text(canonical_json(meta), encoding="utf-8")
        lines = "".join(f"{digest}  {name}\n" for name, digest in sorted(checksums.items()))
        (tmp / "checksums.txt").write_text(lines, encoding="utf-8")


def read_checksums(directory: Path) -> dict[str, str]:
    path = directory / "checksums.txt"
    if not path.exists():
        raise CacheCorrupt(f"{directory}: checksums.txt missing")
    sums: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            digest, name = line.split(None, 1)
        except ValueError:
            raise CacheCorrupt(f"{directory}: malformed checksum line {line!r}") from None
        sums[name.strip()] = digest
    return sums


def verify(directory: Path) -> list[str]:
    """Names of files whose SHA256 does not match checksums.txt (or that are
    missing). Empty means intact."""
    sums = read_checksums(directory)
    bad = []
    for name in _BLOBS:
        expected = sums.get(name)
        target = directory / name
        if expected is None or not target.exists() or sha256_file(target) != expected:
            bad.append(name)
    return bad


def load(root: Path, key: str, source_options: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Load a cache entry, raising :class:`CacheAbsent` when there is no
    entry for the key and :class:`CacheCorrupt` when validation fails
    (checksum mismatch, unreadable blob, wrong format version or differing
    source options).

    Each blob is hashed while it is read, in one pass, and the digest is
    checked against ``checksums.txt`` before the arrays are returned.
    """
    directory = entry_dir(root, key)
    if not directory.is_dir():
        raise CacheAbsent(f"no cache entry at {directory}")
    sums = read_checksums(directory)
    arrays = []
    for name in _BLOBS:
        digest = hashlib.sha256()
        try:
            arrays.append(read_tensor(directory / name, digest))
        except (TensorFileError, OSError) as err:
            raise CacheCorrupt(f"{directory}: unreadable {name}: {err}") from None
        if digest.hexdigest() != sums.get(name):
            raise CacheCorrupt(f"{directory}: checksum mismatch for {name}")
    try:
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise CacheCorrupt(f"{directory}: unreadable meta.json: {err}") from None
    if meta.get("format_version") != CACHE_FORMAT_VERSION:
        raise CacheCorrupt(
            f"{directory}: cache format {meta.get('format_version')} != {CACHE_FORMAT_VERSION}"
        )
    if meta.get("dataset") != key or meta.get("source_options") != source_options:
        # a stale entry is not corruption, but it cannot be used either
        raise CacheMiss(f"{directory}: entry was built with different source options")
    X, y, length = arrays
    return X, y, length, meta

"""On-disk cache of the processed master dataset with SHA256 validation.

Layout: ``<root>/.torchtime/<key>/`` holds ``X.bin``, ``y.bin``, ``length.bin``
at full precision and a ``manifest.json`` of kind ``"cache"``
(:data:`tsprep.tensorfile.SCHEMA`) that also records ``dataset`` (the key,
the entry's only identity) and ``dataset_info``. From format 3 the pipeline
stores the master's real steps, record after record, as ``X.bin`` of shape
``(sum of lengths, 1 + d)``, bounded by ``length.bin``; this module stores
whatever arrays it is given. Entries are published whole by
:func:`tsprep.tensorfile.publish`, so readers only ever see absent, old or
complete entries; one of an older format fails the schema (or, before
format 2, has no manifest) and is rebuilt.
"""

from pathlib import Path

import numpy as np

from tsprep.tensorfile import CACHE_BLOBS, ManifestError, TensorFileError
from tsprep.tensorfile import publish, read_manifest, read_tensor, write_tensor
from tsprep.tensorfile import verify_dir as verify  # the one verifier, under the cache's name
from tsprep.util import sha256_file  # unused here, but perfbench/tracing.py wraps it

CACHE_DIRNAME = ".torchtime"


class CacheMiss(Exception):
    """Entry unusable; the pipeline rebuilds."""


class CacheAbsent(CacheMiss):
    pass


class CacheCorrupt(CacheMiss):
    """Checksum or format mismatch: never silently loaded."""


def entry_dir(root: Path, key: str) -> Path:
    return Path(root) / CACHE_DIRNAME / key


def save(root: Path, key: str, X: np.ndarray, y: np.ndarray, length: np.ndarray,
         dataset_info: dict) -> None:
    """Write a cache entry through :func:`tsprep.tensorfile.publish`.

    Tensors are stored at full precision (f64/f64/i64) so a cache round trip
    is bitwise exact; the manifest holds the digests of the bytes as they
    were written. Concurrent writers of one key do not fail: a writer whose
    rename finds another writer's entry already in place discards its own
    copy and keeps that entry, which holds the same bytes when the inputs
    are the same. ``dataset_info`` names ``X``'s channels; the manifest is
    checked against ``X``'s shape before it is published and on every read.
    """
    with publish(entry_dir(root, key), "cache",
                 {"dataset": key, "dataset_info": dataset_info}) as (tmp, files):
        for name, array, code in zip(CACHE_BLOBS, (X, y, length), ("f64", "f64", "i64")):
            files[name] = write_tensor(tmp / name, array, code)


def load(root: Path, key: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Load a cache entry, raising :class:`CacheAbsent` when there is no
    entry for the key and :class:`CacheCorrupt` when validation fails
    (malformed or missing manifest, wrong format version, checksum mismatch,
    a blob header that differs from its ``files`` entry or an unreadable
    blob); a manifest naming another key is a plain :class:`CacheMiss`. The
    manifest is checked before any blob read.

    Each blob is read once, by :func:`~tsprep.tensorfile.read_tensor`,
    which checks its header and digest against its ``files`` entry before
    the arrays are returned.
    """
    directory = entry_dir(root, key)
    if not directory.is_dir():
        raise CacheAbsent(f"no cache entry at {directory}")
    try:
        manifest = read_manifest(directory, "cache")
    except (ManifestError, OSError) as err:
        raise CacheCorrupt(str(err)) from None
    if manifest["dataset"] != key:
        # a stale entry is not corruption, but it cannot be used either
        raise CacheMiss(f"{directory}: entry was built for {manifest['dataset']!r}")
    arrays = []
    for name in CACHE_BLOBS:
        try:
            arrays.append(read_tensor(directory / name, manifest["files"][name]))
        except (TensorFileError, OSError) as err:
            raise CacheCorrupt(f"{directory}: bad {name}: {err}") from None
    X, y, length = arrays
    return X, y, length, manifest

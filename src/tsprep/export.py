"""Prepared-dataset directories: per-split tensor files plus a manifest.

Prepared and export directories are tensor directories
(:mod:`tsprep.tensorfile`). ``prepare`` writes full-precision (f64) blobs
named ``{X,y,length}_<split>.bin`` for each split, and a ``manifest.json``
whose ``files`` map sits beside the configuration echo, seed, split sizes
and channel layout. ``export`` converts a prepared directory to the
requested element type (f32 by default; lengths stay i64).

Both writers stage the whole directory and publish it through
:func:`tsprep.util.staged_dir`: a rerun replaces the directory, so no blob
of an earlier run survives it and a failed run leaves the old directory as
it was. The target must be absent, empty or a tsprep directory holding only
``manifest.json`` and blobs; anything else is refused, never deleted.
Manifests may name only those blobs, so no read or write leaves the
directory.
"""

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import tsprep
from tsprep import tensorfile
from tsprep.pipeline import ConfigError, PipelineConfig
from tsprep.tensor_core import SPLIT_CODES, Dataset
from tsprep.tensorfile import MANIFEST_VERSION, file_entry, read_tensor, split_blobs, write_tensor
from tsprep.tensorfile import verify_dir as verify_manifest_files  # the one verifier
from tsprep.util import canonical_json, staged_dir
from tsprep.util import sha256_file  # unused here, but perfbench/tracing.py wraps it

_FILE_NAMES = split_blobs(SPLIT_CODES)


def _config_echo(config: PipelineConfig) -> dict:
    missing = config.missing
    return {
        "dataset": config.dataset,
        "split": config.split,
        "train_prop": config.train_prop,
        "val_prop": config.val_prop,
        "missing": list(missing) if not np.isscalar(missing) else float(missing),
        "impute": "custom" if callable(config.impute) else config.impute,
        "categorical": [int(i) for i in config.categorical],
        "channel_means": {str(k): float(v) for k, v in config.channel_means.items()},
        "time": config.time,
        "mask": config.mask,
        "delta": config.delta,
        "standardise": config.standardise,
        "overwrite_cache": config.overwrite_cache,
        "path": str(config.path),
        "seed": config.seed,
    }


def check_replaceable(out_dir: Path) -> None:
    """Refuse an ``out_dir`` whose replacement would delete files tsprep did
    not write."""
    if not out_dir.exists():
        return
    names = {p.name for p in out_dir.iterdir()}
    foreign = sorted(names - _FILE_NAMES - {"manifest.json"})
    if names and (foreign or "manifest.json" not in names):
        found = ", ".join(foreign) if foreign else "no manifest.json"
        raise ConfigError(
            f"{out_dir}: not a tsprep directory ({found}); use an absent or empty directory"
        )


def write_prepared(dataset: Dataset, config: PipelineConfig, out_dir: Path) -> Path:
    """Write every split of ``dataset`` at full precision plus the manifest,
    replacing ``out_dir`` whole; returns the manifest path."""
    out_dir = Path(out_dir)
    check_replaceable(out_dir)
    with staged_dir(out_dir) as tmp:
        files: dict[str, dict] = {}
        for split in dataset.splits:
            X, y, length = dataset.tensors(split)
            for stem, array, code in (("X", X, "f64"), ("y", y, "f64"), ("length", length, "i64")):
                name = f"{stem}_{split}.bin"
                files[name] = file_entry(write_tensor(tmp / name, array, code), array, code)
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "tool": "tsprep",
            "tool_version": tsprep.__version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "dataset": dataset.name,
            "config": _config_echo(config),
            "seed": config.seed,
            "split_sizes": {split: dataset.split_size(split) for split in dataset.splits},
            "channels": list(dataset.layout.names),
            "channel_kinds": list(dataset.layout.kinds),
            "dropped_records": dataset.dropped_records,
            "files": files,
        }
        (tmp / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
    return out_dir / "manifest.json"


def read_manifest(directory: Path) -> dict:
    """Parse and check the manifest of a prepared or export directory (see
    :func:`tsprep.tensorfile.read_manifest`)."""
    return tensorfile.read_manifest(directory, "prepared")


def export_prepared(prepared_dir: Path, out_dir: Path, dtype: str = "f32") -> Path:
    """Convert a prepared directory to ``dtype`` (applies to X and y; length
    files are always i64) with a refreshed manifest, replacing ``out_dir``
    whole. Every read happens before the publish, so ``out_dir`` may be
    ``prepared_dir`` itself."""
    if dtype not in ("f32", "f64"):
        raise ConfigError(f"export dtype must be f32 or f64, got {dtype!r}")
    prepared_dir, out_dir = Path(prepared_dir), Path(out_dir)
    manifest = read_manifest(prepared_dir)
    check_replaceable(out_dir)
    with staged_dir(out_dir) as tmp:
        files: dict[str, dict] = {}
        for name in manifest["files"]:
            array = read_tensor(prepared_dir / name)
            code = "i64" if name.startswith("length") else dtype
            files[name] = file_entry(write_tensor(tmp / name, array, code), array, code)
        manifest["files"] = files
        manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
        manifest["exported_dtype"] = dtype
        (tmp / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
    return out_dir / "manifest.json"


def missingness_rates(directory: Path) -> dict[str, dict[str, float]]:
    """Per-channel NaN rate inside the valid (unpadded) region, per split."""
    manifest = read_manifest(directory)
    channels = manifest["channels"]
    rates: dict[str, dict[str, float]] = {}
    for split in manifest["split_sizes"]:
        X = read_tensor(Path(directory) / f"X_{split}.bin")
        length = read_tensor(Path(directory) / f"length_{split}.bin")
        valid = np.arange(X.shape[1])[None, :] < length[:, None]
        nan_count = np.zeros(X.shape[2])
        for c in range(X.shape[2]):
            nan_count[c] = np.isnan(X[:, :, c][valid]).mean() if valid.any() else 0.0
        rates[split] = {name: float(nan_count[i]) for i, name in enumerate(channels)}
    return rates


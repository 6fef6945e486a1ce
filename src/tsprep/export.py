"""Prepared-dataset directories: per-split tensor files plus a manifest.

Prepared and export directories are tensor directories
(:mod:`tsprep.tensorfile`). ``prepare`` writes full-precision (f64) blobs
named ``{X,y,length}_<split>.bin`` for each split, and a ``manifest.json``
whose ``files`` map sits beside the configuration echo, seed, split sizes
and channel layout. ``export`` converts a prepared directory to the
requested element type (f32 by default; lengths stay i64).

Both writers stage the whole directory and publish it through
:func:`tsprep.tensorfile.publish`, which checks the manifest against the
``"prepared"`` schema first: a rerun replaces the directory, so no blob
of an earlier run survives it and a failed run leaves the old directory as
it was. The target must be absent, empty or a tsprep directory holding only
``manifest.json`` and blobs; anything else is refused, never deleted.
Manifests may name only those blobs, so no read or write leaves the
directory.
"""

import dataclasses
from pathlib import Path

import numpy as np

import tsprep
from tsprep import tensorfile
from tsprep.pipeline import ConfigError, PipelineConfig
from tsprep.tensor_core import SPLIT_CODES, Dataset, real_steps
from tsprep.tensorfile import Rows, TensorFile, publish, read_tensor
from tsprep.tensorfile import split_blobs, write_tensor
from tsprep.tensorfile import verify_dir as verify_manifest_files  # the one verifier
from tsprep.util import sha256_file  # unused here, but perfbench/tracing.py wraps it

_FILE_NAMES = split_blobs(SPLIT_CODES)


def _config_echo(config: PipelineConfig) -> dict:
    """Every :class:`PipelineConfig` field as held, but a callable ``impute``
    becomes ``"custom"`` and ``channel_means`` keys strings, as in JSON."""
    echo = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    echo.update(
        impute="custom" if callable(config.impute) else config.impute,
        channel_means={str(k): v for k, v in config.channel_means.items()},
    )
    return echo


def check_replaceable(out_dir: Path) -> None:
    """Refuse an ``out_dir`` that is not a directory, or whose replacement
    would delete files tsprep did not write."""
    if not out_dir.exists():
        return
    if not out_dir.is_dir():
        raise ConfigError(f"{out_dir}: not a directory; use an absent or empty directory")
    names = {p.name for p in out_dir.iterdir()}
    foreign = sorted(names - _FILE_NAMES - {"manifest.json"})
    if names and (foreign or "manifest.json" not in names):
        found = ", ".join(foreign) if foreign else "no manifest.json"
        raise ConfigError(
            f"{out_dir}: not a tsprep directory ({found}); use an absent or empty directory"
        )


def write_prepared(dataset: Dataset, config: PipelineConfig, out_dir: Path) -> Path:
    """Write every split of ``dataset`` at full precision plus the manifest,
    replacing ``out_dir`` whole; returns the manifest path. Each split is
    streamed by its rows, never copied whole: ``X`` is padded from
    ``dataset.ragged`` one row block at a time."""
    out_dir = Path(out_dir)
    check_replaceable(out_dir)
    fields = dict(
        tool="tsprep", tool_version=tsprep.__version__, dataset=dataset.name,
        config=_config_echo(config), seed=config.seed,
        split_sizes={split: dataset.split_size(split) for split in dataset.splits},
        channels=list(dataset.layout.names), channel_kinds=list(dataset.layout.kinds),
        dropped_records=dataset.dropped_records,
    )
    with publish(out_dir, "prepared", fields) as (tmp, files):
        for split in dataset.splits:
            rows = dataset.split_rows(split)
            for stem, full, code in (("X", dataset.ragged, "f64"), ("y", dataset.y_full, "f64"),
                                     ("length", dataset.length_full, "i64")):
                name = f"{stem}_{split}.bin"
                files[name] = write_tensor(tmp / name, Rows(full, rows), code)
    return out_dir / "manifest.json"


def read_manifest(directory: Path) -> dict:
    """Parse and check the manifest of a prepared or export directory (see
    :func:`tsprep.tensorfile.read_manifest`)."""
    return tensorfile.read_manifest(directory, "prepared")


def export_prepared(prepared_dir: Path, out_dir: Path, dtype: str = "f32") -> Path:
    """Convert a prepared directory to ``dtype`` (applies to X and y; length
    files are always i64) with a refreshed manifest, replacing ``out_dir``
    whole. Each blob is read, converted and written one row block at a time;
    a blob whose header differs from its ``files`` entry is refused
    (:class:`~tsprep.tensorfile.TensorFileError`). Every read happens before
    the publish, so ``out_dir`` may be ``prepared_dir`` itself."""
    if dtype not in ("f32", "f64"):
        raise ConfigError(f"export dtype must be f32 or f64, got {dtype!r}")
    prepared_dir, out_dir = Path(prepared_dir), Path(out_dir)
    manifest = read_manifest(prepared_dir)
    check_replaceable(out_dir)
    with publish(out_dir, "prepared", {**manifest, "exported_dtype": dtype}) as (tmp, files):
        for name, entry in manifest["files"].items():
            code = "i64" if name.startswith("length") else dtype
            files[name] = write_tensor(tmp / name, TensorFile(prepared_dir / name, entry), code)
    return out_dir / "manifest.json"


def missingness_rates(directory: Path) -> dict[str, dict[str, float]]:
    """Per-channel NaN rate inside the valid (unpadded) region, per split;
    each ``X`` blob is read one row block at a time. A blob whose header
    differs from its ``files`` entry, or a ``length`` blob whose digest
    does, is refused (:class:`~tsprep.tensorfile.TensorFileError`)."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    files = manifest["files"]
    rates: dict[str, dict[str, float]] = {}
    for split in manifest["split_sizes"]:
        X = TensorFile(directory / f"X_{split}.bin", files[f"X_{split}.bin"])
        length = read_tensor(directory / f"length_{split}.bin", files[f"length_{split}.bin"])
        nan_count = np.zeros(X.shape[2], dtype=np.int64)
        valid_count = start = 0
        for block in X.blocks():
            valid = real_steps(length[start : start + len(block)], X.shape[1])
            nan_count += (np.isnan(block) & valid[:, :, None]).sum(axis=(0, 1))
            valid_count += int(valid.sum())
            start += len(block)
        rates[split] = {
            name: float(nan_count[i] / valid_count) if valid_count else 0.0
            for i, name in enumerate(manifest["channels"])
        }
    return rates


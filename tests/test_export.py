"""Prepared and export directories are published whole: a failed, repeated
or racing writer never leaves a mix of old and new files, and manifest
entries cannot name files outside their directory."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsprep import export, tensorfile
from tsprep.export import export_prepared, read_manifest, verify_manifest_files, write_prepared
from tsprep.pipeline import ConfigError, PipelineConfig
from tsprep.tensor_core import SPLIT_CODES, Channel, ChannelLayout, Dataset, channel_stats
from tsprep.tensorfile import DTYPE_OF_CODE, HEADER_SIZE, MAGIC, ManifestError, TensorFileError
from tsprep.tensorfile import read_tensor
from tsprep.util import staged_dir

OLD, NEW = 5.0, 1.0  # value offsets of the directory replaced and of its replacement


def read_blob(directory, name):
    """Blob ``name`` of a prepared directory, checked against its manifest entry."""
    return read_tensor(directory / name, read_manifest(directory)["files"][name])


def small_dataset(has_test=True, offset=NEW):
    n = 6
    X = np.arange(n * 3 * 2, dtype=float).reshape(n, 3, 2) + offset
    lengths = np.full(n, 3, dtype=np.int64)
    codes = np.array([0, 0, 1, 1, 2, 2] if has_test else [0, 0, 0, 1, 1, 1], dtype=np.int8)
    return Dataset(
        X_full=X,
        y_full=np.arange(n, dtype=float).reshape(n, 1),
        length_full=lengths,
        layout=ChannelLayout((Channel("time", "time"), Channel("d0", "data"))),
        stats=channel_stats(X[:, :, 1:], lengths),
        split_of_index=codes,
        split="train",
        has_test=has_test,
        name="Demo",
    )


def prepare(out, has_test=True, offset=NEW):
    config = PipelineConfig(
        dataset="Demo", split="train", train_prop=0.4, val_prop=0.3 if has_test else None, seed=1
    )
    return write_prepared(small_dataset(has_test, offset), config, out)


# Both writers publish NEW data into ``out``: export_prepared copies ``src``
# (prepared with NEW) at full precision.
WRITERS = {
    "write_prepared": lambda src, out: prepare(out),
    "export_prepared": lambda src, out: export_prepared(src, out, "f64"),
}


@pytest.fixture()
def src(tmp_path):
    prepare(tmp_path / "src")
    return tmp_path / "src"


def _assert_only_new_directory(out):
    assert verify_manifest_files(out) == []
    np.testing.assert_array_equal(read_blob(out, "X_train.bin"), small_dataset().X_train)
    assert [p.name for p in out.parent.iterdir()] == [out.name]  # no .tmp or .old sibling


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_rewrite_keeps_the_old_directory(tmp_path, monkeypatch, src, writer):
    out = tmp_path / "work" / "out"
    prepare(out, offset=OLD)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_write = export.write_tensor
    calls = []

    def fail_second_blob(path, array, code):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_write(path, array, code)

    monkeypatch.setattr(export, "write_tensor", fail_second_blob)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](src, out)
    monkeypatch.undo()
    assert verify_manifest_files(out) == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in out.parent.iterdir()] == ["out"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_rerun_with_fewer_splits_leaves_no_stale_blobs(tmp_path, writer):
    src, out = tmp_path / "src", tmp_path / "out"
    prepare(src, has_test=False)
    prepare(out, has_test=True, offset=OLD)
    if writer == "write_prepared":
        prepare(out, has_test=False)
    else:
        export_prepared(src, out, "f64")
    assert list(out.glob("*_test.bin")) == []
    assert sorted(read_manifest(out)["files"]) == sorted(p.name for p in out.glob("*.bin"))
    assert verify_manifest_files(out) == []


def test_export_in_place_replaces_the_prepared_directory(src):
    export_prepared(src, src, "f32")
    assert verify_manifest_files(src) == []
    X = read_blob(src, "X_train.bin")
    assert X.dtype == np.float32
    np.testing.assert_array_equal(X, small_dataset().X_train.astype(np.float32))
    assert read_manifest(src)["exported_dtype"] == "f32"


def test_tsprep_directory_with_foreign_files_is_refused(tmp_path):
    out = tmp_path / "out"
    prepare(out, offset=OLD)
    (out / "notes.txt").write_text("keep me")
    with pytest.raises(ConfigError, match="notes.txt"):
        prepare(out)
    assert (out / "notes.txt").read_text() == "keep me"
    assert verify_manifest_files(out) == []


def test_out_dir_given_as_a_link_keeps_the_link(tmp_path):
    real, link = tmp_path / "real", tmp_path / "link"
    prepare(real, offset=OLD)
    link.symlink_to(real, target_is_directory=True)
    prepare(link)
    assert link.is_symlink()
    assert verify_manifest_files(real) == []
    np.testing.assert_array_equal(read_blob(real, "X_train.bin"), small_dataset().X_train)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]


# ------------------------------------------------- concurrent writers
# Two writers of one directory interleave at the renames that publish it,
# exactly as in the cache's concurrent-writer tests: the other writer acts
# from inside this writer's os.replace call.


@pytest.mark.parametrize("primed", [False, True], ids=["no_directory", "old_directory"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_losing_the_rename_keeps_the_winner(tmp_path, monkeypatch, src, writer, primed):
    out = tmp_path / "work" / "out"
    if primed:
        prepare(out, offset=OLD)
    real_replace = os.replace
    raced = []

    def racing_replace(source, dst):
        if Path(dst) == out and not raced:
            raced.append(source)
            WRITERS[writer](src, out)  # the other writer
        return real_replace(source, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    WRITERS[writer](src, out)
    monkeypatch.undo()
    assert raced
    _assert_only_new_directory(out)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_finding_the_directory_moved_away_still_publishes(
    tmp_path, monkeypatch, src, writer
):
    out = tmp_path / "work" / "out"
    prepare(out, offset=OLD)
    other_trash = out.parent / ".out.old-other"
    real_replace = os.replace

    def racing_replace(source, dst):
        if Path(source) == out and not other_trash.exists():
            real_replace(out, other_trash)  # the other writer got there first
        return real_replace(source, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    WRITERS[writer](src, out)
    monkeypatch.undo()
    assert other_trash.is_dir()
    shutil.rmtree(other_trash)  # the other writer's own clean-up
    _assert_only_new_directory(out)


# ------------------------------------------------- manifest names


def _edit_manifest(directory, edit):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "name", ["../escaped.bin", "/escaped.bin", "X_train.bin/../../escaped.bin", "notes.bin"]
)
def test_manifest_file_name_outside_the_blob_set_is_rejected(src, name):
    _edit_manifest(src, lambda m: m["files"].__setitem__(name, m["files"]["X_train.bin"]))
    with pytest.raises(ManifestError, match="file name"):
        read_manifest(src)


def test_manifest_without_splits_is_rejected(src):
    """With no splits the manifest would require no blobs at all."""

    def drop_splits(manifest):
        manifest["split_sizes"], manifest["files"] = {}, {}

    _edit_manifest(src, drop_splits)
    with pytest.raises(ManifestError, match="split"):
        read_manifest(src)


def test_manifest_split_name_outside_the_split_set_is_rejected(src):
    _edit_manifest(src, lambda m: m["split_sizes"].__setitem__("../escaped", 2))
    with pytest.raises(ManifestError, match="split"):
        read_manifest(src)


# None keeps a dimension: the stated shape still agrees with the manifest's
# split sizes and channels, and differs from the header in the steps only
@pytest.mark.parametrize("field, value", [("shape", [None, 7, None]), ("dtype", "f32")])
def test_export_refuses_a_header_differing_from_its_files_entry(tmp_path, src, field, value):
    def edit(manifest):
        entry = manifest["files"]["X_train.bin"]
        if field == "shape":
            entry[field] = [d if v is None else v for d, v in zip(entry["shape"], value)]
        else:
            entry[field] = value

    _edit_manifest(src, edit)
    with pytest.raises(TensorFileError, match="X_train.bin.*manifest states"):
        export_prepared(src, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ------------------------------------------------- known answers
# The writers must produce the bytes of writing each whole split array at
# once, whatever the block size: less than one row, or a size that leaves a
# partial last block (two rows of X per block, five train rows).

S, C = 5, 3
X_ROW_BYTES = S * C * 8
BLOCK_SIZES = {"default": None, "under_one_row": 7, "partial_last_block": 2 * X_ROW_BYTES + 8}


def uneven_dataset():
    """Eleven rows of unequal length with NaN padding, missing values and
    per-step targets; the splits interleave."""
    rng = np.random.RandomState(3)
    lengths = np.array([5, 2, 4, 1, 5, 3, 5, 2, 4, 5, 1], dtype=np.int64)
    n = len(lengths)
    X = np.full((n, S, C), np.nan)
    y = np.full((n, S), np.nan)
    for i, L in enumerate(lengths):
        X[i, :L, 0] = np.arange(L)
        X[i, :L, 1:] = rng.randn(L, C - 1) * 1e3
        y[i, :L] = rng.randint(0, 2, L)
    X[rng.rand(n, S, C) < 0.2] = np.nan
    codes = np.array([0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 2], dtype=np.int8)
    return Dataset(
        X_full=X,
        y_full=y,
        length_full=lengths,
        layout=ChannelLayout(
            (Channel("time", "time"), Channel("d0", "data"), Channel("d1", "data"))
        ),
        stats=channel_stats(X[:, :, 1:], lengths),
        split_of_index=codes,
        split="train",
        has_test=True,
        name="Uneven",
    )


def _blob(array, code):
    """Header plus payload of ``array`` written whole as ``code``."""
    payload = np.ascontiguousarray(array.astype(DTYPE_OF_CODE[code]))
    fields = " ".join([code, str(payload.ndim), *(str(d) for d in payload.shape)])
    return (MAGIC + b" " + fields.encode("ascii")).ljust(HEADER_SIZE, b" ") + payload.tobytes()


def _reference(dataset, dtype):
    """Blob bytes and ``files`` map of every split array written whole."""
    blobs, files = {}, {}
    for split in dataset.splits:
        rows = np.flatnonzero(dataset.split_of_index == SPLIT_CODES[split])
        for stem, array, code in (
            ("X", dataset.X_full, dtype),
            ("y", dataset.y_full, dtype),
            ("length", dataset.length_full, "i64"),
        ):
            name = f"{stem}_{split}.bin"
            blobs[name] = _blob(array[rows], code)
            files[name] = {
                "sha256": hashlib.sha256(blobs[name]).hexdigest(),
                "shape": list(array[rows].shape),
                "dtype": code,
            }
    return blobs, files


def _write_uneven(out):
    config = PipelineConfig(dataset="Uneven", split="train", train_prop=0.5, val_prop=0.2, seed=1)
    return write_prepared(uneven_dataset(), config, out)


@pytest.mark.parametrize("block_bytes", list(BLOCK_SIZES.values()), ids=list(BLOCK_SIZES))
@pytest.mark.parametrize("job", ["prepare", "export_f32", "export_f64", "export_f32_in_place"])
def test_writers_equal_a_whole_array_reference(tmp_path, monkeypatch, job, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(tensorfile, "BLOCK_BYTES", block_bytes, raising=False)
    src = tmp_path / "src"
    _write_uneven(src)
    dtype = "f64"
    out = src
    if job != "prepare":
        dtype = job.split("_")[1]
        out = src if job.endswith("in_place") else tmp_path / "out"
        export_prepared(src, out, dtype)
    blobs, files = _reference(uneven_dataset(), dtype)
    assert read_manifest(out)["files"] == files
    assert {p.name: p.read_bytes() for p in out.glob("*.bin")} == blobs


def _missingness_reference(directory):
    """Per-channel NaN rates of each split, each X blob read whole."""
    manifest = read_manifest(directory)
    rates = {}
    for split in manifest["split_sizes"]:
        X = read_blob(directory, f"X_{split}.bin")
        length = read_blob(directory, f"length_{split}.bin")
        valid = np.arange(X.shape[1])[None, :] < length[:, None]
        rates[split] = {
            name: float(np.isnan(X[:, :, c][valid]).mean()) if valid.any() else 0.0
            for c, name in enumerate(manifest["channels"])
        }
    return rates


@pytest.mark.parametrize("block_bytes", list(BLOCK_SIZES.values()), ids=list(BLOCK_SIZES))
def test_missingness_rates_equal_a_whole_array_reference(tmp_path, monkeypatch, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(tensorfile, "BLOCK_BYTES", block_bytes, raising=False)
    _write_uneven(tmp_path / "prepared")
    want = _missingness_reference(tmp_path / "prepared")
    assert any(0.0 < rate < 1.0 for split in want.values() for rate in split.values())
    assert export.missingness_rates(tmp_path / "prepared") == want


# ------------------------------------------------- dead staging directories
# A writer killed before its rename leaves its staging directory
# ``.<name>.tmp-<pid>-<hex>`` beside the target; the next publish of that
# target removes those of exited processes and keeps those of live ones.


def test_publish_sweeps_staging_directories_of_exited_writers(tmp_path):
    exited = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                            stdout=subprocess.PIPE, text=True, check=True)
    dead_pid = int(exited.stdout)
    dead = tmp_path / f".out.tmp-{dead_pid}-0badc0de"
    live = tmp_path / f".out.tmp-{os.getpid()}-0badc0de"
    other_target = tmp_path / f".other.tmp-{dead_pid}-0badc0de"
    for stale in (dead, live, other_target):
        stale.mkdir()
        (stale / "X_train.bin").write_bytes(b"partial")
    with staged_dir(tmp_path / "out") as tmp:
        (tmp / "manifest.json").write_text("{}")
    assert not dead.exists()
    assert live.is_dir() and other_target.is_dir()
    assert (tmp_path / "out" / "manifest.json").is_file()


# ------------------------------------------------------------ config echo
# The manifest's ``config`` object is every PipelineConfig field as the
# config holds it, so PipelineConfig(**config) rebuilds the config.

ECHOED_CONFIGS = {
    "default": {},
    "scalar_missing": dict(missing=0.25),
    "missing_list": dict(missing=[0.25, 0.5]),
    "missing_array": dict(missing=np.array([0.25, 0.5])),
    "categorical_and_channel_means": dict(categorical=[2, 10], channel_means={2: 1.5, 10: 4}),
    "path_object": dict(path=Path("data")),
    "numpy_scalars": dict(train_prop=np.float32(0.4), val_prop=np.float32(0.3), seed=np.int64(1)),
    "numpy_bools": dict(mask=np.bool_(True), overwrite_cache=np.bool_(False)),
}


def _echo_config(**kwargs):
    base = dict(dataset="Demo", split="train", train_prop=0.4, val_prop=0.3, seed=1)
    return PipelineConfig(**{**base, **kwargs})


@pytest.mark.parametrize("kwargs", list(ECHOED_CONFIGS.values()), ids=list(ECHOED_CONFIGS))
def test_manifest_config_echo_rebuilds_the_config(tmp_path, kwargs):
    config = _echo_config(**kwargs)
    manifest_text = write_prepared(small_dataset(), config, tmp_path / "out").read_text()
    assert PipelineConfig(**json.loads(manifest_text)["config"]) == config


def test_manifest_config_echo_text(tmp_path):
    """Known answer: the config object is written as before the config
    converted its own values (float proportions, string keys, "10" before "2")."""
    config = _echo_config(
        missing=[0.25, 0.5], categorical=[2, 10], channel_means={2: 1.5, 10: 4}, path=Path("data")
    )
    manifest = json.loads(write_prepared(small_dataset(), config, tmp_path / "out").read_text())
    assert json.dumps(manifest["config"], sort_keys=True) == (
        '{"categorical": [2, 10], "channel_means": {"10": 4.0, "2": 1.5}, "dataset": "Demo", '
        '"delta": false, "impute": "none", "mask": false, "missing": [0.25, 0.5], '
        '"overwrite_cache": false, "path": "data", "seed": 1, "split": "train", '
        '"standardise": false, "time": true, "train_prop": 0.4, "val_prop": 0.3}'
    )


def test_manifest_config_echoes_a_callable_impute_as_custom(tmp_path):
    config = _echo_config(impute=lambda X, y, length, channels, fill: (X, y))
    manifest = json.loads(write_prepared(small_dataset(), config, tmp_path / "out").read_text())
    assert manifest["config"]["impute"] == "custom"

"""Prepared and export directories are published whole: a failed, repeated
or racing writer never leaves a mix of old and new files, and manifest
entries cannot name files outside their directory."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from tsprep import export
from tsprep.export import (
    ManifestError,
    export_prepared,
    read_manifest,
    verify_manifest_files,
    write_prepared,
)
from tsprep.pipeline import ConfigError, PipelineConfig
from tsprep.tensor_core import Channel, ChannelLayout, Dataset, channel_stats
from tsprep.tensorfile import read_tensor

OLD, NEW = 5.0, 1.0  # value offsets of the directory replaced and of its replacement


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
    np.testing.assert_array_equal(read_tensor(out / "X_train.bin"), small_dataset().X_train)
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
    X = read_tensor(src / "X_train.bin")
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
    np.testing.assert_array_equal(read_tensor(real / "X_train.bin"), small_dataset().X_train)
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


def test_manifest_split_name_outside_the_split_set_is_rejected(src):
    _edit_manifest(src, lambda m: m["split_sizes"].__setitem__("../escaped", 2))
    with pytest.raises(ManifestError, match="split"):
        read_manifest(src)

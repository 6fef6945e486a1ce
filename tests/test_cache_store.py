import hashlib
import json
import multiprocessing
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from tsprep import cache_store, tensorfile
from tsprep.cache_store import CacheAbsent, CacheCorrupt, CacheMiss, entry_dir, load, save
from tsprep.tensorfile import HEADER_SIZE, MAGIC
from tsprep.util import sha256_file


def sample_tensors(seed=0):
    rng = np.random.RandomState(seed)
    X = rng.randn(4, 6, 3)
    X[0, 4:, :] = np.nan
    y = rng.randn(4, 2)
    length = np.array([4, 6, 6, 5], dtype=np.int64)
    return X, y, length


def info_for(X):
    """A ``dataset_info`` naming every data channel of ``X``."""
    channels = [f"c{i}" for i in range(X.shape[2] - 1)]
    return {"time_channel": "t", "channels": channels, "mask_covers_time": False,
            "dropped_records": 0}


def test_save_load_roundtrip_bitwise(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, dataset_info=info_for(X))
    X2, y2, length2, meta = load(tmp_path, "demo")
    np.testing.assert_array_equal(X2, X)
    np.testing.assert_array_equal(y2, y)
    np.testing.assert_array_equal(length2, length)
    assert meta["dataset"] == "demo"
    assert meta["dataset_info"] == info_for(X)


def test_entry_holds_only_manifest_and_blobs(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    names = sorted(p.name for p in entry_dir(tmp_path, "demo").iterdir())
    assert names == ["X.bin", "length.bin", "manifest.json", "y.bin"]


def test_absent_entry_is_a_distinct_miss(tmp_path):
    with pytest.raises(CacheAbsent):
        load(tmp_path, "nothing")


def _entry_of_another_key(root):
    """An entry under key "demo" whose manifest names the key "other"."""
    X, y, length = sample_tensors()
    save(root, "other", X, y, length, info_for(X))
    entry_dir(root, "other").rename(entry_dir(root, "demo"))


def test_other_key_is_a_miss_not_corruption(tmp_path):
    _entry_of_another_key(tmp_path)
    with pytest.raises(CacheMiss) as excinfo:
        load(tmp_path, "demo")
    assert not isinstance(excinfo.value, CacheCorrupt)


@pytest.mark.parametrize("name", ["X.bin", "y.bin", "length.bin"])
@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_single_bit_flip_detected(tmp_path, name, position):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    target = entry_dir(tmp_path, "demo") / name
    blob = bytearray(target.read_bytes())
    index = {"first": 0, "middle": len(blob) // 2, "last": len(blob) - 1}[position]
    blob[index] ^= 0x01
    target.write_bytes(bytes(blob))
    with pytest.raises(CacheCorrupt, match=name):
        load(tmp_path, "demo")


def test_missing_blob_is_corrupt(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    (entry_dir(tmp_path, "demo") / "y.bin").unlink()
    with pytest.raises(CacheCorrupt, match="y.bin"):
        load(tmp_path, "demo")


def read_manifest_json(root, key="demo"):
    return json.loads((entry_dir(root, key) / "manifest.json").read_text())


def test_mangled_manifest_is_corrupt(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    (entry_dir(tmp_path, "demo") / "manifest.json").write_text("{not json")
    with pytest.raises(CacheCorrupt, match="manifest.json"):
        load(tmp_path, "demo")


def test_files_entries_are_well_formed(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    files = read_manifest_json(tmp_path)["files"]
    assert sorted(files) == ["X.bin", "length.bin", "y.bin"]
    for name, array, code in (("X.bin", X, "f64"), ("y.bin", y, "f64"), ("length.bin", length, "i64")):
        assert re.fullmatch(r"[0-9a-f]{64}", files[name]["sha256"])
        assert files[name]["shape"] == list(array.shape)
        assert files[name]["dtype"] == code


def test_identical_data_identical_files_map(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "one", X, y, length, info_for(X))
    save(tmp_path, "two", X, y, length, info_for(X))
    assert read_manifest_json(tmp_path, "one")["files"] == read_manifest_json(tmp_path, "two")["files"]


def test_resave_replaces_entry(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    X2 = X + 1.0
    save(tmp_path, "demo", X2, y, length, info_for(X))
    loaded, _, _, _ = load(tmp_path, "demo")
    np.testing.assert_array_equal(loaded, X2)
    leftovers = [p for p in (tmp_path / ".torchtime").iterdir() if p.name != "demo"]
    assert leftovers == []


def test_interrupted_save_leaves_no_entry(tmp_path, monkeypatch):
    X, y, length = sample_tensors()

    def explode(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError):
        save(tmp_path, "demo", X, y, length, info_for(X))
    monkeypatch.undo()
    assert not entry_dir(tmp_path, "demo").exists()
    with pytest.raises(CacheAbsent):
        load(tmp_path, "demo")


def test_wrong_format_version_is_corrupt(tmp_path):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    path = entry_dir(tmp_path, "demo") / "manifest.json"
    version = f'"format_version": {tensorfile.CACHE_FORMAT_VERSION}'
    assert version in path.read_text()
    path.write_text(path.read_text().replace(version, '"format_version": 99'))
    with pytest.raises(CacheCorrupt, match="format"):
        load(tmp_path, "demo")


def _flip_header_digit(blob: bytearray) -> None:
    """Change the first dimension digit of the header: still ASCII, still
    parseable, but the declared shape no longer matches the payload."""
    for i in range(len(MAGIC) + 5, HEADER_SIZE):
        if chr(blob[i]).isdigit():
            blob[i] = ord("9") if blob[i] != ord("9") else ord("8")
            return
    raise AssertionError("no dimension digit in the header")


CORRUPTIONS = {
    "header_digit": _flip_header_digit,
    "header_non_ascii": lambda blob: blob.__setitem__(HEADER_SIZE - 1, 0xE9),
    "header_padding": lambda blob: blob.__setitem__(HEADER_SIZE - 1, ord("x")),
    "truncated_payload": lambda blob: blob.__delitem__(slice(-8, None)),
    "trailing_byte": lambda blob: blob.append(0),
}


@pytest.mark.parametrize("name", ["X.bin", "y.bin", "length.bin"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_damaged_blob_is_corrupt(tmp_path, name, corruption):
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    target = entry_dir(tmp_path, "demo") / name
    blob = bytearray(target.read_bytes())
    CORRUPTIONS[corruption](blob)
    target.write_bytes(bytes(blob))
    with pytest.raises(CacheCorrupt, match=name):
        load(tmp_path, "demo")


@pytest.mark.parametrize("field, value", [("shape", [7, 7, 3]), ("dtype", "f32")])
def test_header_differing_from_its_files_entry_is_corrupt(tmp_path, field, value):
    """A blob whose digest matches but whose header is not the shape or
    element type the manifest states is never loaded. (The stated shape
    keeps X's three channels, which ``dataset_info`` names.)"""
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    path = entry_dir(tmp_path, "demo") / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"]["X.bin"][field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(CacheCorrupt, match="X.bin.*manifest states"):
        load(tmp_path, "demo")


def test_load_reads_each_blob_once(tmp_path, monkeypatch):
    """Verification happens while the blobs are read: no separate hash pass."""
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X, y, length, info_for(X))
    reads = []
    real_open = open

    def counting_open(path, mode="r", *args, **kwargs):
        if str(path).endswith(".bin"):
            reads.append(Path(path).name)
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    load(tmp_path, "demo")
    assert sorted(reads) == ["X.bin", "length.bin", "y.bin"]


def test_save_writes_checksums_of_written_bytes(tmp_path, monkeypatch):
    X, y, length = sample_tensors()

    def no_read_back(path):
        raise AssertionError(f"{path} was read back to hash it")

    monkeypatch.setattr(cache_store, "sha256_file", no_read_back)
    monkeypatch.setattr(tensorfile, "sha256_file", no_read_back)
    save(tmp_path, "demo", X, y, length, info_for(X))
    monkeypatch.undo()
    directory = entry_dir(tmp_path, "demo")
    files = read_manifest_json(tmp_path)["files"]
    assert {name: entry["sha256"] for name, entry in files.items()} == {
        name: sha256_file(directory / name) for name in ("X.bin", "y.bin", "length.bin")
    }


def test_stale_entry_reads_no_blob(tmp_path, monkeypatch):
    """The manifest is checked before any blob is opened."""
    _entry_of_another_key(tmp_path)
    real_read = cache_store.read_tensor
    reads = []
    monkeypatch.setattr(cache_store, "read_tensor", lambda *a: reads.append(a) or real_read(*a))
    with pytest.raises(CacheMiss):
        load(tmp_path, "demo")
    assert reads == []


# ------------------------------------------------- concurrent writers
# Two writers of one key interleave at the renames in save. Each test makes
# the other writer act at the one moment that used to fail, by running it
# from inside this writer's os.replace call.


def _assert_single_valid_entry(root, X, y, length):
    X2, y2, length2, _ = load(root, "demo")
    np.testing.assert_array_equal(X2, X)
    np.testing.assert_array_equal(y2, y)
    np.testing.assert_array_equal(length2, length)
    assert [p.name for p in (root / ".torchtime").iterdir()] == ["demo"]


@pytest.mark.parametrize("primed", [False, True], ids=["no_entry", "stale_entry"])
def test_writer_losing_the_rename_keeps_the_winner(tmp_path, monkeypatch, primed):
    """Both writers decide how to publish, then the other one renames its
    entry into place first: this writer's rename finds a non-empty
    directory and must drop its own copy."""
    X, y, length = sample_tensors()
    if primed:
        save(tmp_path, "demo", X + 5.0, y, length, info_for(X))
    final = entry_dir(tmp_path, "demo")
    real_replace = os.replace
    raced = []

    def racing_replace(src, dst):
        if Path(dst) == final and not raced:
            raced.append(src)
            save(tmp_path, "demo", X, y, length, info_for(X))  # the other writer
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    save(tmp_path, "demo", X, y, length, info_for(X))
    monkeypatch.undo()
    assert raced
    _assert_single_valid_entry(tmp_path, X, y, length)


def test_writer_finding_the_entry_moved_away_still_publishes(tmp_path, monkeypatch):
    """Both writers see the old entry; the other one moves it aside just
    before this writer tries to."""
    X, y, length = sample_tensors()
    save(tmp_path, "demo", X + 5.0, y, length, info_for(X))
    final = entry_dir(tmp_path, "demo")
    other_trash = tmp_path / ".torchtime" / ".demo.old-other"
    real_replace = os.replace

    def racing_replace(src, dst):
        if Path(src) == final and not other_trash.exists():
            real_replace(final, other_trash)  # the other writer got there first
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    save(tmp_path, "demo", X, y, length, info_for(X))
    monkeypatch.undo()
    assert other_trash.is_dir()
    shutil.rmtree(other_trash)  # the other writer's own clean-up
    _assert_single_valid_entry(tmp_path, X, y, length)


def _build_same_key(root, barrier, results, rounds):
    """Child process: rebuild the same key ``rounds`` times, entering every
    cache save together with the other processes."""
    from tsprep.pipeline import PipelineConfig, build

    real_save = cache_store.save

    def synchronised_save(*args, **kwargs):
        barrier.wait(timeout=30)
        return real_save(*args, **kwargs)

    cache_store.save = synchronised_save  # patched in this child only
    config = PipelineConfig(
        dataset="ArrowHead", split="train", train_prop=0.7, seed=3, path=root,
        overwrite_cache=True,
    )
    try:
        for _ in range(rounds):
            ds = build(config)
        results.put(("ok", hashlib.sha256(ds.X_full.tobytes()).hexdigest()))
    except BaseException as err:  # reported to the parent, which fails the test
        barrier.abort()
        results.put(("error", repr(err)))


def test_four_processes_build_the_same_key(arrowhead_root, copy_tree):
    root = copy_tree(arrowhead_root)
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(4), ctx.Queue()
    procs = [
        ctx.Process(target=_build_same_key, args=(root, barrier, results, 8)) for _ in range(4)
    ]
    for p in procs:
        p.start()
    outcomes = [results.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert not p.is_alive()
    assert [o[0] for o in outcomes] == ["ok"] * 4, outcomes
    assert len({o[1] for o in outcomes}) == 1
    entry = entry_dir(root, "uea_arrowhead")
    assert cache_store.verify(entry) == []
    assert [p.name for p in entry.parent.iterdir() if p.name != "raw"] == ["uea_arrowhead"]

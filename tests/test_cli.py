import json
import shutil

import numpy as np
import pytest

from tsprep.cache_store import entry_dir
from tsprep.cli import main
from tsprep.tensorfile import HEADER_SIZE, read_manifest, read_tensor, write_tensor


def run(argv):
    return main([str(a) for a in argv])


def read_blob(directory, name):
    """Blob ``name`` of a tensor directory, checked against its manifest entry."""
    return read_tensor(directory / name, read_manifest(directory)["files"][name])


def prepared_dir(root):
    return root / ".torchtime" / "prepared" / "uea_arrowhead"


@pytest.fixture()
def prepared_arrowhead(arrowhead_root, copy_tree):
    root = copy_tree(arrowhead_root)
    code = run(
        ["prepare", "ArrowHead", "--train-prop", 0.7, "--val-prop", 0.2,
         "--seed", 123, "--path", root]
    )
    assert code == 0
    return root


def test_prepare_writes_manifest_with_sizes(prepared_arrowhead, capsys):
    manifest = json.loads((prepared_dir(prepared_arrowhead) / "manifest.json").read_text())
    assert manifest["split_sizes"] == {"train": 148, "val": 42, "test": 21}
    assert manifest["channels"] == ["time", "dim0"]
    assert manifest["config"]["train_prop"] == 0.7
    assert manifest["config"]["seed"] == 123
    assert manifest["seed"] == 123
    files = manifest["files"]
    assert files["X_train.bin"]["shape"] == [148, 251, 2]
    assert files["y_test.bin"]["shape"] == [21, 3]
    assert files["length_val.bin"]["dtype"] == "i64"


def test_prepare_blobs_match_manifest(prepared_arrowhead):
    out = prepared_dir(prepared_arrowhead)
    X = read_blob(out, "X_train.bin")
    assert X.shape == (148, 251, 2)
    assert X.dtype == np.float64


def test_prepare_missing_required_flag_exits_2(arrowhead_root, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["prepare", "ArrowHead", "--path", arrowhead_root])
    assert excinfo.value.code == 2


def test_prepare_config_error_exits_2(arrowhead_root, capsys):
    code = run(
        ["prepare", "physionet2012", "--train-prop", 0.7, "--missing", 0.5,
         "--path", arrowhead_root]
    )
    assert code == 2
    assert "UEA" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["0.5,0.5", "0,0"])
def test_prepare_missing_list_wrong_length_exits_2(traj_root, copy_tree, capsys, missing):
    root = copy_tree(traj_root)
    code = run(["prepare", "Traj3", "--train-prop", 0.6, "--missing", missing, "--path", root])
    assert code == 2
    assert "2 entries for 3 data channels" in capsys.readouterr().err


def test_prepare_build_error_exits_1(tmp_path, capsys):
    code = run(["prepare", "NoSuchData", "--train-prop", 0.7, "--path", tmp_path])
    assert code == 1
    assert "step 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
def test_prepare_names_the_malformed_file_for_any_worker_count(tmp_path, capsys, workers):
    raw = tmp_path / ".torchtime" / "raw" / "physionet2019"
    for i in range(5):
        cell = "NN" if i == 2 else "80"
        subset = raw / ("training_setA" if i < 3 else "training_setB")
        subset.mkdir(parents=True, exist_ok=True)
        (subset / f"p{i:06d}.psv").write_text(f"HR|ICULOS|SepsisLabel\n70|1|0\n{cell}|2|0\n")
    code = run(["prepare", "physionet2019", "--train-prop", 0.6, "--workers", workers,
                "--path", tmp_path])
    assert code == 1
    assert ("step 1 (cache check / ingest): training_setA/p000002.psv: line 3: "
            "could not convert string to float: 'NN'") in capsys.readouterr().err


def test_prepare_names_the_malformed_ts_file(tmp_path, capsys):
    raw = tmp_path / ".torchtime" / "raw" / "demo"
    raw.mkdir(parents=True)
    head = "@problemName Demo\n@univariate true\n@classLabel true a b\n@data\n"
    (raw / "Demo_TRAIN.ts").write_text(head + "1,2,3:a\n4,5,6:b\n")
    (raw / "Demo_TEST.ts").write_text(head + "1,2,3:a\n4,x,6:b\n")
    code = run(["prepare", "Demo", "--train-prop", 0.5, "--path", tmp_path])
    assert code == 1
    assert ("step 1 (cache check / ingest): Demo_TEST.ts: invalid value 'x'"
            in capsys.readouterr().err)


def test_prepare_flag_parsers(traj_root, copy_tree):
    root = copy_tree(traj_root)
    code = run(
        ["prepare", "Traj3", "--train-prop", 0.6, "--missing", "0.8,0.2,0.5",
         "--impute", "mean", "--categorical", "1", "--channel-means", "2=4.5",
         "--no-time", "--mask", "--delta", "--standardise", "--seed", 5,
         "--path", root]
    )
    assert code == 0
    manifest = json.loads(
        (root / ".torchtime" / "prepared" / "uea_traj3" / "manifest.json").read_text()
    )
    assert manifest["config"]["missing"] == [0.8, 0.2, 0.5]
    assert manifest["config"]["channel_means"] == {"2": 4.5}
    assert manifest["config"]["time"] is False
    assert len(manifest["channels"]) == 9  # 3 data + 3 mask + 3 delta


def test_export_f64_bit_exact(prepared_arrowhead, tmp_path):
    out = tmp_path / "export64"
    code = run(["export", prepared_dir(prepared_arrowhead), "--out", out, "--dtype", "f64"])
    assert code == 0
    a = read_blob(prepared_dir(prepared_arrowhead), "X_val.bin")
    b = read_blob(out, "X_val.bin")
    np.testing.assert_array_equal(a, b)


def test_export_default_f32_rounds(prepared_arrowhead, tmp_path):
    out = tmp_path / "export32"
    assert run(["export", prepared_dir(prepared_arrowhead), "--out", out]) == 0
    full = read_blob(prepared_dir(prepared_arrowhead), "X_train.bin")
    small = read_blob(out, "X_train.bin")
    assert small.dtype == np.float32
    np.testing.assert_array_equal(small, full.astype(np.float32))
    lengths = read_blob(out, "length_train.bin")
    assert lengths.dtype == np.int64


def test_export_of_a_corrupt_prepared_directory_exits_1_and_publishes_nothing(
    prepared_arrowhead, tmp_path, capsys
):
    """One flipped payload bit in a prepared blob must stop the export, not
    be copied into an export whose digests are taken from the corrupt bytes."""
    blob = prepared_dir(prepared_arrowhead) / "X_train.bin"
    data = bytearray(blob.read_bytes())
    data[HEADER_SIZE + 8] ^= 0x01  # one payload bit
    blob.write_bytes(bytes(data))
    out = tmp_path / "export"
    assert run(["export", blob.parent, "--out", out]) == 1
    assert f"corrupt: {blob}" in capsys.readouterr().err
    assert not out.exists()


def test_export_unknown_format_exits_2(prepared_arrowhead, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["export", prepared_dir(prepared_arrowhead), "--out", tmp_path / "x",
             "--dtype", "f16"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run(["export", prepared_dir(prepared_arrowhead), "--out", tmp_path / "x",
             "--format", "npz"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["prepare", "export"])
def test_out_at_foreign_directory_exits_2_and_keeps_its_files(
    prepared_arrowhead, tmp_path, capsys, command
):
    out = tmp_path / "mine"
    out.mkdir()
    (out / "notes.txt").write_text("keep me")
    cache = entry_dir(prepared_arrowhead, "uea_arrowhead")
    if command == "prepare":
        shutil.rmtree(cache)
        argv = ["prepare", "ArrowHead", "--train-prop", 0.7, "--seed", 1,
                "--path", prepared_arrowhead, "--out", out]
    else:
        argv = ["export", prepared_dir(prepared_arrowhead), "--out", out]
    assert run(argv) == 2
    assert "not a tsprep directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me"
    if command == "prepare":
        assert not cache.exists(), "the out directory is checked before anything is built"


def test_export_refuses_manifest_names_outside_the_directory(prepared_arrowhead, tmp_path, capsys):
    """A manifest entry ``../escaped.bin`` must neither be read from beside
    the prepared directory nor written beside the export directory."""
    prepared = prepared_dir(prepared_arrowhead)
    (prepared.parent / "escaped.bin").write_bytes((prepared / "X_train.bin").read_bytes())
    manifest = json.loads((prepared / "manifest.json").read_text())
    manifest["files"]["../escaped.bin"] = manifest["files"]["X_train.bin"]
    (prepared / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out" / "inner"
    assert run(["export", prepared, "--out", out]) == 1
    assert "../escaped.bin" in capsys.readouterr().err
    assert not (out.parent / "escaped.bin").exists()
    assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "export"])
def test_out_at_a_file_exits_2_and_keeps_it(prepared_arrowhead, tmp_path, capsys, command):
    out = tmp_path / "mine.txt"
    out.write_text("keep me")
    cache = entry_dir(prepared_arrowhead, "uea_arrowhead")
    if command == "prepare":
        shutil.rmtree(cache)
        argv = ["prepare", "ArrowHead", "--train-prop", 0.7, "--seed", 1,
                "--path", prepared_arrowhead, "--out", out]
    else:
        argv = ["export", prepared_dir(prepared_arrowhead), "--out", out]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {out}: not a directory; use an absent or empty directory\n"
    assert out.read_text() == "keep me"
    if command == "prepare":
        assert not cache.exists(), "the out path is checked before anything is built"


SHAPE_DISAGREEMENTS = {
    "one_channel_name_too_many": lambda m: m["channels"].append("extra"),
    "one_channel_kind_too_few": lambda m: m["channel_kinds"].pop(),
    "channel_name_not_a_string": lambda m: m["channels"].__setitem__(0, 7),
    "train_size_99": lambda m: m["split_sizes"].__setitem__("train", 99),
    "val_size_missing_rows": lambda m: m["files"]["length_val.bin"].__setitem__("shape", []),
}


@pytest.mark.parametrize("command", ["validate", "info", "export"])
@pytest.mark.parametrize("damage", sorted(SHAPE_DISAGREEMENTS))
def test_manifest_disagreeing_with_its_files_shapes_exits_1(
    prepared_arrowhead, tmp_path, capsys, command, damage
):
    """A prepared manifest must agree with its own files shapes: a split size
    is the row count of its blobs, and channels and channel_kinds name every
    channel of X. Anything else is an error, not a pass, a traceback or an
    export."""
    prepared = prepared_dir(prepared_arrowhead)
    path = prepared / "manifest.json"
    manifest = json.loads(path.read_text())
    SHAPE_DISAGREEMENTS[damage](manifest)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [command, prepared] + (["--out", out] if command == "export" else [])
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "checksums match" not in captured.out
    assert not out.exists()


MANIFEST_DAMAGE = {
    "entry_not_an_object": lambda files: files.__setitem__("X_train.bin", "abc"),
    "files_empty": lambda files: files.clear(),
    "entry_missing": lambda files: files.pop("X_val.bin"),
    "sha256_null": lambda files: files["X_train.bin"].__setitem__("sha256", None),
}


@pytest.mark.parametrize("command", ["validate", "info", "export"])
@pytest.mark.parametrize("damage", sorted(MANIFEST_DAMAGE))
def test_malformed_files_map_exits_1(prepared_arrowhead, tmp_path, capsys, command, damage):
    """The files map must name every blob of the directory, each with a
    well-formed entry; anything else is an error, not a crash, a pass or a
    partial export."""
    prepared = prepared_dir(prepared_arrowhead)
    path = prepared / "manifest.json"
    manifest = json.loads(path.read_text())
    MANIFEST_DAMAGE[damage](manifest["files"])
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [command, prepared] + (["--out", out] if command == "export" else [])
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_validate_intact_and_corrupt(prepared_arrowhead, capsys):
    out = prepared_dir(prepared_arrowhead)
    assert run(["validate", out]) == 0
    blob = out / "y_train.bin"
    data = bytearray(blob.read_bytes())
    data[-1] ^= 0x01
    blob.write_bytes(bytes(data))
    assert run(["validate", out]) == 1
    assert "y_train.bin" in capsys.readouterr().err


# None keeps a dimension: the stated shape still agrees with the manifest's
# split sizes and channels, and differs from the header in the steps only
@pytest.mark.parametrize("field, value", [("shape", [None, 7, None]), ("dtype", "f32")])
def test_validate_header_differing_from_its_files_entry_exits_1(
    prepared_arrowhead, capsys, field, value
):
    out = prepared_dir(prepared_arrowhead)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    entry = manifest["files"]["X_train.bin"]
    if field == "shape":
        value = [d if v is None else v for d, v in zip(entry["shape"], value)]
    entry[field] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["validate", out]) == 1
    assert capsys.readouterr().err == f"corrupt: {out / 'X_train.bin'}\n"


def test_validate_cache_entry(prepared_arrowhead, capsys):
    cache = entry_dir(prepared_arrowhead, "uea_arrowhead")
    assert run(["validate", cache]) == 0
    blob = cache / "X.bin"
    data = bytearray(blob.read_bytes())
    data[100] ^= 0x80
    blob.write_bytes(bytes(data))
    assert run(["validate", cache]) == 1
    assert "X.bin" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["one_step_more", "zero_length"])
def test_validate_cache_entry_whose_lengths_do_not_bound_X_exits_1(
    prepared_arrowhead, capsys, damage
):
    """A build rebuilds an entry whose length.bin does not bound X.bin, though
    every digest matches: validate reports it too."""
    cache = entry_dir(prepared_arrowhead, "uea_arrowhead")
    lengths = read_blob(cache, "length.bin")
    if damage == "one_step_more":
        lengths[0] += 1
    else:
        lengths[1] += lengths[0]
        lengths[0] = 0
    manifest = json.loads((cache / "manifest.json").read_text())
    manifest["files"]["length.bin"] = write_tensor(cache / "length.bin", lengths, "i64")
    (cache / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["validate", cache]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"corrupt: {cache / 'length.bin'}\n"
    assert "checksums match" not in captured.out


@pytest.mark.parametrize("edit", ["one_channel_more", "channels_not_a_list"])
def test_validate_cache_entry_whose_dataset_info_disagrees_with_X_exits_1(
    prepared_arrowhead, capsys, edit
):
    """The blob digests do not cover dataset_info, which a build would
    reject: validate rejects it too."""
    cache = entry_dir(prepared_arrowhead, "uea_arrowhead")
    path = cache / "manifest.json"
    manifest = json.loads(path.read_text())
    if edit == "one_channel_more":
        manifest["dataset_info"]["channels"].append("dim1")
    else:
        manifest["dataset_info"]["channels"] = "dim0"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["validate", cache]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: dataset_info") and captured.err.count("\n") == 1
    assert "checksums match" not in captured.out


IDENTITY_DAMAGE = {
    **{f"no_{key}": (lambda key: lambda m: m.pop(key))(key)
       for key in ("dataset", "seed", "tool", "tool_version")},
    "dataset_null": lambda m: m.__setitem__("dataset", None),
    "tool_version_number": lambda m: m.__setitem__("tool_version", 0.1),
    "seed_string": lambda m: m.__setitem__("seed", "123"),
    "seed_true": lambda m: m.__setitem__("seed", True),
}


@pytest.mark.parametrize("command", ["validate", "info", "export"])
@pytest.mark.parametrize("damage", sorted(IDENTITY_DAMAGE))
def test_manifest_without_its_identity_keys_exits_1(
    prepared_arrowhead, tmp_path, capsys, command, damage
):
    """dataset, tool and tool_version are strings and seed an integer or
    null; a manifest without them is an error, not a traceback."""
    prepared = prepared_dir(prepared_arrowhead)
    path = prepared / "manifest.json"
    manifest = json.loads(path.read_text())
    IDENTITY_DAMAGE[damage](manifest)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [command, prepared] + (["--out", out] if command == "export" else [])
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert "checksums match" not in captured.out
    assert not out.exists()


def test_manifest_with_a_null_seed_is_valid(prepared_arrowhead, capsys):
    prepared = prepared_dir(prepared_arrowhead)
    path = prepared / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["seed"] = None
    path.write_text(json.dumps(manifest))
    assert run(["info", prepared]) == 0
    assert "seed: None" in capsys.readouterr().out


def test_info_reports_shapes_and_missingness(traj_root, copy_tree, capsys):
    root = copy_tree(traj_root)
    assert run(
        ["prepare", "Traj3", "--train-prop", 0.7, "--missing", "0.5", "--seed", 7,
         "--path", root]
    ) == 0
    capsys.readouterr()
    assert run(["info", root / ".torchtime" / "prepared" / "uea_traj3"]) == 0
    out = capsys.readouterr().out
    assert "dataset: Traj3" in out
    assert "split sizes" in out
    assert "dim0" in out
    # simulated p=0.5 shows up in the reported missingness rate
    rate = None
    for line in out.splitlines():
        if line.strip().startswith("dim0:"):
            rate = float(line.split(":")[1])
            break
    assert rate is not None and 0.4 < rate < 0.6


def test_info_missing_manifest_exits_1(tmp_path, capsys):
    assert run(["info", tmp_path]) == 1


def test_env_var_cache_root(arrowhead_root, copy_tree, monkeypatch):
    root = copy_tree(arrowhead_root)
    monkeypatch.setenv("TSPREP_CACHE", str(root))
    code = run(["prepare", "ArrowHead", "--train-prop", 0.7, "--seed", 1])
    assert code == 0
    assert (root / ".torchtime" / "prepared" / "uea_arrowhead" / "manifest.json").exists()


def test_fetch_unknown_dataset_lists_supported(tmp_path, capsys):
    assert run(["fetch", "bogus/name", "--path", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "arrowhead" in err and "physionet2012" in err


@pytest.mark.parametrize("command", ["fetch", "prepare"])
@pytest.mark.parametrize("name", ["../../../x", "../x", "a/b", ""])
def test_malformed_dataset_name_exits_2_and_creates_nothing(tmp_path, capsys, command, name):
    """A name that is neither registered nor a UEA/UCR archive name is refused
    before any directory is made or request sent, by both commands."""
    flags = ["--train-prop", 0.7] if command == "prepare" else []
    assert run([command, name, "--path", tmp_path / "root"] + flags) == 2
    assert capsys.readouterr().err.startswith("error: invalid dataset name")
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0


def test_prepare_physionet_no_time_mask_delta(physionet2012_root, copy_tree):
    root = copy_tree(physionet2012_root)
    code = run(
        ["prepare", "physionet2012", "--train-prop", 0.6667, "--impute", "forward",
         "--mask", "--delta", "--no-time", "--seed", 293120, "--path", root]
    )
    assert code == 0
    manifest = json.loads(
        (root / ".torchtime" / "prepared" / "physionet2012" / "manifest.json").read_text()
    )
    # 44 data + 45 masks + 45 deltas: the recorded stamp keeps its mask/delta
    # channels even when the stamp column itself is dropped
    assert len(manifest["channels"]) == 134
    assert manifest["channel_kinds"].count("mask") == 45
    assert manifest["channel_kinds"].count("delta") == 45


def test_manifest_config_echo_bijective_with_pipeline_config(prepared_arrowhead):
    import dataclasses

    from tsprep.pipeline import PipelineConfig

    manifest = json.loads((prepared_dir(prepared_arrowhead) / "manifest.json").read_text())
    field_names = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert set(manifest["config"]) == field_names


def _damage_header(path):
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE - 1] = 0xE9  # one non-ASCII byte in the header padding
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("command", ["export", "info"])
def test_damaged_tensor_header_exits_1(prepared_arrowhead, tmp_path, capsys, command):
    prepared = prepared_dir(prepared_arrowhead)
    _damage_header(prepared / "X_train.bin")
    capsys.readouterr()
    argv = [command, prepared] + (["--out", tmp_path / "out"] if command == "export" else [])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "X_train.bin: malformed header" in err


def test_prepared_config_echo_rebuilds_the_config(traj_root, copy_tree):
    from tsprep.pipeline import PipelineConfig

    root = copy_tree(traj_root)
    code = run(
        ["prepare", "Traj3", "--train-prop", 0.6, "--missing", "0.8,0.2,0.5",
         "--impute", "mean", "--categorical", "1", "--channel-means", "2=4.5",
         "--mask", "--seed", 5, "--path", root]
    )
    assert code == 0
    text = (root / ".torchtime" / "prepared" / "uea_traj3" / "manifest.json").read_text()
    expected = PipelineConfig(
        dataset="Traj3", split="train", train_prop=0.6, missing=[0.8, 0.2, 0.5],
        impute="mean", categorical=(1,), channel_means={2: 4.5}, mask=True, seed=5,
        path=root,
    )
    assert PipelineConfig(**json.loads(text)["config"]) == expected


@pytest.mark.parametrize(
    "flags, field",
    [(["--categorical", "a"], "categorical"), (["--missing", "x"], "missing"),
     (["--channel-means", "x=1"], "channel_means"), (["--channel-means", "1=2=3"], "--channel-means"),
     (["--missing", " , "], "--missing")],
    ids=["categorical", "missing", "channel_means_key", "channel_means_two_equals", "missing_empty"],
)
def test_unconvertible_flag_exits_2_before_step_1(arrowhead_root, copy_tree, capsys, flags, field):
    root = copy_tree(arrowhead_root)
    shutil.rmtree(entry_dir(root, "uea_arrowhead"), ignore_errors=True)
    assert run(["prepare", "ArrowHead", "--train-prop", 0.7, "--path", root] + flags) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}")
    assert not entry_dir(root, "uea_arrowhead").exists()


@pytest.mark.parametrize(
    "flags",
    [["--train-prop", "nan", "--val-prop", 0.1], ["--train-prop", 0.7, "--val-prop", "nan"],
     ["--train-prop", 0.7, "--workers", 0], ["--train-prop", 0.7, "--workers", -3]],
    ids=["nan_train_prop", "nan_val_prop", "zero_workers", "negative_workers"],
)
def test_nan_proportion_or_fewer_than_one_worker_exits_2_before_step_1(
    arrowhead_root, copy_tree, capsys, flags
):
    root = copy_tree(arrowhead_root)
    shutil.rmtree(entry_dir(root, "uea_arrowhead"), ignore_errors=True)
    assert run(["prepare", "ArrowHead", "--path", root] + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not entry_dir(root, "uea_arrowhead").exists()


def test_prepare_has_no_split_flag(arrowhead_root, capsys):
    """A prepared directory holds every split, so there is none to choose."""
    with pytest.raises(SystemExit) as excinfo:
        run(["prepare", "ArrowHead", "--train-prop", 0.7, "--split", "val",
             "--path", arrowhead_root])
    assert excinfo.value.code == 2


def test_info_on_a_corrupt_blob_exits_1_and_prints_only_the_corrupt_blobs(
    prepared_arrowhead, capsys
):
    out = prepared_dir(prepared_arrowhead)
    blob = out / "X_train.bin"
    data = bytearray(blob.read_bytes())
    data[HEADER_SIZE + 8] ^= 0x01  # one payload bit
    blob.write_bytes(bytes(data))
    capsys.readouterr()
    assert run(["info", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"corrupt: {blob}\n"


@pytest.mark.parametrize("name", ["X_train.bin", "length_train.bin"])
def test_info_on_a_blob_disagreeing_with_its_files_entry_exits_1(prepared_arrowhead, capsys, name):
    """A valid tensor of another shape than its files entry states (X with
    one channel fewer, one length fewer) is refused with one error line
    naming it, not a traceback."""
    out = prepared_dir(prepared_arrowhead)
    blob = out / name
    array = read_blob(out, name)
    write_tensor(blob, array[..., :-1] if name.startswith("X") else array[:-1],
                 "f64" if name.startswith("X") else "i64")
    capsys.readouterr()
    assert run(["info", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {blob}: header holds ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

import dataclasses
import itertools
import json
import logging
import shutil
import warnings

import numpy as np
import pytest

from tsprep import cache_store, export, pipeline, tensorfile, transforms
from tsprep.batching import batches
from tsprep.cache_store import entry_dir
from tsprep.physionet import PHYSIONET_2012_CHANNELS
from tsprep.pipeline import ConfigError, BuildError, PipelineConfig, build
from tsprep.tensor_core import DATA, DELTA, MASK, TIME, Dataset
from tsprep.tensorfile import HEADER_SIZE


def arrowhead_config(root, **kwargs):
    defaults = dict(
        dataset="ArrowHead",
        split="train",
        train_prop=0.7,
        val_prop=0.2,
        seed=123,
        path=root,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_arrowhead_shapes(arrowhead_root):
    ds = build(arrowhead_config(arrowhead_root))
    assert ds.X_train.shape == (148, 251, 2)
    assert ds.X_val.shape == (42, 251, 2)
    assert ds.y_test.shape == (21, 3)
    assert ds.length_train.shape == (148,)
    assert (ds.length_full == 251).all()
    np.testing.assert_array_equal(ds.X_train[0, :, 0], np.arange(251.0))
    assert ds.layout.names == ("time", "dim0")


def test_arrowhead_one_hot_by_class_label_order(arrowhead_root):
    ds = build(arrowhead_config(arrowhead_root))
    assert ds.y_full.shape == (211, 3)
    np.testing.assert_array_equal(ds.y_full.sum(axis=1), np.ones(211))
    # fixture classes are balanced 70/70/71 in @classLabel order 0,1,2
    np.testing.assert_array_equal(ds.y_full.sum(axis=0), [70, 70, 71])


def test_split_views_follow_split_argument(arrowhead_root):
    ds = build(arrowhead_config(arrowhead_root, split="val"))
    np.testing.assert_array_equal(ds.X, ds.X_val)
    assert ds.X.shape == (42, 251, 2)


def test_cache_round_trip_and_overwrite(arrowhead_root, copy_tree):
    root = copy_tree(arrowhead_root)
    config = arrowhead_config(root)
    first = build(config)
    assert entry_dir(root, "uea_arrowhead").is_dir()
    # remove the raw sources: the second build must come from cache
    raw = root / ".torchtime" / "raw" / "arrowhead"
    for p in raw.iterdir():
        p.unlink()
    second = build(config)
    np.testing.assert_array_equal(first.X_full, second.X_full)
    # overwrite_cache forces re-ingestion, which now fails loudly
    with pytest.raises(BuildError, match="step 1"):
        build(arrowhead_config(root, overwrite_cache=True))


def test_corrupt_cache_triggers_rebuild(arrowhead_root, copy_tree, caplog):
    root = copy_tree(arrowhead_root)
    config = arrowhead_config(root)
    first = build(config)
    blob = entry_dir(root, "uea_arrowhead") / "X.bin"
    data = bytearray(blob.read_bytes())
    data[len(data) // 2] ^= 0x40
    blob.write_bytes(bytes(data))
    with caplog.at_level(logging.WARNING):
        second = build(config)
    assert any("corrupt" in r.message for r in caplog.records)
    np.testing.assert_array_equal(first.X_full, second.X_full)


def test_full_determinism_bitwise(arrowhead_root):
    config = arrowhead_config(arrowhead_root, standardise=True)
    a = build(config)
    b = build(config)
    np.testing.assert_array_equal(a.X_full, b.X_full)
    np.testing.assert_array_equal(a.y_full, b.y_full)
    np.testing.assert_array_equal(a.split_of_index, b.split_of_index)


def traj_config(root, **kwargs):
    defaults = dict(
        dataset="Traj3",
        split="train",
        train_prop=0.7,
        seed=456,
        path=root,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_uea_mask_layout_seven_channels(traj_root):
    ds = build(traj_config(traj_root, missing=[0.8, 0.2, 0.5], mask=True))
    assert ds.X_full.shape[2] == 7  # time + 3 data + 3 mask
    assert ds.layout.kinds == (TIME, DATA, DATA, DATA, MASK, MASK, MASK)
    i = int(np.argmax(ds.length_full))
    L = int(ds.length_full[i])
    data = ds.X_full[i, :L, 1:4]
    mask = ds.X_full[i, :L, 4:7]
    np.testing.assert_array_equal(mask, (~np.isnan(data)).astype(float))


def test_uea_delta_layout(traj_root):
    ds = build(traj_config(traj_root, missing=[0.8, 0.2, 0.5], delta=True))
    assert ds.X_full.shape[2] == 7  # time + 3 data + 3 delta
    assert ds.layout.kinds[-3:] == (DELTA, DELTA, DELTA)
    # row 0 of every delta block is zero
    for i, L in enumerate(ds.length_full):
        np.testing.assert_array_equal(ds.X_full[i, 0, 4:7], np.zeros(3))


def test_uea_time_mask_delta_order(traj_root):
    ds = build(traj_config(traj_root, mask=True, delta=True))
    assert ds.X_full.shape[2] == 10
    assert ds.layout.kinds == (TIME,) + (DATA,) * 3 + (MASK,) * 3 + (DELTA,) * 3
    assert ds.layout.names[4] == "mask_dim0"
    assert ds.layout.names[7] == "delta_dim0"


def test_uea_no_time_channel(traj_root):
    ds = build(traj_config(traj_root, time=False, mask=True))
    assert ds.X_full.shape[2] == 6  # 3 data + 3 mask
    assert ds.layout.kinds[0] == DATA


def test_simulation_happens_before_split(traj_root):
    # master rows keep their order, so the same seed must produce the same
    # missingness pattern whatever the split proportions
    a = build(traj_config(traj_root, missing=0.5, train_prop=0.7))
    b = build(traj_config(traj_root, missing=0.5, train_prop=0.5))
    np.testing.assert_array_equal(np.isnan(a.X_full), np.isnan(b.X_full))
    assert not np.array_equal(a.split_of_index, b.split_of_index)


def test_scalar_missing_rows_all_or_nothing(traj_root):
    ds = build(traj_config(traj_root, missing=0.5))
    for i, L in enumerate(ds.length_full):
        rows = ds.X_full[i, :L, 1:]
        all_nan = np.isnan(rows).all(axis=1)
        any_nan = np.isnan(rows).any(axis=1)
        np.testing.assert_array_equal(all_nan, any_nan)
        assert all_nan.sum() == int(np.floor(0.5 * int(L) + 0.5))


def test_masks_reflect_pre_imputation_missingness(traj_root):
    plain = build(traj_config(traj_root, missing=0.5, mask=True))
    imputed = build(traj_config(traj_root, missing=0.5, mask=True, impute="forward"))
    np.testing.assert_array_equal(plain.X_full[:, :, 4:7], imputed.X_full[:, :, 4:7])
    # no NaN survives inside valid lengths after imputation
    for i, L in enumerate(imputed.length_full):
        assert not np.isnan(imputed.X_full[i, :L, 1:4]).any()


def test_delta_immutable_under_imputation(traj_root):
    plain = build(traj_config(traj_root, missing=[0.3, 0.6, 0.1], delta=True))
    imputed = build(
        traj_config(traj_root, missing=[0.3, 0.6, 0.1], delta=True, impute="mean")
    )
    np.testing.assert_array_equal(plain.X_full[:, :, 4:7], imputed.X_full[:, :, 4:7])


def test_standardise_statistics_from_training_split_only(traj_root):
    ds = build(traj_config(traj_root, standardise=True, val_prop=0.2))
    X_train = ds.X_train
    for c in (1, 2, 3):
        observed = X_train[:, :, c][~np.isnan(X_train[:, :, c])]
        assert abs(observed.mean()) < 1e-9
        assert abs(observed.std(ddof=0) - 1) < 1e-9
    X_val = ds.X_val
    val_means = [
        abs(X_val[:, :, c][~np.isnan(X_val[:, :, c])].mean()) for c in (1, 2, 3)
    ]
    assert max(val_means) > 1e-6  # validation transformed with train stats


def test_imputation_after_standardisation_fills_without_nan(traj_root):
    ds = build(
        traj_config(traj_root, missing=0.4, standardise=True, impute="mean", val_prop=0.2)
    )
    for i, L in enumerate(ds.length_full):
        assert not np.isnan(ds.X_full[i, :L, :]).any()


# ----------------------------------------------------------- PhysioNet 2012


def pn2012_config(root, **kwargs):
    defaults = dict(
        dataset="physionet2012", split="train", train_prop=0.7, seed=99, path=root
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_2012_channel_layout(physionet2012_root):
    ds = build(pn2012_config(physionet2012_root))
    assert ds.X_full.shape[2] == 45
    assert ds.layout.names == PHYSIONET_2012_CHANNELS
    assert ds.y_full.shape == (20, 1)
    assert ds.dropped_records == 1


def test_2012_mask_delta_gives_135_channels(physionet2012_root):
    ds = build(pn2012_config(physionet2012_root, mask=True, delta=True))
    assert ds.X_full.shape[2] == 135
    kinds = ds.layout.kinds
    assert kinds[0] == TIME
    assert kinds[1:45] == (DATA,) * 44
    assert kinds[45:90] == (MASK,) * 45
    assert kinds[90:] == (DELTA,) * 45
    assert ds.layout.names[45] == "mask_Mins"
    assert ds.layout.names[90] == "delta_Mins"


def test_2012_no_time_gives_134_channels(physionet2012_root):
    ds = build(
        pn2012_config(physionet2012_root, time=False, mask=True, delta=True, impute="forward")
    )
    assert ds.X_full.shape[2] == 134
    assert ds.layout.kinds[0] == DATA


def test_2012_mechvent_mean_imputes_zero(physionet2012_root):
    # MechVent observations are all 1; the fixed mode-zero override must fill
    # unobserved entries with 0 under mean imputation
    ds = build(pn2012_config(physionet2012_root, impute="mean"))
    mech = ds.X_full[:, :, 20]
    observed = []
    for i, L in enumerate(ds.length_full):
        observed.extend(mech[i, :L].tolist())
    assert set(observed) == {0.0, 1.0}


def test_2012_stratified_on_outcome(physionet2012_root):
    ds = build(pn2012_config(physionet2012_root, val_prop=0.2))
    y = ds.y_full[:, 0]
    for split in ("train", "val", "test"):
        _, y_split, _ = ds.tensors(split)
        prop = ds.split_size(split) / ds.n
        assert abs((y_split[:, 0] == 1).sum() - prop * (y == 1).sum()) < 1 + 1e-9


def test_2012_workers_bitwise_identical(physionet2012_root):
    a = build(pn2012_config(physionet2012_root, overwrite_cache=True), workers=1)
    b = build(pn2012_config(physionet2012_root, overwrite_cache=True), workers=4)
    np.testing.assert_array_equal(a.X_full, b.X_full)
    np.testing.assert_array_equal(a.y_full, b.y_full)
    np.testing.assert_array_equal(a.split_of_index, b.split_of_index)


# ----------------------------------------------------------- PhysioNet 2019


def pn2019_config(root, **kwargs):
    defaults = dict(
        dataset="physionet2019", split="train", train_prop=0.7, seed=77, path=root
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def test_2019_per_step_targets(physionet2019_root):
    ds = build(pn2019_config(physionet2019_root))
    n, s, c = ds.X_full.shape
    assert c == 7  # ICULOS + 6 data channels
    assert ds.y_full.shape == (n, s)
    assert ds.layout.names[0] == "ICULOS"
    for i, L in enumerate(ds.length_full):
        assert not np.isnan(ds.y_full[i, :L]).any()
        assert np.isnan(ds.y_full[i, L:]).all()


def test_2019_binary_variant(physionet2019_root):
    ds = build(pn2019_config(physionet2019_root, dataset="physionet2019binary"))
    assert ds.y_full.shape == (16, 1)
    assert set(np.unique(ds.y_full)) <= {0.0, 1.0}
    # every sequence truncated to the 72-hour window
    assert all(
        np.nanmax(ds.X_full[i, : ds.length_full[i], 0]) <= 72.0 for i in range(ds.n)
    )


def test_2019_mask_covers_iculos(physionet2019_root):
    ds = build(pn2019_config(physionet2019_root, mask=True, delta=True))
    assert ds.X_full.shape[2] == 7 + 7 + 7


# ------------------------------------------------------------ config errors


def test_missing_rejected_for_physionet(physionet2012_root):
    with pytest.raises(ConfigError, match="UEA"):
        build(pn2012_config(physionet2012_root, missing=0.5))


def test_test_split_requires_val_prop(arrowhead_root):
    with pytest.raises(ConfigError, match="split"):
        build(arrowhead_config(arrowhead_root, split="test", val_prop=None))


def test_bad_channel_index_rejected(arrowhead_root):
    with pytest.raises(ConfigError, match="channel_means index"):
        build(arrowhead_config(arrowhead_root, impute="mean", channel_means={9: 1.0}))
    with pytest.raises(ConfigError, match="categorical index"):
        build(arrowhead_config(arrowhead_root, impute="mean", categorical=(0,)))


def test_bad_proportions_rejected(arrowhead_root):
    with pytest.raises(ConfigError):
        build(arrowhead_config(arrowhead_root, train_prop=0.0))
    with pytest.raises(ConfigError):
        build(arrowhead_config(arrowhead_root, train_prop=0.8, val_prop=0.3))
    with pytest.raises(ConfigError, match="impute"):
        build(arrowhead_config(arrowhead_root, impute="median"))


def test_missing_raw_sources_is_build_error(tmp_path):
    with pytest.raises(BuildError, match="step 1"):
        build(arrowhead_config(tmp_path))


def _empty_record_tree(root, kind):
    """Raw files of ``kind`` whose only record has no time series rows."""
    raw = root / ".torchtime" / "raw" / kind
    if kind == "physionet2012":
        (raw / "set-a").mkdir(parents=True)
        (raw / "set-a" / "132599.txt").write_text(
            "Time,Parameter,Value\n00:00,RecordID,132599\n00:00,Age,54\n"
        )
        (raw / "Outcomes-a.txt").write_text("RecordID,In-hospital_death\n132599,0\n")
    else:
        (raw / "training_setA").mkdir(parents=True)
        (raw / "training_setA" / "p000000.psv").write_text("HR|ICULOS|SepsisLabel\n")


@pytest.mark.parametrize("kind", ["physionet2012", "physionet2019", "physionet2019binary"])
def test_empty_record_set_fails_at_step_1(tmp_path, kind):
    _empty_record_tree(tmp_path, kind.replace("binary", ""))
    config = PipelineConfig(dataset=kind, split="train", train_prop=0.7, seed=1, path=tmp_path)
    with pytest.raises(BuildError, match="step 1 .*no usable records"):
        build(config)
    assert not entry_dir(tmp_path, kind).exists()


def test_uea_files_without_series_fail_at_step_1(tmp_path):
    raw = tmp_path / ".torchtime" / "raw" / "arrowhead"
    raw.mkdir(parents=True)
    for part in ("TRAIN", "TEST"):
        (raw / f"ArrowHead_{part}.ts").write_text("@classLabel true 0 1\n@data\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no group, so no loadtxt "no data" warning
        with pytest.raises(BuildError, match="step 1 .*no series"):
            build(arrowhead_config(tmp_path))
    assert not entry_dir(tmp_path, "uea_arrowhead").exists()


def test_uea_names_differing_in_case_share_one_cache_entry(arrowhead_root, copy_tree, monkeypatch):
    root = copy_tree(arrowhead_root)
    shutil.rmtree(entry_dir(root, "uea_arrowhead"), ignore_errors=True)  # other tests' build
    saved = []
    real_save = cache_store.save
    monkeypatch.setattr(cache_store, "save", lambda *a, **k: saved.append(a[1]) or real_save(*a, **k))
    builds = [build(arrowhead_config(root, dataset=name)) for name in ("ArrowHead", "arrowhead", "ArrowHead")]
    assert saved == ["uea_arrowhead"]
    assert {b.X_full.tobytes() for b in builds} == {builds[0].X_full.tobytes()}


def test_interrupt_inside_a_step_propagates_unchanged(arrowhead_root, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "_assemble_channels", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build(arrowhead_config(arrowhead_root))


def test_error_inside_a_step_names_the_step(arrowhead_root, monkeypatch):
    def failing(*args):
        raise ValueError("no room")

    monkeypatch.setattr(pipeline, "_assemble_channels", failing)
    with pytest.raises(BuildError, match=r"^step 4 \(append time/mask/delta channels\): no room$") as info:
        build(arrowhead_config(arrowhead_root))
    assert isinstance(info.value.__cause__, ValueError)


def test_master_cache_survives_post_cache_option_changes(arrowhead_root, copy_tree):
    # split/impute/mask/standardise apply after the cache, so changing them
    # must not invalidate the master entry
    root = copy_tree(arrowhead_root)
    build(arrowhead_config(root))
    raw = root / ".torchtime" / "raw" / "arrowhead"
    for p in raw.iterdir():
        p.unlink()
    ds = build(
        arrowhead_config(
            root, train_prop=0.5, val_prop=0.3, mask=True, delta=True,
            standardise=True, impute="mean", seed=9,
        )
    )
    assert ds.X_full.shape[2] == 4  # time + data + mask + delta


def test_padding_invariant_preserved_end_to_end(traj_root):
    ds = build(
        traj_config(
            traj_root, missing=0.3, mask=True, delta=True, standardise=True,
            impute="forward", val_prop=0.2,
        )
    )
    s = ds.X_full.shape[1]
    for i, L in enumerate(ds.length_full):
        assert np.isnan(ds.X_full[i, int(L):, :]).all()
        # imputed data + mask/delta/time leave no NaN inside the valid region
        assert not np.isnan(ds.X_full[i, : int(L), :]).any()
    from tsprep.batching import batches

    first = next(batches(ds, "train", 8))
    assert first.X.shape == (8, s, ds.X_full.shape[2])


def test_arrowhead_first_batch_shape(arrowhead_root):
    from tsprep.batching import batches

    ds = build(arrowhead_config(arrowhead_root))
    first = next(batches(ds, "train", 32))
    assert first.X.shape == (32, 251, 2)
    assert first.y.shape == (32, 3)
    assert first.length.shape == (32,)
    sizes = [b.n for b in batches(ds, "val", 32)]
    assert sizes == [32, 10]


@pytest.mark.parametrize("damage", ["header_byte", "truncated_payload", "trailing_byte"])
def test_damaged_cache_blob_rebuilds_same_bytes(arrowhead_root, copy_tree, caplog, damage):
    root = copy_tree(arrowhead_root)
    config = arrowhead_config(root, overwrite_cache=True)
    first = build(config)
    blob = entry_dir(root, "uea_arrowhead") / "X.bin"
    data = bytearray(blob.read_bytes())
    if damage == "header_byte":
        data[HEADER_SIZE - 1] = 0xE9
    elif damage == "truncated_payload":
        del data[-8:]
    else:
        data.append(0)
    blob.write_bytes(bytes(data))
    with caplog.at_level(logging.WARNING):
        second = build(arrowhead_config(root))
    assert any("corrupt" in r.message and "X.bin" in r.message for r in caplog.records)
    assert second.X_full.tobytes() == first.X_full.tobytes()
    assert cache_store.verify(blob.parent) == []


def _downgrade_to_format_1(entry):
    """Rewrite a cache entry in the layout used before cache format 2:
    ``meta.json`` plus an ``sha256sum``-style ``checksums.txt``."""
    from tsprep.util import sha256_file

    for name in ("manifest.json", "meta.json"):
        if (entry / name).exists():
            info = json.loads((entry / name).read_text())["dataset_info"]
    (entry / "manifest.json").unlink(missing_ok=True)
    meta = {
        "format_version": 1,
        "dataset": entry.name,
        "created_utc": "2026-01-01T00:00:00+00:00",
        "source_options": {"kind": "uea", "dataset": "ArrowHead"},
        "dataset_info": info,
    }
    (entry / "meta.json").write_text(json.dumps(meta))
    blobs = ("X.bin", "length.bin", "y.bin")
    (entry / "checksums.txt").write_text(
        "".join(f"{sha256_file(entry / name)}  {name}\n" for name in blobs)
    )


def test_format_1_cache_entry_is_rebuilt_to_the_same_bytes(arrowhead_root, copy_tree):
    root = copy_tree(arrowhead_root)
    first = build(arrowhead_config(root))
    entry = entry_dir(root, "uea_arrowhead")
    blobs = {name: (entry / name).read_bytes() for name in ("X.bin", "y.bin", "length.bin")}
    _downgrade_to_format_1(entry)
    second = build(arrowhead_config(root))
    assert sorted(p.name for p in entry.iterdir()) == ["X.bin", "length.bin", "manifest.json", "y.bin"]
    assert {name: (entry / name).read_bytes() for name in blobs} == blobs
    assert second.X_full.tobytes() == first.X_full.tobytes()
    assert cache_store.verify(entry) == []


def test_written_digests_match_the_files(arrowhead_root, copy_tree, tmp_path, monkeypatch):
    """Manifests carry the digests of the bytes written; nothing is read back
    to compute them, and verification (which does read) agrees."""
    root = copy_tree(arrowhead_root)
    config = arrowhead_config(root)
    ds = build(config)

    def no_read_back(path):
        raise AssertionError(f"{path} was read back to hash it")

    monkeypatch.setattr(export, "sha256_file", no_read_back)
    monkeypatch.setattr(tensorfile, "sha256_file", no_read_back)
    export.write_prepared(ds, config, tmp_path / "prepared")
    export.export_prepared(tmp_path / "prepared", tmp_path / "exported", "f32")
    monkeypatch.undo()
    for directory in ("prepared", "exported"):
        assert export.verify_manifest_files(tmp_path / directory) == []


def test_batches_gather_rows_without_copying_the_split(arrowhead_root, monkeypatch):
    ds = build(arrowhead_config(arrowhead_root, split="val"))
    X_val, y_val, length_val = ds.X_val, ds.y_val, ds.length_val

    def no_split_copy(self, split):
        raise AssertionError("batches copied the whole split")

    monkeypatch.setattr(Dataset, "tensors", no_split_copy)
    out = list(batches(ds, "val", 16))
    assert np.concatenate([b.X for b in out]).tobytes() == X_val.tobytes()
    assert np.concatenate([b.y for b in out]).tobytes() == y_val.tobytes()
    assert np.concatenate([b.length for b in out]).tolist() == length_val.tolist()


# ------------------------------------------------ step 4: channel assembly


def _uneven_master(seed=5):
    """(n, s, 1 + d) master with increasing stamps, missing values, unequal
    lengths (one of a single step) and NaN padding."""
    rng = np.random.RandomState(seed)
    lengths = np.array([9, 4, 1, 7, 9, 2, 6], dtype=np.int64)
    n, s, d = len(lengths), int(lengths.max()), 3
    X = np.full((n, s, 1 + d), np.nan)
    for i, L in enumerate(lengths):
        X[i, :L, 0] = np.cumsum(rng.uniform(0.5, 2.0, L))
        values = rng.randn(L, d)
        values[rng.rand(L, d) < 0.35] = np.nan
        X[i, :L, 1:] = values
    return X, lengths


def _assemble_reference(config, X, lengths, info):
    """Step 4 as one concatenation of the public mask and delta transforms."""
    d = X.shape[2] - 1
    cover = list(range(0, d + 1)) if info["mask_covers_time"] else list(range(1, d + 1))
    mask = transforms.observational_mask(X[:, :, cover], lengths)
    blocks = [X[:, :, :1]] if config.time else []
    blocks.append(X[:, :, 1:])
    if config.mask:
        blocks.append(mask)
    if config.delta:
        blocks.append(transforms.time_delta(X[:, :, 0], mask, lengths))
    return np.concatenate(blocks, axis=2)


@pytest.mark.parametrize("covers_time", [False, True], ids=["uea", "physionet"])
@pytest.mark.parametrize(
    "time, mask, delta",
    list(itertools.product([False, True], repeat=3)),
    ids=lambda flag: "on" if flag else "off",
)
def test_assemble_channels_equals_a_concatenate_reference(time, mask, delta, covers_time):
    X, lengths = _uneven_master()
    master = X.copy()
    info = {"time_channel": "t", "channels": ["a", "b", "c"], "mask_covers_time": covers_time}
    config = PipelineConfig(
        dataset="Demo", split="train", train_prop=0.7, time=time, mask=mask, delta=delta
    )
    out, layout = pipeline._assemble_channels(config, X, lengths, info)
    want = _assemble_reference(config, X, lengths, info)
    assert (out.shape, out.dtype, out.flags.c_contiguous) == (want.shape, want.dtype, True)
    assert out.tobytes() == want.tobytes()
    assert X.tobytes() == master.tobytes()  # the master is read, never written
    cover = (["t"] if covers_time else []) + ["a", "b", "c"]
    names = (["t"] if time else []) + ["a", "b", "c"]
    names += [f"mask_{c}" for c in cover] if mask else []
    names += [f"delta_{c}" for c in cover] if delta else []
    assert layout.names == tuple(names)
    assert layout.n_channels == out.shape[2]


@pytest.mark.parametrize(
    "edit",
    [
        lambda info: info["channels"].append("Extra"),
        lambda info: info["channels"].pop(),
        lambda info: info.pop("time_channel"),
    ],
    ids=["one_more_name", "one_name_less", "no_time_channel"],
)
def test_dataset_info_disagreeing_with_X_is_rebuilt(physionet2019_root, copy_tree, caplog, edit):
    """Blob digests do not cover dataset_info, so a hit is checked against
    X.bin: a channel list of the wrong length or a missing key rebuilds."""
    root = copy_tree(physionet2019_root)
    config = PipelineConfig(dataset="physionet2019", split="train", train_prop=0.7, seed=5,
                            path=root, overwrite_cache=True)
    clean = build(config)
    manifest_path = entry_dir(root, "physionet2019") / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["dataset_info"])
    manifest_path.write_text(json.dumps(manifest))
    with caplog.at_level(logging.WARNING):
        rebuilt = build(dataclasses.replace(config, overwrite_cache=False))
    assert any("corrupt" in r.message and "dataset_info" in r.message for r in caplog.records)
    assert rebuilt.layout == clean.layout
    assert rebuilt.X_full.tobytes() == clean.X_full.tobytes()
    assert rebuilt.y_full.tobytes() == clean.y_full.tobytes()
    info = json.loads(manifest_path.read_text())["dataset_info"]
    assert len(info["channels"]) + 1 == clean.X_full.shape[2] and info["time_channel"] == "ICULOS"

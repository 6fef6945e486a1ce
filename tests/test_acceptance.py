"""Acceptance suite: one test per criterion, run at the stated tolerance.

Each test's first docstring line is echoed as a PASS/FAIL line in the
terminal summary (see conftest). Oracles here are deliberately independent
of the implementation: brute-force scans, hand-computed statistics and a
second, struct-based reader for the export format.
"""

import math
import struct
import time

import numpy as np

from tsprep import export
from tsprep.batching import Batch, pack, sort_by_length, unpack
from tsprep.cache_store import CacheCorrupt, entry_dir, load, save
from tsprep.pipeline import PipelineConfig, build
from tsprep.splits import SplitSpec, stratified_split
from tsprep.tensor_core import channel_stats
from tsprep.transforms import build_fill, impute, observational_mask, simulate_missing, time_delta

import pytest


def test_criterion_01_arrowhead_split_sizes(arrowhead_root):
    """1. ArrowHead 70/20/10 split is exactly 148/42/21 with shapes (148,251,2)/(42,251,2)/(21,3)"""
    started = time.monotonic()
    config = PipelineConfig(
        dataset="ArrowHead", split="train", train_prop=0.7, val_prop=0.2,
        seed=123, path=arrowhead_root,
    )
    ds = build(config)
    assert ds.split_size("train") == 148
    assert ds.split_size("val") == 42
    assert ds.split_size("test") == 21
    assert ds.X_train.shape == (148, 251, 2)
    assert ds.X_val.shape == (42, 251, 2)
    assert ds.y_test.shape == (21, 3)
    assert time.monotonic() - started < 30.0


def test_criterion_02_delta_golden():
    """2. Worked 5-step listing reproduces delta channels [[0,0,0],[1,1,1],[1,1,2],[1,1,3],[2,2,1]] exactly"""
    mask = np.array(
        [[[0, 1, 1], [1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 1, 0]]], dtype=float
    )
    delta = time_delta(np.arange(5.0).reshape(1, 5), mask, np.array([5]))
    expected = np.array(
        [[[0, 0, 0], [1, 1, 1], [1, 1, 2], [1, 1, 3], [2, 2, 1]]], dtype=float
    )
    np.testing.assert_array_equal(delta, expected)


def test_criterion_03_mask_golden():
    """3. Worked listing's first five rows give the printed 0/1 observational mask exactly"""
    X = np.array(
        [
            [
                [np.nan, 0.1640, 0.6631],
                [-0.0678, 0.2123, np.nan],
                [-0.1190, 0.2448, np.nan],
                [np.nan, np.nan, 1.0139],
                [np.nan, 0.2550, np.nan],
            ]
        ]
    )
    mask = observational_mask(X, np.array([5]))
    expected = np.array(
        [[[0, 1, 1], [1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 1, 0]]], dtype=float
    )
    np.testing.assert_array_equal(mask, expected)


def test_criterion_04_physionet2012_channel_layout(physionet2012_root):
    """4. PhysioNet 2012 has 45 channels in the documented order; mask+delta give 135"""
    plain = build(
        PipelineConfig(dataset="physionet2012", split="train", train_prop=0.7,
                       seed=9, path=physionet2012_root)
    )
    assert plain.X_full.shape[2] == 45
    assert plain.layout.names == (
        "Mins", "Albumin", "ALP", "ALT", "AST", "Bilirubin", "BUN",
        "Cholesterol", "Creatinine", "DiasABP", "FiO2", "GCS", "Glucose",
        "HCO3", "HCT", "HR", "K", "Lactate", "Mg", "MAP", "MechVent", "Na",
        "NIDiasABP", "NIMAP", "NISysABP", "PaCO2", "PaO2", "pH", "Platelets",
        "RespRate", "SaO2", "SysABP", "Temp", "TroponinI", "TroponinT",
        "Urine", "WBC", "Weight", "Age", "Gender", "Height", "ICUType1",
        "ICUType2", "ICUType3", "ICUType4",
    )
    full = build(
        PipelineConfig(dataset="physionet2012", split="train", train_prop=0.7,
                       seed=9, path=physionet2012_root, mask=True, delta=True)
    )
    assert full.X_full.shape[2] == 135


def test_criterion_05_simulation_proportions():
    """5. Simulated missingness drops exactly round(p*length) points; scalar p is all-or-nothing per row"""
    rng = np.random.RandomState(50)
    n, s, d = 8, 40, 3
    lengths = rng.randint(10, s + 1, size=n).astype(np.int64)
    X = np.full((n, s, d + 1), np.nan)
    for i, L in enumerate(lengths):
        X[i, :L, 0] = np.arange(L)
        X[i, :L, 1:] = rng.rand(L, d) + 1.0

    for p in (0.2, 0.5, 0.8):
        out = simulate_missing(X, lengths, p, seed=51)
        for i, L in enumerate(lengths):
            rows = out[i, :L, 1:]
            dropped = np.isnan(rows).all(axis=1)
            partial = np.isnan(rows).any(axis=1)
            np.testing.assert_array_equal(dropped, partial)
            assert dropped.sum() == math.floor(p * int(L) + 0.5)
        np.testing.assert_array_equal(out[:, :, 0], X[:, :, 0])

    for props in ([0.8, 0.2, 0.5], [0.0, 1.0, 0.3], [0.25, 0.25, 0.25]):
        out = simulate_missing(X, lengths, props, seed=52)
        for i, L in enumerate(lengths):
            for c, p in enumerate(props):
                count = int(np.isnan(out[i, :L, 1 + c]).sum())
                assert count == math.floor(p * int(L) + 0.5)


def test_criterion_06_imputation_property_suite():
    """6. Imputation properties hold over 1000 randomized cases in under 10 s"""
    started = time.monotonic()
    rng = np.random.RandomState(60)
    methods = ("zero", "mean", "forward")
    for case in range(1000):
        n = rng.randint(1, 4)
        s = rng.randint(2, 7)
        d = rng.randint(1, 4)
        lengths = rng.randint(1, s + 1, size=n).astype(np.int64)
        X = np.full((n, s, d + 2), np.nan)  # data plus mask/delta-style extras
        for i, L in enumerate(lengths):
            block = np.round(rng.randn(L, d), 3)
            block[rng.rand(L, d) < 0.4] = np.nan
            X[i, :L, :d] = block
            X[i, :L, d] = (rng.rand(L) < 0.5).astype(float)  # mask-like channel
            X[i, :L, d + 1] = np.arange(L)  # delta-like channel
        data_cols = np.arange(d)
        y = np.zeros((n, 1))
        method = methods[case % 3]

        categorical = [0] if (case % 5 == 0 and d >= 1) else []
        if categorical:
            for i, L in enumerate(lengths):
                X[i, :L, 0] = rng.choice([0.0, 1.0, 2.0], size=L)
                X[i, :L, 0][rng.rand(L) < 0.4] = np.nan
        overrides = {d - 1: 42.0} if case % 7 == 0 else {}

        stats = channel_stats(X[:, :, :d], lengths, categorical=categorical)
        try:
            fill = build_fill(stats, method, categorical=categorical, channel_means=overrides)
        except ValueError:
            assert method in ("mean", "forward")
            unavailable = [c for c in range(d) if stats.count[c] == 0 and c not in overrides]
            assert unavailable
            continue

        # fill honours categorical modes and explicit overrides
        if method != "zero":
            for c in categorical:
                if c not in overrides and stats.available[c]:
                    observed = X[:, :, c][~np.isnan(X[:, :, c])]
                    values, counts = np.unique(observed, return_counts=True)
                    best = values[counts == counts.max()].min()  # smallest-value tie
                    assert fill[c] == best
            for c, v in overrides.items():
                assert fill[c] == v

        once, _ = impute(X, y, lengths, data_cols, method, fill)
        valid = np.arange(s)[None, :] < lengths[:, None]
        assert not np.isnan(once[:, :, :d][valid]).any()
        # mask/delta-style channels bit-identical
        np.testing.assert_array_equal(once[:, :, d:], X[:, :, d:])
        # idempotence
        twice, _ = impute(once, y, lengths, data_cols, method, fill)
        np.testing.assert_array_equal(once, twice)
        # online safety on a random prefix
        i = rng.randint(0, n)
        k = rng.randint(1, lengths[i] + 1)
        prefix, _ = impute(
            X[i : i + 1, :k, :], y[i : i + 1], np.array([k]), data_cols, method, fill
        )
        np.testing.assert_array_equal(prefix[0], once[i, :k, :])
        # forward fill equals the backward-scan oracle
        if method == "forward":
            for i, L in enumerate(lengths):
                for c in range(d):
                    for t in range(int(L)):
                        expected = fill[c]
                        for j in range(t, -1, -1):
                            if not np.isnan(X[i, j, c]):
                                expected = X[i, j, c]
                                break
                        assert once[i, t, c] == expected
    assert time.monotonic() - started < 10.0


def test_criterion_07_split_properties(physionet2012_root):
    """7. Splits partition the data, stratify within 1 sequence and are seed/thread deterministic"""
    rng = np.random.RandomState(70)
    for case in range(100):
        n = rng.randint(4, 200)
        labels = rng.randint(0, rng.randint(2, 6), size=n)
        train_prop = rng.uniform(0.3, 0.7)
        val_prop = rng.uniform(0.05, 0.9 - train_prop) if case % 2 else None
        spec = SplitSpec(train_prop, val_prop, seed=case)
        a = stratified_split(labels, spec)
        b = stratified_split(labels, spec)
        for x, y in ((a.train, b.train), (a.val, b.val), (a.test, b.test)):
            assert np.array_equal(x, y)  # bitwise determinism
        combined = sorted(np.concatenate([a.train, a.val, a.test]).tolist())
        assert combined == list(range(n))  # exact partition
        for stratum in np.unique(labels):
            n_s = int((labels == stratum).sum())
            got_train = int((labels[a.train] == stratum).sum())
            assert abs(got_train - train_prop * n_s) < 1 + 1e-9
            if val_prop is not None:
                got_val = int((labels[a.val] == stratum).sum())
                assert abs(got_val - val_prop * n_s) < 1 + 1e-9

    config_args = dict(
        dataset="physionet2012", split="train", train_prop=0.6, val_prop=0.2,
        seed=7, path=physionet2012_root, overwrite_cache=True,
    )
    serial = build(PipelineConfig(**config_args), workers=1)
    threaded = build(PipelineConfig(**config_args), workers=4)
    np.testing.assert_array_equal(serial.split_of_index, threaded.split_of_index)
    np.testing.assert_array_equal(serial.X_full, threaded.X_full)
    np.testing.assert_array_equal(serial.y_full, threaded.y_full)


def test_criterion_08_standardisation(traj_root):
    """8. Standardised training channels hit |mean| < 1e-9 and |std-1| < 1e-9; validation uses training statistics"""
    ds = build(
        PipelineConfig(dataset="Traj3", split="train", train_prop=0.7, val_prop=0.2,
                       seed=80, path=traj_root, standardise=True)
    )
    X_train = ds.X_train
    for c in (1, 2, 3):
        observed = X_train[:, :, c][~np.isnan(X_train[:, :, c])]
        assert abs(observed.mean()) < 1e-9
        assert abs(observed.std(ddof=0) - 1.0) < 1e-9

    # hand oracle on a 4-sequence set: train stats from 2 rows, applied to 2
    X = np.zeros((4, 3, 2))
    X[:, :, 0] = np.arange(3)
    X[0, :, 1] = [1.0, 3.0, 5.0]
    X[1, :, 1] = [7.0, 9.0, 11.0]
    X[2, :, 1] = [2.0, 4.0, 8.0]
    X[3, :, 1] = [-1.0, 0.0, 6.0]
    train_values = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0]
    mu = sum(train_values) / len(train_values)
    sd = math.sqrt(sum((v - mu) ** 2 for v in train_values) / len(train_values))
    from tsprep.tensor_core import Channel, ChannelLayout, standardise

    layout = ChannelLayout((Channel("time", "time"), Channel("d0", "data")))
    stats = channel_stats(X[:2, :, 1:], np.array([3, 3]))
    out = standardise(X, layout, stats)
    for row in (2, 3):
        for t in range(3):
            expected = (X[row, t, 1] - mu) / sd
            assert abs(out[row, t, 1] - expected) < 1e-12


def test_criterion_09_pack_unpack_roundtrip():
    """9. pack/unpack round-trips 1000 random batches bitwise with non-increasing batch sizes"""
    rng = np.random.RandomState(90)
    for _ in range(1000):
        b = rng.randint(1, 7)
        s = rng.randint(1, 8)
        c = rng.randint(1, 4)
        lengths = rng.randint(1, s + 1, size=b).astype(np.int64)
        s = int(lengths.max())
        X = np.full((b, s, c), np.nan)
        for i, L in enumerate(lengths):
            X[i, :L, :] = rng.randn(L, c)
            X[i, :L, :][rng.rand(L, c) < 0.25] = np.nan
        per_step = bool(rng.randint(0, 2))
        if per_step:
            y = np.full((b, s), np.nan)
            for i, L in enumerate(lengths):
                y[i, :L] = rng.randn(L)
        else:
            y = rng.randn(b, 3)
        batch = Batch(X=X, y=y, length=lengths)
        packed = pack(batch, per_step_y=per_step)
        assert packed.batch_sizes[0] == b
        assert (np.diff(packed.batch_sizes) <= 0).all()
        assert int(packed.batch_sizes.sum()) == int(lengths.sum())
        restored = unpack(packed)
        expected = sort_by_length(batch)
        np.testing.assert_array_equal(restored.X, expected.X)
        np.testing.assert_array_equal(restored.y, expected.y)
        np.testing.assert_array_equal(restored.length, expected.length)


def test_criterion_10_cache_integrity(tmp_path):
    """10. Cache round-trips bitwise and any single-bit flip in any blob is detected"""
    rng = np.random.RandomState(100)
    X = rng.randn(3, 5, 2)
    X[1, 4:, :] = np.nan
    y = rng.randn(3, 2)
    length = np.array([5, 4, 5], dtype=np.int64)
    info = {"time_channel": "t", "channels": ["a"], "mask_covers_time": False, "dropped_records": 0}
    save(tmp_path, "demo", X, y, length, info)
    X2, y2, length2, _ = load(tmp_path, "demo")
    np.testing.assert_array_equal(X2, X)
    np.testing.assert_array_equal(y2, y)
    np.testing.assert_array_equal(length2, length)

    for name in ("X.bin", "y.bin", "length.bin"):
        blob_path = entry_dir(tmp_path, "demo") / name
        pristine = blob_path.read_bytes()
        for index in (0, len(pristine) // 2, len(pristine) - 1):
            for bit in range(8):
                mutated = bytearray(pristine)
                mutated[index] ^= 1 << bit
                blob_path.write_bytes(bytes(mutated))
                with pytest.raises(CacheCorrupt):
                    load(tmp_path, "demo")
        blob_path.write_bytes(pristine)
    load(tmp_path, "demo")  # intact again


def independent_read(path):
    """Second implementation of the export format: struct-only, no tsprep code."""
    raw = path.read_bytes()
    magic = raw[:7]
    assert magic == b"TSPREP\x01"
    fields = raw[7:96].decode("ascii").split()
    code = fields[0]
    rank = int(fields[1])
    shape = [int(v) for v in fields[2 : 2 + rank]]
    count = 1
    for dim in shape:
        count *= dim
    letter = {"f32": "f", "f64": "d", "i64": "q"}[code]
    values = struct.unpack("<" + letter * count, raw[96:])
    return np.array(values).reshape(shape)


def test_criterion_11_export_format_cross_reader(arrowhead_root, tmp_path):
    """11. An independently written struct reader parses f64 exports to identical arrays"""
    config = PipelineConfig(
        dataset="ArrowHead", split="train", train_prop=0.7, val_prop=0.2,
        seed=123, path=arrowhead_root,
    )
    ds = build(config)
    prepared = tmp_path / "prepared"
    export.write_prepared(ds, config, prepared)
    exported = tmp_path / "exported"
    export.export_prepared(prepared, exported, dtype="f64")
    for split in ("train", "val", "test"):
        X, y, length = ds.tensors(split)
        np.testing.assert_array_equal(independent_read(exported / f"X_{split}.bin"), X)
        np.testing.assert_array_equal(independent_read(exported / f"y_{split}.bin"), y)
        got_length = independent_read(exported / f"length_{split}.bin")
        np.testing.assert_array_equal(got_length, length)
        assert got_length.dtype.kind == "i"

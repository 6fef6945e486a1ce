"""Bounded memory: step 4 allocates its output once, steps 6-7 add one gather
of the training steps and per-block temporaries, steps 1-7 hold only the
real time steps, and the writers stream row blocks instead of copying whole
splits.

Peaks are measured with ``tracemalloc``, which numpy reports its buffers
to; arrays that exist before a measurement starts are not counted.
"""

import tracemalloc

import numpy as np
import pytest

from tsprep import export, pipeline, tensorfile, transforms
from tsprep.pipeline import PipelineConfig
from tsprep.tensor_core import Channel, ChannelLayout, Dataset, channel_stats


def traced_peak(call):
    """Peak bytes allocated while ``call`` runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def large_dataset():
    """400 rows of (100, 50) f64: 16 MB in all, 11.2 MB in the train split."""
    rng = np.random.RandomState(0)
    n, s, c = 400, 100, 50
    lengths = rng.randint(1, s + 1, n).astype(np.int64)
    X = rng.randn(n, s, c)
    X[np.arange(s)[None, :] >= lengths[:, None]] = np.nan
    codes = np.repeat(np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 2], dtype=np.int8), n // 10)
    return Dataset(
        X_full=X,
        y_full=rng.randint(0, 2, (n, 1)).astype(np.float64),
        length_full=lengths,
        layout=ChannelLayout(tuple(Channel(f"d{i}", "data") for i in range(c))),
        stats=channel_stats(X, lengths),
        split_of_index=rng.permutation(codes),
        split="train",
        has_test=True,
        name="Large",
    )


CONFIG = PipelineConfig(dataset="Large", split="train", train_prop=0.7, val_prop=0.2, seed=1)


def largest_blob(directory):
    return max(p.stat().st_size for p in directory.glob("*.bin"))


def test_write_prepared_peak_is_under_a_quarter_of_the_largest_blob(tmp_path):
    dataset = large_dataset()
    peak, _ = traced_peak(lambda: export.write_prepared(dataset, CONFIG, tmp_path / "prepared"))
    assert peak < largest_blob(tmp_path / "prepared") / 4


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_export_peak_is_under_a_quarter_of_the_largest_blob(tmp_path, dtype):
    export.write_prepared(large_dataset(), CONFIG, tmp_path / "prepared")
    peak, _ = traced_peak(
        lambda: export.export_prepared(tmp_path / "prepared", tmp_path / "out", dtype)
    )
    assert peak < largest_blob(tmp_path / "prepared") / 4


def test_write_prepared_never_copies_a_whole_split(tmp_path, monkeypatch):
    dataset = large_dataset()

    def no_split_copy(self, split):
        raise AssertionError("write_prepared copied a whole split")

    monkeypatch.setattr(Dataset, "tensors", no_split_copy)
    export.write_prepared(dataset, CONFIG, tmp_path / "prepared")
    assert export.verify_manifest_files(tmp_path / "prepared") == []


def ragged_master(n=200, s=100, d=10, seed=1):
    """The real steps of an ``(n, s, 1 + d)`` master, record after record,
    30% missing, and its lengths."""
    rng = np.random.RandomState(seed)
    lengths = rng.randint(1, s + 1, n).astype(np.int64)
    X = rng.randn(n, s, 1 + d)
    X[rng.rand(n, s, 1 + d) < 0.3] = np.nan
    X[:, :, 0] = np.arange(s)
    return X[np.arange(s)[None, :] < lengths[:, None]], lengths


@pytest.mark.parametrize("covers_time", [False, True], ids=["uea", "physionet"])
def test_assemble_channels_peak_is_its_output(covers_time):
    d = 10
    X, lengths = ragged_master(d=d)
    info = {"time_channel": "t", "channels": [f"c{i}" for i in range(d)], "mask_covers_time": covers_time}
    config = PipelineConfig(dataset="Demo", split="train", train_prop=0.7, mask=True, delta=True)
    peak, (out, _) = traced_peak(lambda: pipeline._assemble_channels(config, X, lengths, info))
    assert out.shape == (lengths.sum(), 1 + 3 * d + 2 * covers_time)
    assert peak <= 1.1 * out.nbytes


@pytest.mark.parametrize("impute", ["forward", "mean"])
def test_steps_6_and_7_allocate_one_train_gather_and_one_block(monkeypatch, impute):
    """Steps 6 and 7 use one ``(N_train, d)`` gather of the training steps
    (which the build places in the output's memory) and, beyond it and the
    output, only per-block temporaries: on four times the sequences, what
    gathering and the fused pass allocate beyond them grows by less than one
    block. (``channel_stats``, unchanged by the blocks, keeps one channel's
    observed values at a time.)"""
    block = 64 << 10
    monkeypatch.setattr(tensorfile, "BLOCK_BYTES", block)
    d = 10
    info = {"time_channel": "t", "channels": [f"c{i}" for i in range(d)], "mask_covers_time": True}
    config = PipelineConfig(dataset="Demo", split="train", train_prop=0.7, mask=True, delta=True,
                            standardise=True, impute=impute)
    one, one_lengths = ragged_master(d=d)
    excess = []
    for copies in (1, 4):
        X, lengths = np.concatenate([one] * copies), np.tile(one_lengths, copies)
        is_train = np.arange(len(lengths)) % 10 < 7
        train = np.empty((int(lengths[is_train].sum()), d))
        peak, _ = traced_peak(lambda: pipeline._train_steps(X, lengths, is_train, train))
        stats = channel_stats(train, lengths[is_train])
        fill = transforms.build_fill(stats, impute)
        peak_pass, (out, _) = traced_peak(
            lambda: pipeline._assemble_channels(config, X, lengths, info, stats, fill)
        )
        assert train.nbytes > 4 * block and out.nbytes > 4 * block
        excess.append((peak, peak_pass - out.nbytes))
    assert excess[1][0] - excess[0][0] < block
    assert excess[1][1] - excess[0][1] < block


def test_warm_build_of_a_mostly_padded_dataset_allocates_under_half_its_padded_output(
    physionet2019_long_tail_root, copy_tree
):
    """Padding is made only where a padded tensor leaves the package, so a
    build that hits the cache holds the real steps, never the padded tensor."""
    config = PipelineConfig(
        dataset="physionet2019", split="train", train_prop=0.7, val_prop=0.15, seed=1,
        mask=True, delta=True, standardise=True, impute="forward",
        path=copy_tree(physionet2019_long_tail_root),
    )
    lengths, n_channels = (lambda ds: (ds.length_full, ds.layout.n_channels))(
        pipeline.build(config)  # cold: writes the cache entry
    )
    steps = int(lengths.max())
    assert lengths.sum() <= 0.2 * len(lengths) * steps  # at least 80% padding
    padded_bytes = len(lengths) * steps * n_channels * 8
    peak, dataset = traced_peak(lambda: pipeline.build(config))
    assert dataset.X_full.nbytes == padded_bytes
    assert peak < 0.5 * padded_bytes


def fill_data_gaps(X, y, fill, select):
    """Custom imputation that fills every gap of the data channels, padding
    included, from ``fill``."""
    block = X[:, :, select]
    X[:, :, select] = np.where(np.isnan(block), fill, block)
    return X, y


def test_warm_custom_build_allocates_the_padded_output_after_the_splits(
    physionet2019_long_tail_root, copy_tree
):
    """A custom imputation sees each split padded, with its copy and the
    callable's temporaries; the padded output is allocated only once every
    split is imputed and the real-step output released. Allocated before
    the splits, it would sit beside the training split's copies and put the
    peak at 3.0 times the padded output on this tree, against 2.1."""
    config = PipelineConfig(
        dataset="physionet2019", split="train", train_prop=0.7, val_prop=0.15, seed=1,
        mask=True, delta=True, standardise=True, impute=fill_data_gaps,
        path=copy_tree(physionet2019_long_tail_root),
    )
    lengths = pipeline.build(config).length_full  # cold: writes the cache entry
    assert lengths.sum() <= 0.2 * len(lengths) * lengths.max()  # at least 80% padding
    peak, dataset = traced_peak(lambda: pipeline.build(config))
    padded_bytes = dataset.X_full.nbytes
    assert (np.diff(dataset.ragged.offsets) == lengths.max()).all()
    assert peak < 2.5 * padded_bytes

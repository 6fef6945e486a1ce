import math

import numpy as np
import pytest

from tsprep.tensor_core import (
    Channel,
    ChannelLayout,
    ChannelStats,
    Dataset,
    Ragged,
    append_time_channel,
    channel_stats,
    pad_to_longest,
    standardise,
    standardise_in_place,
)


def test_pad_shapes_and_padding():
    series = [np.ones((2, 3)), np.full((5, 3), 2.0)]
    X, lengths = pad_to_longest(series)
    assert X.shape == (2, 5, 3)
    np.testing.assert_array_equal(lengths, [2, 5])
    assert np.isnan(X[0, 2:, :]).all()
    assert not np.isnan(X[1]).any()


def test_pad_single_series_identity():
    X, lengths = pad_to_longest([np.arange(6.0).reshape(3, 2)])
    assert X.shape == (1, 3, 2)
    assert not np.isnan(X).any()


def test_pad_errors():
    with pytest.raises(ValueError, match="no series"):
        pad_to_longest([])
    with pytest.raises(ValueError, match="channel-count"):
        pad_to_longest([np.ones((2, 3)), np.ones((2, 4))])
    with pytest.raises(ValueError, match="at least one step"):
        pad_to_longest([np.ones((0, 3))])


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("lengths", [[2, 5, 1, 5], [3, 3]], ids=["unequal", "equal"])
def test_pad_to_longest_is_bitwise_a_nan_fill_plus_each_series(dtype, lengths):
    rng = np.random.RandomState(len(lengths))
    series = [(rng.randn(L, 3) * 1e6).astype(dtype) for L in lengths]
    want = np.full((len(series), max(lengths), 3), np.nan)
    for i, m in enumerate(series):
        want[i, : len(m)] = m
    X, got_lengths = pad_to_longest(series)
    assert X.dtype == np.float64 and X.shape == want.shape
    assert X.tobytes() == want.tobytes()
    np.testing.assert_array_equal(got_lengths, lengths)


@pytest.mark.parametrize(
    "lengths", [[2, 5, 0, 1], [3, 3, 3], []], ids=["unequal", "equal", "no-sequences"]
)
def test_ragged_is_as_wide_as_its_longest_sequence(lengths):
    values = np.arange(2.0 * sum(lengths)).reshape(-1, 2)
    offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    ragged = Ragged(values, offsets)
    steps = max(lengths, default=0)
    assert ragged.steps == steps and ragged.shape == (len(lengths), steps, 2)
    want = np.full(ragged.shape, np.nan)
    for i, L in enumerate(lengths):
        want[i, :L] = values[offsets[i] : offsets[i + 1]]
    assert ragged.pad().tobytes() == want.tobytes()
    rows = np.arange(len(lengths))[::-1]
    assert ragged.pad(rows).tobytes() == want[rows].tobytes()
    out = np.zeros(want[rows].shape)
    assert ragged.pad(rows, out=out) is out and out.tobytes() == want[rows].tobytes()
    # equal lengths: the padded form is its rows, reshaped
    assert np.shares_memory(ragged.pad(), values) == (len(set(lengths)) == 1)


def _dataset_of(X, lengths):
    return Dataset(
        X_full=X,
        y_full=np.zeros((len(lengths), 1)),
        length_full=np.asarray(lengths, dtype=np.int64),
        layout=ChannelLayout((Channel("d0", "data"),)),
        stats=channel_stats(X, np.asarray(lengths)),
        split_of_index=np.zeros(len(lengths), dtype=np.int8),
        split="train",
        has_test=False,
    )


def test_dataset_of_a_padded_array_keeps_only_its_real_steps():
    """A padded X_full wider than its longest sequence, with values in its
    padding, is held as its real steps and padded back only as wide as the
    longest sequence, NaN after each length."""
    X = np.arange(18.0).reshape(3, 6, 1)  # no NaN padding at all
    lengths = [2, 4, 3]
    ds = _dataset_of(X, lengths)
    assert ds.ragged.values.tobytes() == np.concatenate(
        [X[i, :L] for i, L in enumerate(lengths)]
    ).tobytes()
    want = np.full((3, 4, 1), np.nan)
    for i, L in enumerate(lengths):
        want[i, :L] = X[i, :L]
    assert ds.X_full.tobytes() == want.tobytes()
    assert ds.X_train.tobytes() == want.tobytes()
    # every sequence as wide as X: held as a view, padded as X itself
    assert np.shares_memory(_dataset_of(X, [6, 6, 6]).X_full, X)


@pytest.mark.parametrize("lengths", [[3, 4], [4, 4], [2, 3, 1], [3]])
def test_dataset_of_a_padded_array_rejects_lengths_that_do_not_fit_it(lengths):
    """A length past the padded width, or a length count other than the
    sequence count, raises."""
    with pytest.raises(ValueError, match="one length per sequence"):
        _dataset_of(np.zeros((2, 3, 1)), lengths)


def test_append_time_channel_and_inverse():
    X, lengths = pad_to_longest([np.ones((2, 1)), np.ones((4, 1))])
    times = [np.arange(2.0), np.arange(4.0)]
    out = append_time_channel(X, times)
    assert out.shape == (2, 4, 2)
    np.testing.assert_array_equal(out[1, :, 0], [0, 1, 2, 3])
    assert np.isnan(out[0, 2:, 0]).all()
    np.testing.assert_array_equal(out[:, :, 1:], X)  # dropping channel 0 recovers input


def test_append_time_channel_passthrough_stamps():
    X = np.zeros((1, 3, 1))
    out = append_time_channel(X, [np.array([0.0, 37.0, 90.0])])
    np.testing.assert_array_equal(out[0, :, 0], [0, 37, 90])


def test_channel_stats_mean():
    X = np.array([[[1.0], [3.0], [np.nan]]])
    stats = channel_stats(X, np.array([3]))
    assert stats.mean[0] == 2.0
    assert stats.count[0] == 2
    assert stats.available[0]


def test_channel_stats_mode_smallest_tie():
    X = np.array([[[0.0], [0.0], [1.0]]])
    stats = channel_stats(X, np.array([3]), categorical=[0])
    assert stats.mode[0] == 0.0
    # tie: {2.0 x2, 1.0 x2} -> smallest value wins
    X2 = np.array([[[2.0], [1.0], [2.0], [1.0]]])
    stats2 = channel_stats(X2, np.array([4]), categorical=[0])
    assert stats2.mode[0] == 1.0


def test_channel_stats_unobserved_channel():
    X = np.full((2, 3, 2), np.nan)
    X[:, :, 0] = 1.0
    stats = channel_stats(X, np.array([3, 3]))
    assert stats.available[0] and not stats.available[1]
    assert math.isnan(stats.mean[1])


def layout_for(n_data, time=True):
    channels = []
    if time:
        channels.append(Channel("time", "time"))
    channels += [Channel(f"d{i}", "data") for i in range(n_data)]
    return ChannelLayout(tuple(channels))


def test_standardise_train_definitional():
    rng = np.random.RandomState(0)
    X = rng.randn(6, 10, 3) * 4 + 7
    X[:, :, 0] = np.arange(10)  # time channel
    layout = layout_for(2)
    stats = channel_stats(X[:, :, 1:], np.full(6, 10), categorical=())
    out = standardise(X, layout, stats)
    for c in (1, 2):
        observed = out[:, :, c][~np.isnan(out[:, :, c])]
        assert abs(observed.mean()) < 1e-12
        assert abs(observed.std(ddof=0) - 1) < 1e-12
    np.testing.assert_array_equal(out[:, :, 0], X[:, :, 0])  # time untouched


def test_standardise_constant_channel_zeroes():
    X = np.full((2, 3, 2), 5.0)
    X[:, :, 0] = 0.0
    layout = layout_for(1)
    stats = channel_stats(X[:, :, 1:], np.array([3, 3]))
    out = standardise(X, layout, stats)
    np.testing.assert_array_equal(out[:, :, 1], np.zeros((2, 3)))


def test_standardise_validation_uses_train_stats():
    # hand oracle on a 4-sequence set: 2 train rows define mean/std, the
    # transform of the 2 validation rows is checked value by value
    X = np.zeros((4, 2, 2))
    X[:, :, 0] = [[0, 1]] * 4
    X[0, :, 1] = [1.0, 3.0]
    X[1, :, 1] = [5.0, 7.0]
    X[2, :, 1] = [10.0, 20.0]
    X[3, :, 1] = [-2.0, 4.0]
    layout = layout_for(1)
    stats = channel_stats(X[:2, :, 1:], np.array([2, 2]))
    mu = (1 + 3 + 5 + 7) / 4.0
    sd = math.sqrt(((1 - mu) ** 2 + (3 - mu) ** 2 + (5 - mu) ** 2 + (7 - mu) ** 2) / 4.0)
    assert stats.mean[0] == mu and abs(stats.std[0] - sd) < 1e-15
    out = standardise(X, layout, stats)
    np.testing.assert_allclose(out[2, :, 1], [(10 - mu) / sd, (20 - mu) / sd], rtol=1e-15)
    np.testing.assert_allclose(out[3, :, 1], [(-2 - mu) / sd, (4 - mu) / sd], rtol=1e-15)
    # validation rows are NOT mean 0 / std 1 under train statistics
    val = out[2:, :, 1]
    assert abs(val.mean()) > 0.1


def test_standardise_keeps_nan_and_mask_delta():
    X = np.zeros((1, 2, 4))
    X[0, :, 0] = [0, 1]
    X[0, :, 1] = [np.nan, 2.0]
    X[0, :, 2] = [1.0, 0.0]  # mask block
    X[0, :, 3] = [0.0, 1.0]  # delta block
    layout = ChannelLayout(
        (
            Channel("time", "time"),
            Channel("d0", "data"),
            Channel("mask_d0", "mask"),
            Channel("delta_d0", "delta"),
        )
    )
    stats = channel_stats(X[:, :, 1:2], np.array([2]))
    out = standardise(X, layout, stats)
    assert math.isnan(out[0, 0, 1])
    np.testing.assert_array_equal(out[0, :, 2], X[0, :, 2])
    np.testing.assert_array_equal(out[0, :, 3], X[0, :, 3])


def per_channel_standardise(X, layout, stats):
    """Reference: one channel at a time, skipping channels without training
    observations and treating a zero or undefined std as 1."""
    out = X.copy()
    for k, c in enumerate(layout.data_indices):
        if not stats.available[k]:
            continue
        sd = stats.std[k]
        if not np.isfinite(sd) or sd == 0.0:
            sd = 1.0
        out[:, :, c] = (out[:, :, c] - stats.mean[k]) / sd
    return out


def test_standardise_equals_per_channel_reference_bitwise():
    rng = np.random.RandomState(12)
    X = rng.randn(7, 9, 9) * 3 - 2
    X[rng.rand(*X.shape) < 0.3] = np.nan
    X[:, :, 3] = 4.0  # constant: std 0 acts as 1
    X[:4, :, 4] = np.nan  # never observed in training: passes through
    X[0, 0, 5] = -0.0
    layout = ChannelLayout(
        (Channel("time", "time"),)
        + tuple(Channel(f"d{i}", "data") for i in range(6))
        + (Channel("mask_d0", "mask"), Channel("delta_d0", "delta"))
    )
    stats = channel_stats(X[:4, :, 1:7], np.full(4, 9))
    stats.std[4] = np.nan  # observed, but an undefined std acts as 1
    assert stats.std[2] == 0.0 and not stats.available[3] and stats.available[4]
    want = per_channel_standardise(X, layout, stats)
    got = standardise(X, layout, stats)
    assert got.tobytes() == want.tobytes()
    in_place = X.copy()
    assert standardise_in_place(in_place, layout, stats) is None
    assert in_place.tobytes() == want.tobytes()


def test_layout_data_slice_covers_the_data_block():
    layout = ChannelLayout(
        (Channel("time", "time"), Channel("a", "data"), Channel("b", "data"),
         Channel("mask_a", "mask"))
    )
    assert layout.data_slice == slice(1, 3)
    assert ChannelLayout((Channel("a", "data"),)).data_slice == slice(0, 1)
    assert ChannelLayout((Channel("t", "time"),)).data_slice == slice(0, 0)


def test_layout_enforces_block_order():
    with pytest.raises(ValueError, match="ordered"):
        ChannelLayout((Channel("mask_x", "mask"), Channel("x", "data")))


def make_dataset(has_test=True, split="train"):
    n = 6
    X = np.arange(n * 2 * 1, dtype=float).reshape(n, 2, 1)
    y = np.arange(n, dtype=float).reshape(n, 1)
    lengths = np.full(n, 2, dtype=np.int64)
    codes = np.array([0, 0, 1, 1, 2, 2] if has_test else [0, 0, 0, 1, 1, 1], dtype=np.int8)
    stats = channel_stats(X, lengths)
    return Dataset(
        X_full=X,
        y_full=y,
        length_full=lengths,
        layout=ChannelLayout((Channel("d0", "data"),)),
        stats=stats,
        split_of_index=codes,
        split=split,
        has_test=has_test,
    )


def test_dataset_split_views():
    ds = make_dataset(split="val")
    assert ds.X.shape == (2, 2, 1)
    np.testing.assert_array_equal(ds.y, ds.y_val)
    np.testing.assert_array_equal(ds.X_train, ds.X_full[:2])
    np.testing.assert_array_equal(ds.length_test, [2, 2])
    assert ds.split_size("train") == 2
    assert ds.splits == ("train", "val", "test")


def test_dataset_without_test_split_raises():
    ds = make_dataset(has_test=False)
    with pytest.raises(ValueError, match="no test split"):
        _ = ds.X_test
    assert ds.splits == ("train", "val")


def test_dataset_unknown_split_rejected():
    ds = make_dataset()
    with pytest.raises(ValueError, match="unknown split"):
        ds.tensors("dev")


def test_channel_stats_on_ragged_train_segments_equals_the_padded_call_bitwise():
    """The real steps of the training rows, record after record, are the
    values the padded call reads in the same order: every statistic is
    bitwise equal, with a length-1 row and a row at the global maximum."""
    rng = np.random.RandomState(12)
    lengths = np.array([1, 17, 5, 17, 2, 9, 1, 13], dtype=np.int64)
    n, s, d = len(lengths), int(lengths.max()), 4
    X = np.full((n, s, d), np.nan)
    for i, L in enumerate(lengths):
        X[i, :L] = rng.randn(L, d) * 10.0 ** rng.randint(-3, 4, d)
    X[:, :, 2] = np.round(X[:, :, 2])  # a categorical channel with ties
    X[rng.rand(n, s, d) < 0.3] = np.nan
    X[:, :, 3] = np.nan  # a channel never observed
    train = np.array([0, 1, 3, 4, 6])
    ragged = np.concatenate([X[i, : lengths[i]] for i in train])
    assert ragged.shape == (lengths[train].sum(), d)
    want = channel_stats(X[train], lengths[train], categorical=[2])
    got = channel_stats(ragged, lengths[train], categorical=[2])
    for field in ("mean", "std", "mode", "count"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert want.count[3] == 0 and want.count[2] > 0

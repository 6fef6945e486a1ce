import numpy as np
import pytest

from tsprep.batching import Batch, batches, pack, sort_by_length, unpack
from tsprep.splits import rng_from_seed
from tsprep.tensor_core import Channel, ChannelLayout, Dataset, channel_stats


def make_dataset(n=10, s=6, c=2, seed=0, per_step_y=False):
    rng = np.random.RandomState(seed)
    lengths = rng.randint(1, s + 1, size=n).astype(np.int64)
    X = np.full((n, s, c), np.nan)
    for i, L in enumerate(lengths):
        X[i, :L, :] = rng.randn(L, c)
    if per_step_y:
        y = np.full((n, s), np.nan)
        for i, L in enumerate(lengths):
            y[i, :L] = rng.randint(0, 2, size=L)
    else:
        y = rng.randn(n, 3)
    codes = np.zeros(n, dtype=np.int8)
    codes[7:] = 1
    return Dataset(
        X_full=X,
        y_full=y,
        length_full=lengths,
        layout=ChannelLayout(tuple(Channel(f"d{i}", "data") for i in range(c))),
        stats=channel_stats(X, lengths),
        split_of_index=codes,
        split="train",
        has_test=False,
    )


def random_batch(rng, per_step_y=False, b=None):
    b = b or rng.randint(1, 8)
    s = rng.randint(1, 9)
    c = rng.randint(1, 4)
    lengths = rng.randint(1, s + 1, size=b).astype(np.int64)
    s = int(lengths.max())
    X = np.full((b, s, c), np.nan)
    for i, L in enumerate(lengths):
        X[i, :L, :] = rng.randn(L, c)
        # missing values inside the valid region must survive packing
        X[i, :L, :][rng.rand(L, c) < 0.2] = np.nan
    y = np.full((b, s), np.nan) if per_step_y else rng.randn(b, 2)
    if per_step_y:
        for i, L in enumerate(lengths):
            y[i, :L] = rng.randn(L)
    return Batch(X=X, y=y, length=lengths)


def test_batches_cover_split_in_order():
    ds = make_dataset()
    out = list(batches(ds, "train", 3))
    assert [b.n for b in out] == [3, 3, 1]
    X_cat = np.concatenate([b.X for b in out])
    np.testing.assert_array_equal(X_cat, ds.X_train)
    y_cat = np.concatenate([b.y for b in out])
    np.testing.assert_array_equal(y_cat, ds.y_train)


def test_batches_named_access():
    ds = make_dataset()
    batch = next(batches(ds, "val", 2))
    np.testing.assert_array_equal(batch["X"], batch.X)
    np.testing.assert_array_equal(batch["length"], batch.length)
    with pytest.raises(KeyError):
        batch["mask"]


def test_batches_sizes_42_into_32():
    ds = make_dataset(n=42)
    ds.split_of_index[:] = 0
    out = list(batches(ds, "train", 32))
    assert [b.n for b in out] == [32, 10]


def test_batch_size_covers_all():
    ds = make_dataset(n=5)
    ds.split_of_index[:] = 0
    out = list(batches(ds, "train", 99))
    assert len(out) == 1 and out[0].n == 5


def test_batches_shuffle_reproducible():
    ds = make_dataset()
    a = [b.length.tolist() for b in batches(ds, "train", 2, rng=rng_from_seed(5))]
    b = [b.length.tolist() for b in batches(ds, "train", 2, rng=rng_from_seed(5))]
    assert a == b
    plain = [b.length.tolist() for b in batches(ds, "train", 2)]
    flat = [v for chunk in a for v in chunk]
    assert sorted(flat) == sorted(v for chunk in plain for v in chunk)


def test_batches_errors():
    ds = make_dataset()
    with pytest.raises(ValueError, match="batch_size"):
        list(batches(ds, "train", 0))
    with pytest.raises(ValueError, match="unknown split"):
        list(batches(ds, "dev", 2))
    with pytest.raises(ValueError, match="no test split"):
        list(batches(ds, "test", 2))


def test_sort_by_length_basic():
    batch = Batch(
        X=np.arange(3 * 5 * 1, dtype=float).reshape(3, 5, 1),
        y=np.arange(3.0).reshape(3, 1),
        length=np.array([3, 5, 4]),
    )
    out = sort_by_length(batch)
    np.testing.assert_array_equal(out.length, [5, 4, 3])
    np.testing.assert_array_equal(out.y[:, 0], [1, 2, 0])  # permutation (1, 2, 0)


def test_sort_stable_for_ties():
    batch = Batch(
        X=np.zeros((3, 2, 1)), y=np.arange(3.0).reshape(3, 1), length=np.array([2, 2, 2])
    )
    out = sort_by_length(batch)
    np.testing.assert_array_equal(out.y[:, 0], [0, 1, 2])


def test_sort_is_permutation():
    rng = np.random.RandomState(3)
    for _ in range(20):
        batch = random_batch(rng)
        out = sort_by_length(batch)
        assert sorted(out.length.tolist()) == sorted(batch.length.tolist())
        assert np.array_equal(
            np.sort(out.X.ravel()), np.sort(batch.X.ravel()), equal_nan=True
        )


def test_pack_small_example():
    batch = Batch(
        X=np.array([[[1.0], [2.0]], [[3.0], [np.nan]]]),
        y=np.array([[0.0], [1.0]]),
        length=np.array([2, 1]),
    )
    packed = pack(batch)
    np.testing.assert_array_equal(packed.batch_sizes, [2, 1])
    assert packed.values.shape == (3, 1)
    np.testing.assert_array_equal(packed.values[:, 0], [1, 3, 2])
    np.testing.assert_array_equal(packed.sort_order, [0, 1])


def test_pack_equal_lengths():
    batch = Batch(X=np.ones((4, 3, 2)), y=np.ones((4, 1)), length=np.full(4, 3))
    packed = pack(batch)
    np.testing.assert_array_equal(packed.batch_sizes, [4, 4, 4])
    assert packed.values.shape == (12, 2)


def test_pack_rejects_zero_length():
    batch = Batch(X=np.ones((1, 2, 1)), y=np.ones((1, 1)), length=np.array([0]))
    with pytest.raises(ValueError, match="zero-length"):
        pack(batch)


@pytest.mark.parametrize("per_step_y", [False, True])
def test_roundtrip_equals_sorted_batch(per_step_y):
    rng = np.random.RandomState(17)
    for _ in range(200):
        batch = random_batch(rng, per_step_y=per_step_y)
        packed = pack(batch, per_step_y=per_step_y)
        assert packed.batch_sizes[0] == batch.n
        assert (np.diff(packed.batch_sizes) <= 0).all()
        assert packed.batch_sizes.sum() == batch.length.sum()
        restored = unpack(packed)
        expected = sort_by_length(batch)
        np.testing.assert_array_equal(restored.X, expected.X)
        np.testing.assert_array_equal(restored.length, expected.length)
        np.testing.assert_array_equal(restored.y, expected.y)


def test_per_step_y_is_packed():
    rng = np.random.RandomState(23)
    batch = random_batch(rng, per_step_y=True, b=4)
    packed = pack(batch)
    assert packed.y_per_step
    assert packed.y.shape == (int(batch.length.sum()),)


def _pack_reference(batch, per_step_y):
    """pack as a loop over time steps of the length-sorted batch."""
    order = np.argsort(-batch.length, kind="stable")
    X, y, lengths = batch.X[order], batch.y[order], batch.length[order]
    sizes = [int((lengths > t).sum()) for t in range(int(lengths[0]))]
    values = np.concatenate([X[:b, t, :] for t, b in enumerate(sizes)], axis=0)
    if per_step_y:
        y = np.concatenate([y[:b, t] for t, b in enumerate(sizes)], axis=0)
    return sizes, values, y, order


@pytest.mark.parametrize("per_step_y", [False, True])
def test_pack_equals_a_per_step_reference(per_step_y):
    rng = np.random.RandomState(29)
    for _ in range(100):
        batch = random_batch(rng, per_step_y=per_step_y)
        if rng.rand() < 0.5:  # steps beyond the longest sequence, as in a split's batch
            pad = np.full((batch.n, rng.randint(1, 4)), np.nan)
            batch.X = np.concatenate([batch.X, np.repeat(pad[:, :, None], batch.X.shape[2], 2)], 1)
            batch.y = np.concatenate([batch.y, pad], 1) if per_step_y else batch.y
        packed = pack(batch, per_step_y=per_step_y)
        sizes, values, y, order = _pack_reference(batch, per_step_y)
        assert packed.batch_sizes.dtype == np.int64 and packed.batch_sizes.tolist() == sizes
        assert (packed.values.shape, packed.values.dtype) == (values.shape, values.dtype)
        assert packed.values.tobytes() == values.tobytes()
        assert (packed.y.shape, packed.y.tobytes()) == (y.shape, y.tobytes())
        assert packed.sort_order.tolist() == order.tolist()

import numpy as np
import pytest
from test_splits import choose

from tsprep.splits import Xoshiro256StarStar, substream_seed
from tsprep.tensor_core import ChannelStats, channel_stats
from tsprep.transforms import (
    StampError,
    build_fill,
    impute,
    observational_mask,
    simulate_missing,
    time_delta,
)

# NaN pattern and values of the worked 5-step example with three data channels
LISTING_X = np.array(
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
LISTING_MASK = np.array(
    [[[0, 1, 1], [1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 1, 0]]], dtype=float
)
LISTING_DELTA = np.array(
    [[[0, 0, 0], [1, 1, 1], [1, 1, 2], [1, 1, 3], [2, 2, 1]]], dtype=float
)


def test_mask_golden_listing():
    mask = observational_mask(LISTING_X, np.array([5]))
    np.testing.assert_array_equal(mask, LISTING_MASK)


def test_delta_golden_listing():
    times = np.arange(5.0).reshape(1, 5)
    delta = time_delta(times, LISTING_MASK, np.array([5]))
    np.testing.assert_array_equal(delta, LISTING_DELTA)


def test_mask_fully_observed_and_all_missing():
    X = np.ones((1, 4, 2))
    np.testing.assert_array_equal(observational_mask(X, np.array([4])), np.ones((1, 4, 2)))
    X[0, :, 1] = np.nan
    mask = observational_mask(X, np.array([4]))
    np.testing.assert_array_equal(mask[0, :, 1], np.zeros(4))


def test_mask_padding_is_nan():
    X = np.ones((1, 5, 2))
    X[0, 3:] = np.nan
    mask = observational_mask(X, np.array([3]))
    assert np.isnan(mask[0, 3:, :]).all()
    np.testing.assert_array_equal(mask[0, :3, :], np.ones((3, 2)))


def test_delta_fully_observed_unit_spacing():
    mask = np.ones((1, 6, 2))
    delta = time_delta(np.arange(6.0).reshape(1, 6), mask, np.array([6]))
    np.testing.assert_array_equal(delta[0, 0], [0, 0])
    np.testing.assert_array_equal(delta[0, 1:], np.ones((5, 2)))


def brute_force_delta(times, mask):
    """Oracle: scan backwards for the last observed step of the channel."""
    L, m = mask.shape
    delta = np.zeros((L, m))
    for t in range(1, L):
        for c in range(m):
            prev = None
            for j in range(t - 1, -1, -1):
                if mask[j, c] == 1:
                    prev = times[j]
                    break
            delta[t, c] = times[t] - (prev if prev is not None else times[0])
    return delta


def test_delta_random_against_brute_force():
    rng = np.random.RandomState(5)
    times = np.array([0.0, 2.0, 3.0, 7.0, 8.0, 9.0])
    for _ in range(50):
        mask = (rng.rand(6, 2) < 0.5).astype(float)
        expected = brute_force_delta(times, mask)
        got = time_delta(times.reshape(1, 6), mask.reshape(1, 6, 2), np.array([6]))
        np.testing.assert_array_equal(got[0], expected)


def test_delta_padding_nan_and_time_errors():
    mask = np.ones((1, 4, 1))
    mask[0, 3] = np.nan
    delta = time_delta(np.array([[0.0, 1, 2, np.nan]]), mask, np.array([3]))
    assert np.isnan(delta[0, 3, 0])
    with pytest.raises(ValueError, match="strictly increasing"):
        time_delta(np.array([[0.0, 2.0, 2.0]]), np.ones((1, 3, 1)), np.array([3]))


# -------------------------------------------------------------- simulation


def master(n=4, s=10, d=3, seed=0):
    rng = np.random.RandomState(seed)
    lengths = rng.randint(4, s + 1, size=n)
    X = np.full((n, s, d + 1), np.nan)
    for i, L in enumerate(lengths):
        X[i, :L, 0] = np.arange(L)
        X[i, :L, 1:] = rng.rand(L, d) + 1.0
    return X, lengths.astype(np.int64)


def test_simulate_zero_is_identity():
    X, lengths = master()
    out = simulate_missing(X, lengths, 0.0, seed=1)
    np.testing.assert_array_equal(out, X)


def test_simulate_scalar_counts_and_all_or_nothing():
    X, lengths = master(n=6, s=20)
    for p in (0.2, 0.5, 0.8):
        out = simulate_missing(X, lengths, p, seed=3)
        for i, L in enumerate(lengths):
            rows = out[i, :L, 1:]
            nan_rows = np.isnan(rows).all(axis=1)
            some_nan = np.isnan(rows).any(axis=1)
            np.testing.assert_array_equal(nan_rows, some_nan)  # all-or-nothing
            assert nan_rows.sum() == int(np.floor(p * L + 0.5))
            np.testing.assert_array_equal(out[i, :L, 0], X[i, :L, 0])  # time kept


def test_simulate_per_channel_counts():
    X, lengths = master(n=5, s=30, d=3)
    props = [0.8, 0.2, 0.5]
    out = simulate_missing(X, lengths, props, seed=9)
    for i, L in enumerate(lengths):
        for c, p in enumerate(props):
            nan_count = np.isnan(out[i, :L, 1 + c]).sum()
            assert nan_count == int(np.floor(p * L + 0.5))


def test_simulate_padding_untouched():
    X, lengths = master()
    out = simulate_missing(X, lengths, 0.5, seed=2)
    for i, L in enumerate(lengths):
        assert np.isnan(out[i, L:, :]).all()


def test_simulate_deterministic_per_sequence():
    X, lengths = master()
    a = simulate_missing(X, lengths, [0.3, 0.6, 0.1], seed=7)
    b = simulate_missing(X, lengths, [0.3, 0.6, 0.1], seed=7)
    np.testing.assert_array_equal(a, b)
    c = simulate_missing(X, lengths, [0.3, 0.6, 0.1], seed=8)
    assert not np.array_equal(a, c, equal_nan=True)


def reference_simulation(X, lengths, missing, seed):
    """Per-sequence loop over the scalar generator: the specification the
    simulation must reproduce byte for byte."""
    per_channel = not np.isscalar(missing)
    props = list(missing) if per_channel else [missing]
    out = X.copy()
    for i, L in enumerate(int(L) for L in lengths):
        rng = Xoshiro256StarStar(substream_seed(seed, i))
        for ch, p in enumerate(props):
            k = int(np.floor(p * L + 0.5))
            cols = slice(1 + ch, 2 + ch) if per_channel else slice(1, None)
            out[i, choose(rng, L, k), cols] = np.nan
    return out


@pytest.mark.parametrize("missing", [0.4, [0.7, 0.0, 1.0, 0.25]])
@pytest.mark.parametrize("seed", [17, 2**64 - 1])
def test_simulate_known_answer_unequal_lengths(missing, seed):
    X, lengths = master(n=7, s=25, d=4, seed=4)
    assert len(set(lengths.tolist())) > 1
    out = simulate_missing(X, lengths, missing, seed=seed)
    assert out.tobytes() == reference_simulation(X, lengths, missing, seed).tobytes()


def test_simulate_matches_reference_on_random_inputs():
    rng = np.random.RandomState(11)
    for trial in range(6):
        n, s, d = rng.randint(1, 40), rng.randint(1, 50), rng.randint(1, 4)
        lengths = rng.randint(0, s + 1, size=n).astype(np.int64)
        X = np.full((n, s, d + 1), np.nan)
        for i, L in enumerate(lengths):
            X[i, :L, 0] = np.arange(L)
            X[i, :L, 1:] = rng.rand(L, d)
        missing = rng.rand() if trial % 2 else [float(p) for p in rng.rand(d)]
        seed = int(rng.randint(0, 2**31))
        out = simulate_missing(X, lengths, missing, seed=seed)
        assert out.tobytes() == reference_simulation(X, lengths, missing, seed).tobytes()


def test_simulate_validation_errors():
    X, lengths = master()
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        simulate_missing(X, lengths, 1.2, seed=0)
    with pytest.raises(ValueError, match="3 data channels"):
        simulate_missing(X, lengths, [0.5, 0.5], seed=0)


# -------------------------------------------------------------- imputation


def stats_for(X, lengths, categorical=()):
    return channel_stats(X, lengths, categorical=categorical)


def test_forward_fill_worked_example():
    # channel (NaN, 2, NaN, 3) with training mean 5 -> (5, 2, 2, 3)
    X = np.array([[[np.nan], [2.0], [np.nan], [3.0]]])
    lengths = np.array([4])
    fill = np.array([5.0])
    out, _ = impute(X, np.zeros((1, 1)), lengths, np.array([0]), "forward", fill)
    np.testing.assert_array_equal(out[0, :, 0], [5, 2, 2, 3])


def test_zero_imputation():
    X = np.array([[[np.nan], [7.0]]])
    out, _ = impute(X, np.zeros((1, 1)), np.array([2]), np.array([0]), "zero", np.zeros(1))
    np.testing.assert_array_equal(out[0, :, 0], [0, 7])


def test_mean_with_override():
    X = np.array([[[np.nan, np.nan], [2.0, 8.0]]])
    stats = stats_for(X, np.array([2]))
    fill = build_fill(stats, "mean", channel_means={1: 4.5})
    out, _ = impute(X, np.zeros((1, 1)), np.array([2]), np.array([0, 1]), "mean", fill)
    assert out[0, 0, 0] == 2.0  # computed mean
    assert out[0, 0, 1] == 4.5  # override wins over computed mean 8.0


def test_categorical_mode_fill():
    X = np.array([[[0.0], [0.0], [1.0], [np.nan]]])
    stats = stats_for(X, np.array([4]), categorical=[0])
    fill = build_fill(stats, "mean", categorical=[0])
    out, _ = impute(X, np.zeros((1, 1)), np.array([4]), np.array([0]), "mean", fill)
    assert out[0, 3, 0] == 0.0


def test_fill_unavailable_channel_requires_override():
    X = np.full((1, 3, 1), np.nan)
    stats = stats_for(X, np.array([3]))
    with pytest.raises(ValueError, match="no training observations"):
        build_fill(stats, "mean")
    fill = build_fill(stats, "mean", channel_means={0: 9.0})
    assert fill[0] == 9.0
    # zero imputation needs no statistics at all
    np.testing.assert_array_equal(build_fill(stats, "zero"), [0.0])


def test_fill_index_validation():
    stats = stats_for(np.ones((1, 2, 2)), np.array([2]))
    with pytest.raises(ValueError, match="channel_means index"):
        build_fill(stats, "mean", channel_means={5: 1.0})
    with pytest.raises(ValueError, match="categorical index"):
        build_fill(stats, "mean", categorical=[-1])


def test_impute_leaves_padding_and_other_channels():
    X = np.full((1, 4, 3), np.nan)
    X[0, :2, 0] = [0, 1]  # time
    X[0, :2, 1] = [np.nan, 2.0]  # data
    X[0, :2, 2] = [0.0, 1.0]  # mask
    out, _ = impute(X, np.zeros((1, 1)), np.array([2]), np.array([1]), "zero", np.zeros(1))
    assert np.isnan(out[0, 2:, :]).all()  # padding
    np.testing.assert_array_equal(out[0, :2, 2], [0.0, 1.0])  # mask untouched
    np.testing.assert_array_equal(out[0, :2, 0], [0.0, 1.0])  # time untouched
    np.testing.assert_array_equal(out[0, :2, 1], [0.0, 2.0])


def random_case(rng):
    n = rng.randint(1, 4)
    s = rng.randint(2, 8)
    d = rng.randint(1, 4)
    lengths = rng.randint(1, s + 1, size=n).astype(np.int64)
    X = np.full((n, s, d), np.nan)
    for i, L in enumerate(lengths):
        block = rng.randn(L, d)
        block[rng.rand(L, d) < 0.4] = np.nan
        X[i, :L, :] = block
    return X, lengths


def backward_scan_forward_fill(row, fill):
    """Oracle for forward imputation: last observation at or before t."""
    L, d = row.shape
    out = row.copy()
    for c in range(d):
        for t in range(L):
            if np.isnan(out[t, c]):
                prev = fill[c]
                for j in range(t - 1, -1, -1):
                    if not np.isnan(row[j, c]):
                        prev = row[j, c]
                        break
                out[t, c] = prev
    return out


def test_forward_matches_backward_scan_oracle():
    rng = np.random.RandomState(21)
    for _ in range(100):
        X, lengths = random_case(rng)
        d = X.shape[2]
        fill = rng.randn(d)
        out, _ = impute(
            X, np.zeros((X.shape[0], 1)), lengths, np.arange(d), "forward", fill
        )
        for i, L in enumerate(lengths):
            expected = backward_scan_forward_fill(X[i, :L, :], fill)
            np.testing.assert_array_equal(out[i, :L, :], expected)


@pytest.mark.parametrize("method", ["zero", "mean", "forward"])
def test_impute_idempotent_and_online_safe(method):
    rng = np.random.RandomState(31)
    for _ in range(50):
        X, lengths = random_case(rng)
        d = X.shape[2]
        fill = rng.randn(d)
        y = np.zeros((X.shape[0], 1))
        once, _ = impute(X, y, lengths, np.arange(d), method, fill)
        assert not np.isnan(once[np.arange(X.shape[1])[None, :] < lengths[:, None]]).any()
        twice, _ = impute(once, y, lengths, np.arange(d), method, fill)
        np.testing.assert_array_equal(once, twice)
        # online safety: imputing a prefix equals the prefix of the imputation
        for i, L in enumerate(lengths):
            for k in range(1, int(L) + 1):
                prefix = X[i : i + 1, :k, :]
                out_prefix, _ = impute(
                    prefix, y[i : i + 1], np.array([k]), np.arange(d), method, fill
                )
                np.testing.assert_array_equal(out_prefix[0], once[i, :k, :])


def test_custom_imputation_contract():
    X = np.array([[[np.nan], [1.0]]])
    y = np.array([[1.0]])

    def custom(X_in, y_in, fill, select):
        X_in[np.isnan(X_in)] = -99.0
        return X_in, y_in

    out, y_out = impute(X, y, np.array([2]), np.array([0]), custom, np.zeros(1))
    assert out[0, 0, 0] == -99.0
    np.testing.assert_array_equal(y_out, y)

    def bad(X_in, y_in, fill, select):
        return X_in[:, :1, :], y_in

    with pytest.raises(ValueError, match="shapes"):
        impute(X, y, np.array([2]), np.array([0]), bad, np.zeros(1))


def test_impute_none_passthrough():
    X = np.array([[[np.nan]]])
    out, _ = impute(X, np.zeros((1, 1)), np.array([1]), np.array([0]), "none", np.zeros(1))
    assert out is X


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown imputation"):
        impute(
            np.zeros((1, 1, 1)),
            np.zeros((1, 1)),
            np.array([1]),
            np.array([0]),
            "median",
            np.zeros(1),
        )


# ------------------------------------------- known answers for the index kernels


def reference_time_delta(times, mask, lengths):
    """The delta as first written: a -1 sentinel for "not observed yet", a
    stacked sentinel row for "strictly before", a clip and a second where."""
    n, s, m = mask.shape
    out = np.empty((n, s, m))
    for i in range(n):
        L = int(lengths[i])
        out[i, L:, :] = np.nan
        if L == 0:
            continue
        t = times[i, :L]
        observed = mask[i, :L, :] == 1.0
        steps = np.arange(L)[:, None]
        last = np.maximum.accumulate(np.where(observed, steps, -1), axis=0)
        prev = np.vstack([np.full((1, m), -1), last[:-1]])
        prev_time = np.where(prev >= 0, t[np.clip(prev, 0, None)], t[0])
        out[i, :L, :] = t[:, None] - prev_time
        out[i, 0, :] = 0.0
    return out


def reference_forward_fill(block, fill):
    """Forward fill as first written, with a -1 sentinel and a clip."""
    L, d = block.shape
    observed = ~np.isnan(block)
    steps = np.arange(L)[:, None]
    last = np.maximum.accumulate(np.where(observed, steps, -1), axis=0)
    gathered = np.take_along_axis(block, np.clip(last, 0, None), axis=0)
    return np.where(last >= 0, gathered, fill[None, :])


def index_kernel_case(seed, n=7, s=9, d=4):
    """Unequal lengths with a length-1 sequence, an all-missing channel, a
    channel observed only at step 0 and irregular increasing stamps."""
    rng = np.random.RandomState(seed)
    lengths = rng.randint(1, s + 1, size=n).astype(np.int64)
    lengths[0], lengths[1] = 1, s
    X = np.full((n, s, d), np.nan)
    times = np.full((n, s), np.nan)
    for i, L in enumerate(lengths):
        block = rng.randn(L, d)
        block[rng.rand(L, d) < 0.45] = np.nan
        block[:, 0] = np.nan  # never observed
        block[:, 1] = np.nan
        block[0, 1] = rng.randn()  # observed only at step 0
        X[i, :L] = block
        times[i, :L] = np.cumsum(rng.rand(L) + 0.25)
    return X, times, lengths


def same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_time_delta_known_answer(seed):
    X, times, lengths = index_kernel_case(seed)
    mask = observational_mask(X, lengths)
    want = reference_time_delta(times, mask, lengths)
    same_bytes(time_delta(times, mask, lengths), want)
    # the delta-only path passes a boolean mask, written into a channel slice
    out = np.zeros(mask.shape[:2] + (mask.shape[2] + 2,))
    time_delta(times, ~np.isnan(X), lengths, out=out[:, :, 1:-1])
    same_bytes(np.ascontiguousarray(out[:, :, 1:-1]), want)
    same_bytes(reference_time_delta(times, ~np.isnan(X), lengths), want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("nan_fill", [False, True])
def test_forward_fill_known_answer(seed, nan_fill):
    X, _, lengths = index_kernel_case(seed)
    d = X.shape[2]
    fill = np.random.RandomState(seed).randn(d)
    if nan_fill:
        fill[2] = np.nan
    want = X.copy()
    for i, L in enumerate(lengths):
        want[i, :L] = reference_forward_fill(X[i, :L], fill)
    got, _ = impute(X, np.zeros((len(X), 1)), lengths, np.arange(d), "forward", fill)
    same_bytes(got, want)


def edge_case(seed, n=12, s=8, d=5):
    """Ragged rows with length-1 sequences first, last and between others, a
    channel never observed, one observed only at each sequence's last step,
    one observed only at its first, and first steps left unobserved; stamps
    restart in every sequence."""
    rng = np.random.RandomState(seed)
    lengths = rng.randint(1, s + 1, size=n).astype(np.int64)
    lengths[[0, n // 2, n - 1]] = 1
    X = np.full((n, s, d), np.nan)
    times = np.full((n, s), np.nan)
    for i, L in enumerate(lengths):
        block = rng.randn(L, d)
        block[rng.rand(L, d) < 0.5] = np.nan
        block[0, 3:] = np.nan  # first step unobserved
        block[:, 0] = np.nan  # never observed
        block[:, 1] = np.nan
        block[L - 1, 1] = rng.randn()  # observed only at the last step
        block[1:, 2] = np.nan  # observed only at the first step
        X[i, :L] = block
        times[i, :L] = np.cumsum(rng.rand(L) + 0.25) - 3.0
    return X, times, lengths


@pytest.mark.parametrize("seed", range(8))
def test_kernel_edge_cases_match_the_references(seed):
    """The loop-free delta and forward fill equal the per-sequence references
    bitwise, on ragged rows as on the padded form."""
    X, times, lengths = edge_case(seed)
    real = np.arange(X.shape[1])[None, :] < lengths[:, None]
    mask = observational_mask(X, lengths)
    want_delta = reference_time_delta(times, mask, lengths)
    same_bytes(time_delta(times, mask, lengths), want_delta)
    same_bytes(time_delta(times[real], mask[real], lengths), want_delta[real])
    same_bytes(time_delta(times[real], ~np.isnan(X[real]), lengths), want_delta[real])

    fill = np.random.RandomState(seed).randn(X.shape[2])
    want_filled = X.copy()
    for i, L in enumerate(lengths):
        want_filled[i, :L] = reference_forward_fill(X[i, :L], fill)
    columns = np.arange(X.shape[2])
    got, _ = impute(X, np.zeros((len(X), 1)), lengths, columns, "forward", fill)
    same_bytes(got, want_filled)
    got, _ = impute(X[real], np.zeros((len(X), 1)), lengths, columns, "forward", fill)
    same_bytes(got, want_filled[real])


def first_bad_sequence(times, lengths):
    """The per-sequence check as first written: NaN or a step that does not rise."""
    for i, L in enumerate(lengths):
        t = times[i, :L]
        if np.isnan(t).any() or (np.diff(t) <= 0).any():
            return i
    return None


@pytest.mark.parametrize("seed", range(40))
def test_bad_stamps_name_the_first_bad_sequence(seed):
    X, times, lengths = edge_case(seed)
    rng = np.random.RandomState(1000 + seed)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(len(lengths))
        t = rng.randint(lengths[i])
        if rng.rand() < 0.4:
            times[i, t] = np.nan  # also a length-1 sequence's only stamp
        elif t > 0:
            times[i, t] = times[i, t - 1] - rng.choice([0.0, 0.5])  # equal or falling
        else:
            times[i, 0] = np.nan if lengths[i] == 1 else times[i, 1]
    want = first_bad_sequence(times, lengths)
    assert want is not None
    real = np.arange(X.shape[1])[None, :] < lengths[:, None]
    mask = observational_mask(X, lengths)
    for stamps, marks in ((times, mask), (times[real], mask[real])):
        with pytest.raises(StampError, match=rf"^sequence {want}: time stamps must be strictly increasing$"):
            time_delta(stamps, marks, lengths)

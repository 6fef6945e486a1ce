"""Missing-data simulation, observational masks, time deltas and imputation.

Each transform works on the real steps of a dataset, record after record
(the rows of a :class:`~tsprep.tensor_core.Ragged`, ``(sum of lengths,
c)``), cut into sequences by ``lengths``. Each also accepts the padded
``(n, s, c)`` form, whose real steps (:func:`~tsprep.tensor_core.real_steps`)
it transforms the same way.

No transform looks past the sequences it is given, so any row block of
whole sequences can be transformed on its own: the pipeline calls the mask,
delta and built-in imputation one block at a time. Time deltas and forward
fill have no loop over sequences; both read one index per row and channel,
``_last_observed``: the last observed row at or before it within its
sequence, a running maximum over the flat rows floored at each sequence's
first row. It is taken one channel at a time, so its integer temporaries
are 1-D.

Conventions shared by every transform here:

* the padding region (``t >= length[i]``) of a padded array is NaN on the
  way in and NaN on the way out, for masks and deltas too;
* masks and deltas describe missingness *before* imputation and are never
  modified by it;
* imputation at time ``t`` uses only observations at times ``<= t`` plus
  training statistics, so models trained for online prediction see no
  future leakage.
"""

import os
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from tsprep.splits import XoshiroLanes, substream_seed
from tsprep.tensor_core import ChannelStats, channel_slices, real_steps
from tsprep.util import round_half_up

MissingSpec = Union[float, Sequence[float]]

IMPUTE_METHODS = ("none", "zero", "mean", "forward")


def simulate_missing(
    X: np.ndarray,
    lengths: np.ndarray,
    missing: MissingSpec,
    seed: Optional[int],
) -> np.ndarray:
    """Drop observations at random from the data channels of a master array.

    ``X`` is the master's real steps ``(sum of lengths, 1 + d)``, or its
    padded ``(n, s, 1 + d)`` form, with the time stamp in channel 0; only
    channels 1..d of real steps are touched. A scalar proportion ``p``
    drops ``round(p * length)`` whole time points per sequence (every data
    channel at once); a per-channel list drops ``round(p_c * length)``
    entries independently per channel.

    Each sequence uses its own substream derived from ``(seed, i)``, so
    results do not depend on execution order. A None seed draws fresh OS
    entropy (irreproducible by design).
    """
    d = X.shape[-1] - 1
    per_channel = not np.isscalar(missing)
    if per_channel:
        props = [float(p) for p in missing]
        if len(props) != d:
            raise ValueError(f"missing list has {len(props)} entries for {d} data channels")
    else:
        props = [float(missing)]
    if any(not 0.0 <= p <= 1.0 for p in props):
        raise ValueError("missing proportions must be in [0, 1]")

    if seed is None:
        seed = int.from_bytes(os.urandom(8), "little")

    # One generator lane per sequence, all advanced together: draw t of the
    # partial Fisher-Yates is one array step over the sequences that still
    # need a t-th draw. Each lane consumes its stream in the scalar order
    # (channel 0's draws, then channel 1's, ...), so sequence i drops exactly
    # the first k slots of a scalar partial Fisher-Yates over range(L) drawn
    # with Xoshiro256StarStar(substream_seed(seed, i)).randbelow, the loop
    # that the tests keep as the reference.
    lengths = np.asarray(lengths, dtype=np.int64)
    n, s = len(lengths), int(lengths.max(initial=0))
    # the row of X that holds step 0 of each sequence (padded: every s rows)
    lane_start = np.arange(n) * X.shape[1] if X.ndim == 3 else np.cumsum(lengths) - lengths
    lanes = XoshiroLanes([substream_seed(seed, i) for i in range(n)])
    distinct, length_of = np.unique(lengths, return_inverse=True)
    out = X.copy()
    rows_out = out.reshape(-1, d + 1)
    for ch, p in enumerate(props):
        k = np.array([round_half_up(p * int(L)) for L in distinct], dtype=np.int64)[length_of]
        # pool[t, i] is slot t of sequence i's index pool, in the smallest
        # signed type that holds every position; swaps go through the flat
        # view, where it sits at t * n + i
        pool = np.empty((s, n), dtype=np.min_scalar_type(-s))
        pool[:] = np.arange(s)[:, None]
        flat = pool.reshape(-1)
        k_max = int(k.max(initial=0))
        for t in range(k_max):
            active = k > t
            rows = np.flatnonzero(active)
            j = lanes.randbelow(lengths - t, active)[rows].astype(np.int64) + t
            here = t * n + rows
            there = j * n + rows
            held = flat[here]
            flat[here] = flat[there]
            flat[there] = held
        dropped = np.zeros(len(rows_out), dtype=bool)
        dropped[(pool[:k_max] + lane_start)[np.arange(k_max)[:, None] < k]] = True
        target = 1 + ch if per_channel else slice(1, None)
        rows_out[:, target][dropped] = np.nan
    return out


def observational_mask(
    X: np.ndarray, lengths: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Mask channels for a block of source channels: 1.0 where a value was
    recorded, 0.0 where missing, NaN in the padding region of a padded
    ``X``.

    ``out``, an array of ``X``'s shape (such as a channel slice of a larger
    output), receives the mask in place of a new array.
    """
    if out is None:
        out = np.empty(np.shape(X))
    elif out.shape != np.shape(X):
        raise ValueError(f"out has shape {out.shape}, expected {np.shape(X)}")
    for part in channel_slices(out.shape[-1]):
        np.isnan(X[..., part], out=out[..., part])  # 1.0 where missing
        np.subtract(1.0, out[..., part], out=out[..., part])
    if out.ndim == 3:
        out[~real_steps(lengths, out.shape[1])] = np.nan
    return out


class StampError(ValueError):
    """The time stamps of sequence ``sequence`` are not strictly increasing
    (or one is NaN)."""

    def __init__(self, sequence: int) -> None:
        super().__init__(f"sequence {sequence}: time stamps must be strictly increasing")
        self.sequence = sequence


def _starts(lengths: np.ndarray) -> np.ndarray:
    """The first row of each sequence that has one."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return (np.cumsum(lengths) - lengths)[lengths > 0]


def _last_observed(observed: np.ndarray, starts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each row of one channel, the last row at or before it within its
    sequence that is ``observed``, counting a sequence's first row as
    observed: a running maximum of the observed row numbers (``rows``, the
    numbers ``0, 1, ...``) over the flat rows, floored at each first row,
    which no earlier row can exceed."""
    last = rows * observed
    last[starts] = starts
    return np.maximum.accumulate(last, out=last)


def _check_stamps(times: np.ndarray, lengths: np.ndarray, starts: np.ndarray) -> None:
    """Raise :class:`StampError` for the first sequence whose stamps are NaN
    or not strictly increasing."""
    rising = np.empty(len(times), dtype=bool)
    np.greater(times[1:], times[:-1], out=rising[1:])  # False where either is NaN
    rising[starts] = ~np.isnan(times[starts])  # a first stamp has none before it
    if not rising.all():
        row = int(np.argmin(rising))
        raise StampError(int(np.searchsorted(np.cumsum(lengths), row, side="right")))


def time_delta(
    times: np.ndarray, mask: np.ndarray, lengths: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Time since each channel was last observed.

    ``times`` holds the stamps of the real steps ``(sum of lengths,)`` and
    ``mask`` their observational mask ``(sum of lengths, m)`` (or any array
    that is 1 or True where observed); padded ``(n, s)`` stamps and an
    ``(n, s, m)`` mask are accepted too, and their padding stays NaN. Step 0
    of a sequence is zero by definition; a missing step accumulates:
    delta[t] = times[t] - times[prev], where ``prev`` is the last observed
    step before ``t``, or 0 if none (:func:`_last_observed` at ``t - 1``).
    ``out``, an array of ``mask``'s shape, receives the deltas in place of a
    new array. Stamps that are NaN or not strictly increasing within a
    sequence raise :class:`StampError` naming the first such sequence.
    """
    if out is None:
        out = np.empty(mask.shape)
    elif out.shape != mask.shape:
        raise ValueError(f"out has shape {out.shape}, expected {mask.shape}")
    if mask.ndim == 3:
        valid = real_steps(lengths, mask.shape[1])
        out[valid] = time_delta(times[valid], mask[valid], lengths)
        out[~valid] = np.nan
        return out
    starts = _starts(lengths)
    _check_stamps(times, lengths, starts)
    rows = np.arange(len(times))
    observed = mask if mask.dtype == bool else mask == 1.0
    for c in range(mask.shape[1]):
        prev = _last_observed(observed[:, c], starts, rows)[:-1]
        np.subtract(times[1:], times[prev], out=out[1:, c])
        out[starts, c] = 0.0
    return out


def build_fill(
    stats: ChannelStats,
    method: Union[str, Callable],
    categorical: Sequence[int] = (),
    channel_means: Optional[Mapping[int, float]] = None,
) -> np.ndarray:
    """Per-data-channel fill values for imputation.

    Mean and forward imputation fill from the training channel mean, or the
    training mode for categorical channels; ``channel_means`` entries
    (0-based into the data block) override either. Zero imputation always
    fills zero. A channel that was never observed in training and has no
    override is an error for mean/forward.
    """
    d = len(stats.mean)
    overrides = dict(channel_means or {})
    for idx in overrides:
        if not 0 <= idx < d:
            raise ValueError(f"channel_means index {idx} outside data channels 0..{d - 1}")
    for idx in categorical:
        if not 0 <= idx < d:
            raise ValueError(f"categorical index {idx} outside data channels 0..{d - 1}")
    if method == "zero":
        return np.zeros(d)
    fill = stats.mean.copy()
    for idx in categorical:
        fill[idx] = stats.mode[idx]
    for idx, value in overrides.items():
        fill[idx] = float(value)
    if method in ("mean", "forward"):
        bad = [i for i in range(d) if not stats.available[i] and i not in overrides]
        if bad:
            raise ValueError(
                f"channels {bad} have no training observations and no channel_means override"
            )
    return fill


def impute(
    X: np.ndarray,
    y: np.ndarray,
    lengths: np.ndarray,
    data_indices: np.ndarray,
    method: Union[str, Callable],
    fill: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace missing values in the data channels of ``X``.

    ``method`` is "none", "zero", "mean", "forward" or a callable invoked as
    ``method(X, y, fill, select)`` that must return ``(X, y)`` with shapes
    preserved. Built-in methods leave ``y`` and the mask/delta/time channels
    untouched and never write into the padding region. The inputs are not
    modified.
    """
    if method == "none":
        return X, y
    if callable(method):
        X_new, y_new = method(X.copy(), y.copy(), fill.copy(), data_indices.copy())
        X_new, y_new = np.asarray(X_new, dtype=np.float64), np.asarray(y_new)
        if X_new.shape != X.shape or y_new.shape != y.shape:
            raise ValueError("custom imputation changed tensor shapes")
        return X_new, y_new
    out = X.copy()
    impute_in_place(out, lengths, data_indices, method, fill)
    return out, y


def impute_in_place(
    X: np.ndarray,
    lengths: np.ndarray,
    columns: Union[slice, np.ndarray],
    method: str,
    fill: np.ndarray,
) -> None:
    """Fill the gaps of the data channels ``columns`` of ``X`` (real steps,
    or a padded array whose padding is left as it is) with a built-in
    method, overwriting ``X``.

    Each sequence is filled from its own steps and ``fill`` alone, so
    filling all rows at once equals filling any partition of them
    separately. Forward fill carries each channel's last observation
    forward (:func:`_last_observed`); the gaps before a sequence's first
    observation then take the fill value, as mean and zero fill every gap.
    """
    if method not in ("zero", "mean", "forward"):
        raise ValueError(f"unknown imputation method {method!r}")
    if X.ndim == 3:
        valid = real_steps(lengths, X.shape[1])
        steps = X[valid]
        impute_in_place(steps, lengths, columns, method, fill)
        X[valid] = steps
        return
    if method == "forward":
        starts, rows = _starts(lengths), np.arange(len(X))
    for value, c in zip(fill, np.arange(X.shape[1])[columns], strict=True):
        column = X[:, c]
        gap = np.isnan(column)
        if method == "forward":
            last = _last_observed(~gap, starts, rows)
            column[:] = column[last]
            gap = gap[last]  # a gap before the first observation of its sequence
        np.copyto(column, value, where=gap)

"""Missing-data simulation, observational masks, time deltas and imputation.

Conventions shared by every transform here:

* the padding region (``t >= length[i]``) is NaN on the way in and NaN on
  the way out, for masks and deltas too;
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
from tsprep.tensor_core import ChannelStats
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

    ``X`` is the ``(n, s, 1 + d)`` master tensor with the time stamp in
    channel 0; only channels 1..d are touched. A scalar proportion ``p``
    drops ``round(p * length)`` whole time points per sequence (every data
    channel at once); a per-channel list drops ``round(p_c * length)``
    entries independently per channel.

    Each sequence uses its own substream derived from ``(seed, i)``, so
    results do not depend on execution order. A None seed draws fresh OS
    entropy (irreproducible by design).
    """
    n, s, c = X.shape
    d = c - 1
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
    # the positions of Xoshiro256StarStar(substream_seed(seed, i)).choose(L, k).
    lengths = np.asarray(lengths, dtype=np.int64)
    lanes = XoshiroLanes([substream_seed(seed, i) for i in range(n)])
    distinct, length_of = np.unique(lengths, return_inverse=True)
    lane_start = np.arange(n) * s
    out = X.copy()
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
        dropped = np.zeros(n * s, dtype=bool)
        dropped[(pool[:k_max] + lane_start)[np.arange(k_max)[:, None] < k]] = True
        target = 1 + ch if per_channel else slice(1, None)
        out[:, :, target][dropped.reshape(n, s)] = np.nan
    return out


def observational_mask(X: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mask channels for a block of source channels: 1.0 where a value was
    recorded, 0.0 where missing, NaN in the padding region."""
    mask = np.where(np.isnan(X), 0.0, 1.0)
    for i, L in enumerate(lengths):
        mask[i, int(L):, :] = np.nan
    return mask


def time_delta(times: np.ndarray, mask: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Time since each channel was last observed.

    ``times`` is the ``(n, s)`` stamp array and ``mask`` the ``(n, s, m)``
    observational mask. Row 0 is zero by definition; a missing step
    accumulates: delta[t] = times[t] - times[last step < t with mask 1],
    falling back to times[0] when the channel has not been observed yet.
    Padding stays NaN.
    """
    n, s, m = mask.shape
    delta = np.full((n, s, m), np.nan)
    for i in range(n):
        L = int(lengths[i])
        if L == 0:
            continue
        t = times[i, :L]
        if np.isnan(t).any() or (np.diff(t) <= 0).any():
            raise ValueError(f"sequence {i}: time stamps must be strictly increasing")
        observed = mask[i, :L, :] == 1.0
        steps = np.arange(L)[:, None]
        # index of the most recent observation at or before each step
        last = np.maximum.accumulate(np.where(observed, steps, -1), axis=0)
        prev = np.vstack([np.full((1, m), -1), last[:-1]])  # strictly before t
        prev_time = np.where(prev >= 0, t[np.clip(prev, 0, None)], t[0])
        delta[i, :L, :] = t[:, None] - prev_time
        delta[i, 0, :] = 0.0
    return delta


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


def _forward_fill(block: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Carry the previous observation forward along axis 0; initial gaps take
    the per-channel fill value."""
    L, d = block.shape
    observed = ~np.isnan(block)
    steps = np.arange(L)[:, None]
    last = np.maximum.accumulate(np.where(observed, steps, -1), axis=0)
    gathered = np.take_along_axis(block, np.clip(last, 0, None), axis=0)
    return np.where(last >= 0, gathered, fill[None, :])


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
    """Fill the gaps of ``X[:, :, columns]`` with a built-in method,
    overwriting ``X``.

    Each sequence is filled from its own valid region and ``fill`` alone, so
    filling all rows at once equals filling any partition of them
    separately.
    """
    if method not in ("zero", "mean", "forward"):
        raise ValueError(f"unknown imputation method {method!r}")
    for i in range(X.shape[0]):
        sub = X[i, : int(lengths[i])]
        block = sub[:, columns]
        if method == "forward":
            sub[:, columns] = _forward_fill(block, fill)
        else:
            sub[:, columns] = np.where(np.isnan(block), fill[None, :], block)

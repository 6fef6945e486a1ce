"""Padded ``(n, s, c)`` data model, channel layout, training statistics and
standardisation.

Everything downstream of parsing works on one convention: a float64 array of
shape ``(n, s, c)`` where entry ``[i, t, :]`` is NaN for every ``t >=
length[i]`` (padding), and NaN inside the valid region means a missing
observation. All transforms preserve that invariant.

The array is large and memory traffic dominates its cost, so the pipeline
avoids whole-array copies: step 4 fills one preallocated output, channel
blocks are contiguous (``data_slice`` is a view), ``standardise_in_place``
overwrites the array the pipeline owns, and ``Dataset.split_rows`` lets
consumers gather rows without copying a split. The writers
(:mod:`tsprep.export`) and ``batching.batches`` gather by ``split_rows`` one
block or batch at a time, so their peak is the padded output plus a block.
``Dataset.tensors`` and the split accessors copy a whole split, and the
public ``standardise`` copies first and leaves its input untouched.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

TIME = "time"
DATA = "data"
MASK = "mask"
DELTA = "delta"


@dataclass(frozen=True)
class Channel:
    """One output channel: its name and kind (time, data, mask or delta)."""

    name: str
    kind: str


@dataclass(frozen=True)
class ChannelLayout:
    """Ordered channel descriptors; blocks always appear in the order time
    stamp, data, mask, delta."""

    channels: tuple[Channel, ...]

    def __post_init__(self) -> None:
        kinds = [c.kind for c in self.channels]
        rank = {TIME: 0, DATA: 1, MASK: 2, DELTA: 3}
        if sorted(kinds, key=rank.__getitem__) != kinds:
            raise ValueError("channel blocks must be ordered time, data, mask, delta")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.channels)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(c.kind for c in self.channels)

    def indices(self, kind: str) -> np.ndarray:
        return np.array([i for i, c in enumerate(self.channels) if c.kind == kind], dtype=np.int64)

    @property
    def data_indices(self) -> np.ndarray:
        return self.indices(DATA)

    @property
    def data_slice(self) -> slice:
        """The data channels as a slice: blocks are ordered, so they are
        contiguous and ``X[:, :, data_slice]`` is a view."""
        cols = self.data_indices
        start = int(cols[0]) if len(cols) else 0
        return slice(start, start + len(cols))

    @property
    def n_channels(self) -> int:
        return len(self.channels)


@dataclass(frozen=True)
class ChannelStats:
    """Per data channel statistics from the training split: NaN- and
    padding-excluding mean and std (population, ddof=0), observation counts
    and, for categorical channels, the mode (ties broken by smallest
    value)."""

    mean: np.ndarray
    std: np.ndarray
    mode: np.ndarray
    count: np.ndarray

    @property
    def available(self) -> np.ndarray:
        return self.count > 0


SPLIT_CODES = {"train": 0, "val": 1, "test": 2}


@dataclass
class Dataset:
    """Final pipeline product: padded tensors plus split membership.

    ``X``, ``y`` and ``length`` return the split selected at build time;
    the ``_train``/``_val``/``_test`` accessors are always available
    (requesting a test split that was never created raises ``ValueError``).
    Every accessor copies the split's rows out of the ``_full`` arrays.
    Instances are treated as immutable once built.
    """

    X_full: np.ndarray
    y_full: np.ndarray
    length_full: np.ndarray
    layout: ChannelLayout
    stats: ChannelStats
    split_of_index: np.ndarray
    split: str
    has_test: bool
    name: str = ""
    dropped_records: int = 0

    def split_rows(self, split: str) -> np.ndarray:
        """Positions of one split's sequences in the ``_full`` arrays, in
        stored order; validates ``split`` without copying any tensor."""
        if split not in SPLIT_CODES:
            raise ValueError(f"unknown split {split!r}")
        if split == "test" and not self.has_test:
            raise ValueError("no test split was configured (val_prop not set)")
        return np.flatnonzero(self.split_of_index == SPLIT_CODES[split])

    def _select(self, array: np.ndarray, split: str) -> np.ndarray:
        return array[self.split_rows(split)]

    def tensors(self, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, y, length) for one split, each a copy of its rows; code that
        can work a block at a time gathers by :meth:`split_rows` instead."""
        return (
            self._select(self.X_full, split),
            self._select(self.y_full, split),
            self._select(self.length_full, split),
        )

    @property
    def n(self) -> int:
        return len(self.length_full)

    def split_size(self, split: str) -> int:
        return int((self.split_of_index == SPLIT_CODES[split]).sum())

    @property
    def splits(self) -> tuple[str, ...]:
        return ("train", "val", "test") if self.has_test else ("train", "val")

    # selected split
    @property
    def X(self) -> np.ndarray:
        return self._select(self.X_full, self.split)

    @property
    def y(self) -> np.ndarray:
        return self._select(self.y_full, self.split)

    @property
    def length(self) -> np.ndarray:
        return self._select(self.length_full, self.split)


def _split_accessor(stem: str, split: str) -> property:
    def get(self: Dataset) -> np.ndarray:
        return self._select(getattr(self, f"{stem}_full"), split)

    get.__doc__ = (
        f"``{stem}`` for the {split} split: a copy of its rows "
        "(:meth:`Dataset.split_rows` gathers them without one)."
    )
    return property(get)


# the explicit accessors X_train, y_train, length_train, X_val, ..., length_test
for _split in SPLIT_CODES:
    for _stem in ("X", "y", "length"):
        setattr(Dataset, f"{_stem}_{_split}", _split_accessor(_stem, _split))


def pad_to_longest(series: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length ``(length_i, c)`` matrices into an
    ``(n, max_length, c)`` array, padding beyond each length with NaN."""
    if len(series) == 0:
        raise ValueError("no series to pad")
    channel_counts = {m.shape[1] for m in series}
    if len(channel_counts) != 1:
        raise ValueError(f"channel-count mismatch: {sorted(channel_counts)}")
    lengths = np.array([m.shape[0] for m in series], dtype=np.int64)
    if (lengths < 1).any():
        raise ValueError("every series needs at least one step")
    X = np.full((len(series), int(lengths.max()), channel_counts.pop()), np.nan)
    for i, m in enumerate(series):
        X[i, : m.shape[0], :] = m
    return X, lengths


def append_time_channel(X: np.ndarray, times: Sequence[np.ndarray]) -> np.ndarray:
    """Prepend per-sequence time stamps as channel 0, keeping padding NaN."""
    n, s, _ = X.shape
    if len(times) != n:
        raise ValueError("one time vector per sequence required")
    col = np.full((n, s, 1), np.nan)
    for i, t in enumerate(times):
        if len(t) > s:
            raise ValueError(f"sequence {i}: more time stamps than steps")
        col[i, : len(t), 0] = t
    return np.concatenate([col, X], axis=2)


def channel_stats(
    X_train: np.ndarray,
    lengths: np.ndarray,
    categorical: Iterable[int] = (),
) -> ChannelStats:
    """Training statistics per channel of ``X_train`` (the data block).

    Padding contributes nothing because padded entries are NaN. A channel
    with zero observations gets NaN statistics and count 0 (callers treat it
    as unavailable).
    """
    n, s, d = X_train.shape
    categorical = set(categorical)
    mean = np.full(d, np.nan)
    std = np.full(d, np.nan)
    mode = np.full(d, np.nan)
    count = np.zeros(d, dtype=np.int64)
    for c in range(d):
        observed = X_train[:, :, c]
        observed = observed[~np.isnan(observed)]
        count[c] = observed.size
        if observed.size == 0:
            continue
        mean[c] = observed.mean()
        std[c] = observed.std(ddof=0)
        if c in categorical:
            counts = Counter(observed.tolist())
            best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
            mode[c] = best[0]
    return ChannelStats(mean=mean, std=std, mode=mode, count=count)


def standardise_in_place(X: np.ndarray, layout: ChannelLayout, stats: ChannelStats) -> None:
    """Apply the training-split transform ``(x - mean) / std`` to every data
    channel of ``X``, overwriting it.

    One subtraction and one division over the data block: channels without
    training observations use mean 0 and std 1 (so they pass through
    unchanged), and a zero or undefined std acts as 1. Time, mask and delta
    channels are not touched and NaNs stay NaN.
    """
    block = X[:, :, layout.data_slice]
    if block.shape[2] != len(stats.mean):
        raise ValueError("stats do not match the layout's data channels")
    available = stats.available
    usable_sd = available & np.isfinite(stats.std) & (stats.std != 0.0)
    np.subtract(block, np.where(available, stats.mean, 0.0), out=block)
    np.divide(block, np.where(usable_sd, stats.std, 1.0), out=block)


def standardise(X: np.ndarray, layout: ChannelLayout, stats: ChannelStats) -> np.ndarray:
    """:func:`standardise_in_place` on a copy; ``X`` is left as it was."""
    out = X.copy()
    standardise_in_place(out, layout, stats)
    return out

"""Ragged and padded data models, channel layout, training statistics and
standardisation.

A dataset's sequences live in one :class:`Ragged`, a float64 array of rows
with per-sequence bounds: the real steps, record after record (``(sum of
lengths, c)``), or every padded step (``(n * s, c)``: a custom imputation's
output, which may write into the padding). NaN in it means a missing
observation. Steps 1-7 of the pipeline and the transforms work on real
steps only, so their cost follows the real steps, not the padded size.

The padded convention, an ``(n, s, c)`` array whose entry ``[i, t, :]`` is NaN
for every ``t >= length[i]``, exists only where a tensor enters or leaves
tsprep, and only :class:`Ragged` converts to it (:meth:`Ragged.pad`, for the
rows asked for) and from it (:meth:`Ragged.of_padded`). ``Dataset.X_full``, the
split accessors and ``Dataset.tensors`` pad on access and copy;
``batching.batches`` pads one batch and the writers (:mod:`tsprep.export`)
one row block at a time, so their peak is the real-step output plus a
block. When every sequence has ``s`` steps (every equal-length UEA problem)
the padded form is a reshape of the rows, and padding is a view or a gather.

The public transforms also accept padded arrays, which they reduce to their
real steps with :func:`real_steps`. ``standardise_in_place`` overwrites the
array the pipeline owns; the public ``standardise`` copies first and leaves
its input untouched.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

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

    @cached_property  # the layout is frozen and a slice immutable
    def data_slice(self) -> slice:
        """The data channels as a slice: blocks are ordered, so they are
        contiguous and ``X[..., data_slice]`` is a view."""
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


def real_steps(lengths: np.ndarray, steps: int) -> np.ndarray:
    """``(n, steps)`` booleans, True at the real steps of a padded array:
    ``X[real_steps(lengths, X.shape[1])]`` is its :class:`Ragged` rows."""
    return np.arange(steps)[None, :] < np.asarray(lengths)[:, None]


@dataclass(frozen=True)
class Ragged:
    """Sequences of unequal length as one array of rows: sequence ``i`` is
    ``values[offsets[i]:offsets[i + 1]]`` (the flat values plus bounds of
    Arrow's ``ListArray``). Its padded form is ``(n, steps, c)``, NaN after
    each sequence's rows, ``steps`` being the longest sequence's row count.
    """

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        counts = np.diff(offsets)
        if (self.values.ndim != 2 or offsets.ndim != 1 or len(offsets) < 1 or offsets[0] != 0
                or offsets[-1] != len(self.values) or (counts < 0).any()):
            raise ValueError("offsets must bound the rows of a 2-D values array")
        object.__setattr__(self, "steps", int(counts.max(initial=0)))
        dense = (counts == self.steps).all()
        object.__setattr__(self, "_dense", self.values.reshape(self.shape) if dense else None)
        # indexed by the rows asked for, it checks them at their own cost
        object.__setattr__(self, "_positions", np.arange(len(counts)))

    @classmethod
    def of_lengths(cls, values: np.ndarray, lengths) -> "Ragged":
        """Rows ``values`` cut into sequences of ``lengths`` rows."""
        lengths = np.asarray(lengths, dtype=np.int64)
        return cls(values, np.concatenate([[0], np.cumsum(lengths)]))

    @classmethod
    def of_padded(cls, X: np.ndarray, lengths) -> "Ragged":
        """The real steps of a padded ``(n, s, c)`` array whose sequences have
        ``lengths`` steps: a reshape, no copy, when every length is ``s``,
        else one gather."""
        n, s, c = X.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (n,) or (lengths > s).any():
            raise ValueError(f"need one length per sequence, none past the padded width {s}")
        values = X.reshape(n * s, c) if (lengths == s).all() else X[real_steps(lengths, s)]
        return cls.of_lengths(values, lengths)

    @property
    def shape(self) -> tuple[int, int, int]:
        """The shape of the padded form."""
        return (len(self.offsets) - 1, self.steps, self.values.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def pad(self, rows=None, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The padded form of sequences ``rows`` (every one when None),
        ``(len(rows), steps, c)``, written into ``out`` when given.

        When every sequence has ``steps`` rows the padded form is a view of
        ``values``: it is returned itself for all rows and no ``out``, and
        gathered otherwise."""
        if self._dense is not None and rows is None and out is None:
            return self._dense
        rows = self._positions[slice(None) if rows is None else rows]
        if out is None:
            out = np.empty((len(rows),) + self.shape[1:], self.dtype)
        if self._dense is not None:
            # rows are _positions, so in range; "wrap" keeps np.take from buffering
            return np.take(self._dense, rows, axis=0, out=out, mode="wrap")
        out.fill(np.nan)
        starts, stops = self.offsets[rows].tolist(), self.offsets[rows + 1].tolist()
        for j, (start, stop) in enumerate(zip(starts, stops)):
            out[j, : stop - start] = self.values[start:stop]
        return out


SPLIT_CODES = {"train": 0, "val": 1, "test": 2}


class Dataset:
    """Final pipeline product: the sequences, their targets and lengths, and
    split membership.

    ``X_full`` is given as a :class:`Ragged` or as a padded ``(n, s, c)``
    array whose steps past ``length_full`` are dropped
    (:meth:`Ragged.of_padded`), and held as ``ragged``: the real steps, or
    (after a custom imputation) every sequence ``s`` rows long, never a mix.
    ``X_full``, ``X``, the ``X_train``/``X_val``/``X_test`` accessors and
    :meth:`tensors` pad on access, to the longest sequence: each is a padded
    copy of its rows (a view for ``X_full`` when every sequence is that
    long). ``X``, ``y`` and
    ``length`` return the split selected at build time; the
    ``_train``/``_val``/``_test`` accessors are always available
    (requesting a test split that was never created raises ``ValueError``).
    ``y`` and ``length`` accessors copy their rows of ``y_full`` and
    ``length_full``. Instances are treated as immutable once built.
    """

    def __init__(
        self,
        X_full,
        y_full: np.ndarray,
        length_full: np.ndarray,
        layout: ChannelLayout,
        stats: ChannelStats,
        split_of_index: np.ndarray,
        split: str,
        has_test: bool,
        name: str = "",
        dropped_records: int = 0,
    ) -> None:
        self.ragged = (X_full if isinstance(X_full, Ragged)
                       else Ragged.of_padded(np.asarray(X_full), length_full))
        self.y_full = y_full
        self.length_full = length_full
        self.layout = layout
        self.stats = stats
        self.split_of_index = split_of_index
        self.split = split
        self.has_test = has_test
        self.name = name
        self.dropped_records = dropped_records

    @property
    def X_full(self) -> np.ndarray:
        """Every sequence, padded: ``(n, s, c)``."""
        return self.ragged.pad()

    def split_rows(self, split: str) -> np.ndarray:
        """Positions of one split's sequences in the ``_full`` arrays, in
        stored order; validates ``split`` without copying any tensor."""
        if split not in SPLIT_CODES:
            raise ValueError(f"unknown split {split!r}")
        if split == "test" and not self.has_test:
            raise ValueError("no test split was configured (val_prop not set)")
        return np.flatnonzero(self.split_of_index == SPLIT_CODES[split])

    def _select(self, stem: str, split: str) -> np.ndarray:
        rows = self.split_rows(split)
        return self.ragged.pad(rows) if stem == "X" else getattr(self, f"{stem}_full")[rows]

    def tensors(self, split: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, y, length) for one split, each a copy of its rows, ``X``
        padded; code that can work a block at a time gathers by
        :meth:`split_rows` instead."""
        return tuple(self._select(stem, split) for stem in ("X", "y", "length"))

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
        return self._select("X", self.split)

    @property
    def y(self) -> np.ndarray:
        return self._select("y", self.split)

    @property
    def length(self) -> np.ndarray:
        return self._select("length", self.split)


def _split_accessor(stem: str, split: str) -> property:
    def get(self: Dataset) -> np.ndarray:
        return self._select(stem, split)

    get.__doc__ = (
        f"``{stem}`` for the {split} split: a {'padded ' if stem == 'X' else ''}copy of its "
        "rows (:meth:`Dataset.split_rows` gathers them without one)."
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
    return Ragged.of_lengths(np.concatenate(series, dtype=np.float64), lengths).pad(), lengths


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
    """Training statistics per channel of ``X_train`` (the data block): its
    real steps ``(sum of lengths, d)`` or a padded ``(n, s, d)`` array.

    Each channel's observations are read in row order, so the real steps of
    the training rows, record after record, give the statistics of their
    padded form bitwise: padding contributes nothing because padded entries
    are NaN, so ``lengths`` is not read. A channel with zero observations
    gets NaN statistics and count 0 (callers treat it as unavailable).
    """
    d = X_train.shape[-1]
    categorical = set(categorical)
    mean = np.full(d, np.nan)
    std = np.full(d, np.nan)
    mode = np.full(d, np.nan)
    count = np.zeros(d, dtype=np.int64)
    for c in range(d):
        observed = X_train[..., c]
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


def channel_slices(n: int) -> list[slice]:
    """The channels of an array with ``n`` of them, as the slices an
    elementwise pass takes one at a time: all ``n`` at once, or one channel
    at a time when there are fewer than 16. numpy's inner loop runs along
    the last axis, so over a few channels of a wider array it pays one call
    per row."""
    return [slice(0, n)] if n >= 16 else [slice(c, c + 1) for c in range(n)]


def standardise_in_place(X: np.ndarray, layout: ChannelLayout, stats: ChannelStats) -> None:
    """Apply the training-split transform ``(x - mean) / std`` to every data
    channel of ``X`` (ragged rows or a padded array), overwriting it.

    One subtraction and one division over the data block (or over each of
    a few data channels, :func:`channel_slices`): channels without training
    observations use mean 0 and std 1 (so they pass through unchanged), and
    a zero or undefined std acts as 1. Time, mask and delta channels are not
    touched and NaNs stay NaN.
    """
    block = X[..., layout.data_slice]
    if block.shape[-1] != len(stats.mean):
        raise ValueError("stats do not match the layout's data channels")
    available = stats.available
    usable_sd = available & np.isfinite(stats.std) & (stats.std != 0.0)
    shift = np.where(available, stats.mean, 0.0)
    scale = np.where(usable_sd, stats.std, 1.0)
    for part in channel_slices(block.shape[-1]):
        np.subtract(block[..., part], shift[part], out=block[..., part])
        np.divide(block[..., part], scale[part], out=block[..., part])


def standardise(X: np.ndarray, layout: ChannelLayout, stats: ChannelStats) -> np.ndarray:
    """:func:`standardise_in_place` on a copy; ``X`` is left as it was."""
    out = X.copy()
    standardise_in_place(out, layout, stats)
    return out

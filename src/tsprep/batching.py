"""Batch iteration and a packed time-major representation for
variable-length consumers.

A packed batch stores the descending-length-sorted batch as a time-major
concatenation: for each time step ``t`` it holds the rows of every sequence
still active at ``t``. ``batch_sizes[t]`` counts those sequences, so
``sum(batch_sizes) == sum(lengths)`` and no padded steps are carried.
"""

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from tsprep.splits import Xoshiro256StarStar
from tsprep.tensor_core import real_steps


@dataclass
class Batch:
    """Tensors for one batch; supports ``batch["X"]`` style access."""

    X: np.ndarray
    y: np.ndarray
    length: np.ndarray

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return {"X": self.X, "y": self.y, "length": self.length}[key]
        except KeyError:
            raise KeyError(f"batches hold 'X', 'y' and 'length', not {key!r}") from None

    @property
    def n(self) -> int:
        return len(self.length)


@dataclass
class PackedBatch:
    values: np.ndarray  # (sum of lengths, c), time-major
    batch_sizes: np.ndarray  # active sequences per time step, non-increasing
    sort_order: np.ndarray  # original batch positions, descending length
    y: np.ndarray  # packed like values when per-step, else sorted rows
    y_per_step: bool


def batches(dataset, split: str, batch_size: int, rng: Optional[Xoshiro256StarStar] = None) -> Iterator[Batch]:
    """Iterate a split once, in stored order, as batches of ``batch_size``
    (the last batch may be smaller).

    Each batch gathers its own rows from the dataset's ``_full`` arrays and
    pads its ``X`` from ``dataset.ragged``, so the split is never copied
    (or padded) as a whole. Pass a seeded generator as
    ``rng`` to shuffle sequence order for the epoch; the default (no
    shuffling) keeps epochs reproducible.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rows = dataset.split_rows(split)
    n = len(rows)
    if n == 0:
        raise ValueError(f"split {split!r} is empty")
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        idx = rows[order[start : start + batch_size]]
        yield Batch(X=dataset.ragged.pad(idx), y=dataset.y_full[idx], length=dataset.length_full[idx])


def sort_by_length(batch: Batch) -> Batch:
    """Reorder rows by descending length; ties keep their original order."""
    order = _descending_order(batch.length)
    return Batch(X=batch.X[order], y=batch.y[order], length=batch.length[order])


def _descending_order(lengths: np.ndarray) -> np.ndarray:
    return np.argsort(-np.asarray(lengths), kind="stable")


def _time_major(batch_sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rank, step) of each packed entry: step t holds ranks 0..batch_sizes[t]-1."""
    steps = np.repeat(np.arange(len(batch_sizes)), batch_sizes)
    starts = np.repeat(np.cumsum(batch_sizes) - batch_sizes, batch_sizes)
    return np.arange(len(steps)) - starts, steps


def pack(batch: Batch, per_step_y: Optional[bool] = None) -> PackedBatch:
    """Pack a padded batch (sorting it internally if needed).

    Per-step targets of shape ``(b, s)`` are packed alongside ``X``;
    sequence-level targets ride along sorted but unpacked. Pass
    ``per_step_y`` explicitly when a sequence-level target happens to have
    as many columns as there are time steps; the default infers from shape.
    """
    lengths = np.asarray(batch.length)
    if (lengths < 1).any():
        raise ValueError("cannot pack zero-length sequences")
    order = _descending_order(lengths)
    lengths = lengths[order]
    y_per_step = (
        batch.y.ndim == 2 and batch.y.shape[1] == batch.X.shape[1]
        if per_step_y is None
        else per_step_y
    )

    s_max = int(lengths[0])
    batch_sizes = real_steps(lengths, s_max).sum(axis=0, dtype=np.int64)
    # one gather of every (row, step) entry, time-major, from the unsorted batch
    ranks, steps = _time_major(batch_sizes)
    rows = order[ranks]
    values = batch.X[rows, steps]
    y_packed = batch.y[rows, steps] if y_per_step else batch.y[order]
    return PackedBatch(
        values=values,
        batch_sizes=batch_sizes,
        sort_order=order.astype(np.int64),
        y=y_packed,
        y_per_step=y_per_step,
    )


def unpack(packed: PackedBatch) -> Batch:
    """Restore the NaN-padded batch in descending-length order, cut to its
    longest step: ``unpack(pack(b))`` equals ``sort_by_length(b)`` with ``X``
    and a per-step ``y`` cut to ``max(b.length)`` steps."""
    batch_sizes = packed.batch_sizes
    b, s_max = int(batch_sizes[0]), len(batch_sizes)
    # one scatter of every packed entry back to its (rank, step)
    ranks, steps = _time_major(batch_sizes)
    X = np.full((b, s_max, packed.values.shape[1]), np.nan)
    X[ranks, steps] = packed.values
    y = packed.y
    if packed.y_per_step:
        y = np.full((b, s_max), np.nan)
        y[ranks, steps] = packed.y
    lengths = np.bincount(ranks, minlength=b).astype(np.int64)
    return Batch(X=X, y=y, length=lengths)

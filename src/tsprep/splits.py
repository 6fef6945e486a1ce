"""Seeded stratified train/validation/test splits.

Randomness throughout the toolkit comes from a fixed, documented generator so
that datasets are byte-identical across runs, platforms and releases:

* ``splitmix64`` expands a 64-bit seed into generator state and derives
  substream seeds.
* ``xoshiro256**`` produces the random stream.

The generator comes in two forms with the same output. The scalar
``Xoshiro256StarStar`` works on Python integers and is the specification;
the split shuffle consumes its root stream (``rng_from_seed(seed)``).
``XoshiroLanes`` runs many streams in lockstep on ``uint64`` arrays, one lane
per stream. Missing-data simulation uses it with one lane per sequence, each
seeded by ``substream_seed(seed, index)``, so a sequence's draws do not
depend on how many other sequences there are or in which order they run.
"""

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from tsprep.tensor_core import SPLIT_CODES
from tsprep.util import round_half_up

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 output scramble (Steele, Lea & Flood 2014)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    return _mix64(state), state


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** generator with splitmix64 seed expansion.

    Pure-integer implementation: identical output on every platform and
    Python version. This is the reference form, used for the split
    shuffles; ``XoshiroLanes`` produces the same streams many at a time.
    """

    def __init__(self, seed: int) -> None:
        state = seed & _MASK64
        s = []
        for _ in range(4):
            z, state = _splitmix64_next(state)
            s.append(z)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via unbiased rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, iterating from the last index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


_U64 = np.uint64


def _rotl_lanes(x: np.ndarray, k: int) -> np.ndarray:
    return (x << _U64(k)) | (x >> _U64(64 - k))


def _mix64_lanes(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


class XoshiroLanes:
    """Independent xoshiro256** streams advanced in lockstep.

    Lane ``i`` produces exactly the stream of
    ``Xoshiro256StarStar(seeds[i])``. The state is four ``uint64`` arrays,
    whose arithmetic wraps modulo 2**64 as the scalar form masks it. Each
    call advances only the lanes selected by the boolean ``active`` mask
    (every lane when it is None) and returns one value per lane, 0 for the
    lanes left out.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        state = np.array([seed & _MASK64 for seed in seeds], dtype=_U64).reshape(-1)
        s = []
        for _ in range(4):
            state = state + _U64(_GOLDEN)
            s.append(_mix64_lanes(state))
        self._s = s

    def __len__(self) -> int:
        return len(self._s[0])

    def _advance(self, rows) -> np.ndarray:
        """Step the lanes ``rows`` (an index array or ``slice(None)``)."""
        s0, s1, s2, s3 = (part[rows] for part in self._s)
        result = _rotl_lanes(s1 * _U64(5), 7) * _U64(9)
        t = s1 << _U64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl_lanes(s3, 45)
        if isinstance(rows, slice):
            self._s = [s0, s1, s2, s3]
        else:
            for part, new in zip(self._s, (s0, s1, s2, s3)):
                part[rows] = new
        return result

    def _rows(self, active: Optional[np.ndarray]):
        if active is None:
            return slice(None)
        active = np.asarray(active, dtype=bool)
        if active.shape != (len(self),):
            raise ValueError(f"active mask has shape {active.shape}, expected ({len(self)},)")
        return slice(None) if active.all() else np.flatnonzero(active)

    def next_u64(self, active: Optional[np.ndarray] = None) -> np.ndarray:
        """The next output of each active lane."""
        rows = self._rows(active)
        out = np.zeros(len(self), dtype=_U64)
        out[rows] = self._advance(rows)
        return out

    def randbelow(self, n, active: Optional[np.ndarray] = None) -> np.ndarray:
        """Uniform integers in [0, n) per lane, by the scalar rejection rule.

        ``n`` is one bound for every lane or an array with one per lane; only
        the entries of active lanes are read. A lane whose draw is rejected
        draws again from its own stream, so every lane consumes exactly what
        ``Xoshiro256StarStar.randbelow`` would.
        """
        rows = self._rows(active)
        bound = np.broadcast_to(np.asarray(n), (len(self),))[rows]
        if (bound <= 0).any():
            raise ValueError("n must be positive")
        bound = bound.astype(_U64)
        # The scalar form accepts u < 2**64 - 2**64 % n, i.e. u <= ~(2**64 % n);
        # when n is a power of two that cutoff is 2**64 - 1 and nothing is
        # rejected. (0 - n) % n is 2**64 % n in wrapping uint64 arithmetic.
        cutoff = ~((_U64(0) - bound) % bound)
        u = self._advance(rows)
        rejected = np.flatnonzero(u > cutoff)
        if rejected.size:
            lane_of = np.arange(len(self))[rows]
            while rejected.size:
                u[rejected] = self._advance(lane_of[rejected])
                rejected = rejected[u[rejected] > cutoff[rejected]]
        out = np.zeros(len(self), dtype=_U64)
        out[rows] = u % bound
        return out


def rng_from_seed(seed: Optional[int]) -> Xoshiro256StarStar:
    """Root random stream for a seed; OS entropy when seed is None."""
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "little")
    return Xoshiro256StarStar(seed)


def substream_seed(seed: int, index: int) -> int:
    """Derive a 64-bit substream seed from (seed, index).

    Two rounds of the splitmix64 scramble bind the pair into one word; the
    derivation is positional, so substreams are independent of how many other
    substreams were used.
    """
    z = _mix64(seed & _MASK64)
    return _mix64((z + ((index + 1) * _GOLDEN)) & _MASK64)


@dataclass(frozen=True)
class SplitSpec:
    """Requested split proportions and seed.

    Without ``val_prop`` the remainder after training is the validation set.
    With ``val_prop`` the remainder after training + validation is the test
    set. An invalid spec raises ``ValueError`` when it is made.
    """

    train_prop: float
    val_prop: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.val_prop is None:
            if not 0.0 < self.train_prop < 1.0:
                raise ValueError("train_prop must be in (0, 1)")
        else:
            # written so that a NaN proportion fails each check
            if not (self.train_prop > 0.0 and self.val_prop > 0.0):
                raise ValueError("train_prop and val_prop must be positive")
            if not self.train_prop + self.val_prop < 1.0:
                raise ValueError("train_prop + val_prop must be < 1 when val_prop is given")


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint index arrays covering every sequence exactly once."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def split_of_index(self, n: int) -> np.ndarray:
        """Per-sequence codes of :data:`~tsprep.tensor_core.SPLIT_CODES`."""
        out = np.full(n, -1, dtype=np.int8)
        for split, code in SPLIT_CODES.items():
            out[getattr(self, split)] = code
        if (out < 0).any():
            raise ValueError("assignment does not cover all indices")
        return out


def _largest_remainder(ideals: list[float], total: int, caps: list[int]) -> list[int]:
    """Integer allocation: floor the ideals, then hand out the shortfall by
    largest fractional remainder. ``caps`` bounds each cell from above."""
    alloc = [min(int(np.floor(q)), cap) for q, cap in zip(ideals, caps)]
    shortfall = total - sum(alloc)
    if shortfall < 0:
        raise ValueError("allocation exceeds total")
    # stable order: biggest remainder first, ties broken by stratum position
    order = sorted(range(len(ideals)), key=lambda k: (-(ideals[k] - np.floor(ideals[k])), k))
    i = 0
    while shortfall > 0:
        k = order[i % len(order)]
        if alloc[k] < caps[k]:
            alloc[k] += 1
            shortfall -= 1
        i += 1
        if i > 4 * len(order) + total:
            raise ValueError("cannot satisfy allocation under caps")
    return alloc


def stratified_split(labels: Sequence, spec: SplitSpec) -> SplitAssignment:
    """Partition indices into train/val/test by stratified sampling.

    Within each stratum the indices are shuffled with the seeded root stream
    and dealt to splits. Global split sizes equal ``round(prop * n)`` (half
    up), reconciled across strata by largest remainder; per-stratum
    proportions deviate from the request by at most one sequence.

    Strata are processed in sorted label order, one shuffle per stratum, so
    the stream consumption is deterministic.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0:
        raise ValueError("cannot split an empty dataset")

    n_train = round_half_up(spec.train_prop * n)
    if spec.val_prop is None:
        n_val = n - n_train
        n_test = 0
    else:
        n_val = round_half_up(spec.val_prop * n)
        n_test = n - n_train - n_val
    if min(n_train, n_val) < 0 or n_test < 0:
        raise ValueError("split proportions produce a negative split size")

    strata = np.unique(labels)
    groups = [np.flatnonzero(labels == s) for s in strata]
    sizes = [len(g) for g in groups]

    train_alloc = _largest_remainder(
        [spec.train_prop * m for m in sizes], n_train, caps=sizes
    )
    remaining = [m - t for m, t in zip(sizes, train_alloc)]
    if spec.val_prop is None:
        val_alloc = remaining
    else:
        val_alloc = _largest_remainder(
            [spec.val_prop * m for m in sizes], n_val, caps=remaining
        )

    rng = rng_from_seed(spec.seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    test_idx: list[int] = []
    for group, t_k, v_k in zip(groups, train_alloc, val_alloc):
        members = [int(i) for i in group]
        rng.shuffle(members)
        train_idx.extend(members[:t_k])
        val_idx.extend(members[t_k : t_k + v_k])
        test_idx.extend(members[t_k + v_k :])

    return SplitAssignment(
        train=np.array(sorted(train_idx), dtype=np.int64),
        val=np.array(sorted(val_idx), dtype=np.int64),
        test=np.array(sorted(test_idx), dtype=np.int64),
    )

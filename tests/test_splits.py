import numpy as np
import pytest

from tsprep.splits import (
    SplitSpec,
    Xoshiro256StarStar,
    XoshiroLanes,
    rng_from_seed,
    stratified_split,
    substream_seed,
)

M64 = (1 << 64) - 1


def reference_stream(seed, count):
    """Independent straight-line reimplementation of splitmix64-seeded
    xoshiro256** used as the oracle for the production generator."""

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & M64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & M64
        return z ^ (z >> 31)

    state = seed & M64
    s = []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & M64
        s.append(mix(state))

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & M64

    out = []
    for _ in range(count):
        result = (rotl((s[1] * 5) & M64, 7) * 9) & M64
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        out.append(result)
    return out


@pytest.mark.parametrize("seed", [0, 1, 123, 293120, (1 << 64) - 1])
def test_generator_matches_independent_reimplementation(seed):
    gen = Xoshiro256StarStar(seed)
    assert [gen.next_u64() for _ in range(1000)] == reference_stream(seed, 1000)


def test_same_seed_same_stream():
    a = rng_from_seed(42)
    b = rng_from_seed(42)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_different_seeds_differ():
    a, b = rng_from_seed(1), rng_from_seed(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_seedless_stream_works():
    gen = rng_from_seed(None)
    values = [gen.next_u64() for _ in range(10)]
    assert all(0 <= v <= M64 for v in values)


def test_randbelow_bounds_and_spread():
    gen = rng_from_seed(7)
    draws = [gen.randbelow(10) for _ in range(5000)]
    assert set(draws) == set(range(10))
    counts = np.bincount(draws, minlength=10)
    assert counts.min() > 350  # loose uniformity check


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        rng_from_seed(0).randbelow(0)


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(50))
    a, b = items.copy(), items.copy()
    rng_from_seed(9).shuffle(a)
    rng_from_seed(9).shuffle(b)
    assert a == b
    assert sorted(a) == items
    c = items.copy()
    rng_from_seed(10).shuffle(c)
    assert c != a


def choose(gen, n: int, k: int) -> list[int]:
    """k distinct indices from range(n), via partial Fisher-Yates over
    ``gen.randbelow``: the scalar reference for the positions that
    ``simulate_missing`` drops."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot choose {k} from {n}")
    pool = list(range(n))
    for i in range(k):
        j = i + gen.randbelow(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def test_choose_k_distinct():
    gen = rng_from_seed(5)
    picked = choose(gen, 20, 8)
    assert len(picked) == 8 and len(set(picked)) == 8
    assert all(0 <= p < 20 for p in picked)
    with pytest.raises(ValueError):
        choose(gen, 5, 6)


def test_substreams_are_distinct_and_stable():
    seeds = [substream_seed(123, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [substream_seed(123, i) for i in range(100)]
    assert substream_seed(123, 0) != substream_seed(124, 0)


# ------------------------------------------------------------- lane generator

LANE_SEEDS = [0, 1, 123, 293120, substream_seed(5, 2), (1 << 64) - 1]


def test_lanes_match_scalar_streams():
    lanes = XoshiroLanes(LANE_SEEDS)
    scalars = [Xoshiro256StarStar(seed) for seed in LANE_SEEDS]
    for _ in range(1000):
        assert lanes.next_u64().tolist() == [gen.next_u64() for gen in scalars]


def test_lanes_randbelow_heavy_rejection_matches_scalar():
    n = (1 << 63) + 1  # accepts u < 2**63 + 1: about half of all draws rejected
    limit = (1 << 64) - (1 << 64) % n
    lanes = XoshiroLanes(LANE_SEEDS)
    scalars = [Xoshiro256StarStar(seed) for seed in LANE_SEEDS]
    raw = [Xoshiro256StarStar(seed) for seed in LANE_SEEDS]
    draws = rejected = 0
    for _ in range(200):
        assert lanes.randbelow(n).tolist() == [gen.randbelow(n) for gen in scalars]
        for gen in raw:
            while True:
                draws += 1
                if gen.next_u64() < limit:
                    break
                rejected += 1
    assert 0.4 < rejected / draws < 0.6


@pytest.mark.parametrize("n", [1, 2, 1 << 32, 1 << 63])
def test_lanes_randbelow_power_of_two_matches_scalar(n):
    lanes = XoshiroLanes(LANE_SEEDS)
    scalars = [Xoshiro256StarStar(seed) for seed in LANE_SEEDS]
    for _ in range(200):
        assert lanes.randbelow(n).tolist() == [gen.randbelow(n) for gen in scalars]


def test_lanes_randbelow_per_lane_bounds():
    bounds = np.array([1, 7, 64, 315, (1 << 63) + 1, (1 << 63)], dtype=np.uint64)
    lanes = XoshiroLanes(LANE_SEEDS)
    scalars = [Xoshiro256StarStar(seed) for seed in LANE_SEEDS]
    for _ in range(200):
        expected = [gen.randbelow(int(b)) for gen, b in zip(scalars, bounds)]
        assert lanes.randbelow(bounds).tolist() == expected


def test_lanes_inactive_do_not_advance():
    active = np.array([True, False, True, False, False, True])
    lanes = XoshiroLanes(LANE_SEEDS)
    scalars = [Xoshiro256StarStar(seed) for seed in LANE_SEEDS]
    bounds = np.array([10, 0, 3, -1, 0, 1000])  # inactive entries are never read
    for _ in range(50):
        values = lanes.next_u64(active).tolist()
        drawn = lanes.randbelow(bounds, active).tolist()
        for lane, gen in enumerate(scalars):
            if active[lane]:
                assert values[lane] == gen.next_u64()
                assert drawn[lane] == gen.randbelow(int(bounds[lane]))
            else:
                assert values[lane] == 0 and drawn[lane] == 0
    # every lane continues its stream from where it stopped
    assert lanes.next_u64().tolist() == [gen.next_u64() for gen in scalars]


def test_lanes_randbelow_rejects_nonpositive():
    lanes = XoshiroLanes([1, 2])
    with pytest.raises(ValueError):
        lanes.randbelow(0)
    with pytest.raises(ValueError):
        lanes.randbelow(np.array([3, -1]), np.array([True, True]))


# ----------------------------------------------------------- split behaviour


def per_stratum_counts(labels, assignment):
    out = {}
    for name, idx in (("train", assignment.train), ("val", assignment.val), ("test", assignment.test)):
        out[name] = {s: int((labels[idx] == s).sum()) for s in np.unique(labels)}
    return out


def test_arrowhead_sizes_exact():
    labels = np.array([0] * 70 + [1] * 70 + [2] * 71)
    a = stratified_split(labels, SplitSpec(0.7, 0.2, seed=123))
    assert (len(a.train), len(a.val), len(a.test)) == (148, 42, 21)


def test_single_class_even_split():
    a = stratified_split(np.zeros(10), SplitSpec(0.5, seed=1))
    assert (len(a.train), len(a.val), len(a.test)) == (5, 5, 0)


def test_two_class_counts_match_brute_force():
    labels = np.array([0] * 50 + [1] * 50)
    a = stratified_split(labels, SplitSpec(0.8, seed=4))
    counts = per_stratum_counts(labels, a)
    # exhaustive per-stratum count oracle: 0.8 * 50 = 40 train, 10 val
    assert counts["train"] == {0: 40, 1: 40}
    assert counts["val"] == {0: 10, 1: 10}


def test_partition_property_random_cases():
    rng = np.random.RandomState(0)
    for case in range(50):
        n = rng.randint(3, 120)
        labels = rng.randint(0, rng.randint(1, 5) + 1, size=n)
        train_prop = rng.uniform(0.2, 0.7)
        val_prop = rng.uniform(0.1, 0.9 - train_prop) if rng.rand() < 0.5 else None
        spec = SplitSpec(train_prop, val_prop, seed=case)
        a = stratified_split(labels, spec)
        combined = np.concatenate([a.train, a.val, a.test])
        assert sorted(combined.tolist()) == list(range(n))
        # stratification: per-stratum deviation from the request <= 1 sequence
        counts = per_stratum_counts(labels, a)
        for s in np.unique(labels):
            n_s = int((labels == s).sum())
            assert abs(counts["train"][s] - train_prop * n_s) < 1 + 1e-9
            if val_prop is not None:
                assert abs(counts["val"][s] - val_prop * n_s) < 1 + 1e-9


def test_seed_determinism_bitwise():
    labels = np.array([0, 1] * 40 + [2] * 20)
    spec = SplitSpec(0.6, 0.2, seed=99)
    a = stratified_split(labels, spec)
    b = stratified_split(labels, spec)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)
    c = stratified_split(labels, SplitSpec(0.6, 0.2, seed=100))
    assert not np.array_equal(a.train, c.train)


def test_split_of_index_codes():
    labels = np.array([0] * 6 + [1] * 6)
    a = stratified_split(labels, SplitSpec(0.5, seed=3))
    codes = a.split_of_index(12)
    assert (codes == 0).sum() == 6 and (codes == 1).sum() == 6


@pytest.mark.parametrize(
    "train_prop,val_prop",
    [(0.0, None), (1.0, None), (1.2, None), (0.5, 0.5), (0.5, 0.0), (-0.1, 0.2), (0.8, 0.3)],
)
def test_invalid_specs_rejected(train_prop, val_prop):
    """A spec is checked when it is made, before any split."""
    with pytest.raises(ValueError):
        SplitSpec(train_prop, val_prop, seed=0)


def test_empty_labels_rejected():
    with pytest.raises(ValueError):
        stratified_split(np.array([]), SplitSpec(0.5, seed=0))

"""Known-answer tests: ``build`` output equals a reference assembled from the
public functions.

The reference takes the unstandardised, unimputed build of the same config,
then applies ``channel_stats`` on the training rows, ``standardise`` and
``transforms.impute`` once per split, exactly as the pipeline contract
describes. Every split is compared bitwise (so NaNs, padding and signed
zeros are compared too) for every imputation method with standardisation on
and off, on unequal-length UEA and on both PhysioNet fixtures.
"""

import dataclasses

import numpy as np
import pytest

from tsprep import transforms
from tsprep.pipeline import (
    PHYSIONET2012,
    PHYSIONET_2012_CATEGORICAL,
    PHYSIONET_2012_CHANNEL_MEANS,
    PipelineConfig,
    build,
)
from tsprep.tensor_core import SPLIT_CODES, channel_stats, standardise


def split_dependent(X, y, fill, select):
    """Custom imputation whose result depends on the rows it is given: gaps
    take the block's own maximum plus the fill, and y is shifted by the row
    count, so calling it once over all rows would give other bytes."""
    block = X[:, :, select]
    X[:, :, select] = np.where(np.isnan(block), np.nanmax(block) + fill, block)
    return X, y + len(y)


IMPUTE = ["none", "zero", "mean", "forward", split_dependent]


def uea_config(root, **kwargs):
    return PipelineConfig(
        dataset="Traj3", split="train", train_prop=0.6, val_prop=0.2, seed=31,
        missing=[0.5, 0.2, 0.35], mask=True, delta=True, path=root, **kwargs,
    )


def pn2012_config(root, **kwargs):
    return PipelineConfig(
        dataset="physionet2012", split="val", train_prop=0.6, val_prop=0.2, seed=8,
        mask=True, path=root, **kwargs,
    )


def pn2019_config(root, **kwargs):
    return PipelineConfig(
        dataset="physionet2019", split="test", train_prop=0.5, val_prop=0.25, seed=5,
        mask=True, delta=True, path=root, **kwargs,
    )


def reference(config: PipelineConfig):
    """``(stats, {split: (X, y, length)})`` from the public functions."""
    base = build(dataclasses.replace(config, standardise=False, impute="none"))
    X, y, lengths = base.X_full, base.y_full, base.length_full
    data = base.layout.data_indices
    categorical, means = list(config.categorical), dict(config.channel_means)
    if config.kind == PHYSIONET2012:
        categorical = sorted(set(categorical) | set(PHYSIONET_2012_CATEGORICAL))
        means = {**PHYSIONET_2012_CHANNEL_MEANS, **means}
    categorical = [c - 1 for c in categorical]  # data-block positions
    means = {k - 1: float(v) for k, v in means.items()}

    train = base.split_of_index == SPLIT_CODES["train"]
    stats = channel_stats(X[train][:, :, data], lengths[train], categorical=categorical)
    fill_stats = stats
    if config.standardise:
        X = standardise(X, base.layout, stats)
        fill_stats = channel_stats(X[train][:, :, data], lengths[train], categorical=categorical)
    fill = transforms.build_fill(
        fill_stats, config.impute, categorical=categorical, channel_means=means
    )
    out = {}
    for split in base.splits:
        rows = base.split_of_index == SPLIT_CODES[split]
        X_split, y_split = transforms.impute(
            X[rows], y[rows], lengths[rows], data, config.impute, fill
        )
        out[split] = (X_split, y_split, lengths[rows])
    return stats, out


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("impute", IMPUTE, ids=lambda m: m if isinstance(m, str) else "callable")
@pytest.mark.parametrize("standardise_on", [False, True], ids=["raw", "standardised"])
@pytest.mark.parametrize("make_config", [uea_config, pn2012_config, pn2019_config],
                         ids=["uea_unequal", "physionet2012", "physionet2019"])
def test_build_equals_public_function_reference(
    make_config, standardise_on, impute, traj_root, physionet2012_root, physionet2019_root
):
    root = {uea_config: traj_root, pn2012_config: physionet2012_root,
            pn2019_config: physionet2019_root}[make_config]
    config = make_config(root, standardise=standardise_on, impute=impute)
    ds = build(config)
    stats, want = reference(config)
    for field in ("mean", "std", "mode", "count"):
        assert_same_bytes(getattr(ds.stats, field), getattr(stats, field))
    assert ds.splits == tuple(want)
    for split, arrays in want.items():
        for got, expected in zip(ds.tensors(split), arrays):
            assert_same_bytes(got, expected)
    for got, expected in zip((ds.X, ds.y, ds.length), want[config.split]):
        assert_same_bytes(got, expected)


def test_reference_fixtures_exercise_the_options(physionet2012_root):
    """The 2012 reference sees categorical modes and the MechVent override
    (channel 20, mode pinned to 0 though only 1 is recorded)."""
    config = pn2012_config(physionet2012_root, impute="mean")
    stats, want = reference(config)
    assert stats.mode[19] == 1.0
    mech = np.concatenate([X[i, :L, 20] for X, _, L_all in want.values() for i, L in enumerate(L_all)])
    assert set(mech.tolist()) == {0.0, 1.0}
    assert np.isfinite(stats.mode[[c - 1 for c in PHYSIONET_2012_CATEGORICAL]]).all()


def random_padded(rng, n=9, s=12, c=6):
    lengths = rng.randint(1, s + 1, size=n)
    X = rng.randn(n, s, c)
    X[rng.rand(n, s, c) < 0.3] = np.nan
    for i, L in enumerate(lengths):
        X[i, L:, :] = np.nan
    return X, rng.randn(n, 2), lengths


def test_standardise_leaves_its_input_untouched(traj_root):
    ds = build(uea_config(traj_root))
    X = ds.X_full
    before = X.copy()
    out = standardise(X, ds.layout, ds.stats)
    assert out is not X and not np.shares_memory(out, X)
    assert_same_bytes(X, before)


@pytest.mark.parametrize("method", ["zero", "mean", "forward", split_dependent],
                         ids=["zero", "mean", "forward", "callable"])
def test_impute_leaves_its_inputs_untouched(method):
    X, y, lengths = random_padded(np.random.RandomState(4))
    data = np.array([1, 2, 4])
    fill = np.array([0.5, -1.0, 2.0])
    X_before, y_before = X.copy(), y.copy()
    X_out, y_out = transforms.impute(X, y, lengths, data, method, fill)
    assert not np.shares_memory(X_out, X)
    assert_same_bytes(X, X_before)
    assert_same_bytes(y, y_before)

"""End-to-end dataset construction.

``build`` executes the fixed step order: (1) cache check, (2) ingest and
cache the master pool on a miss, (3) simulate missing data, (4) append
time/mask/delta channels, (5) stratified split, (6) standardise, (7)
impute, (8) bind the requested split. Simulation happens on the master set
before splitting, masks reflect pre-imputation missingness and both
standardisation and imputation statistics come from the training split
only.

Channel conventions: the master array always carries the time stamp as
channel 0 (a synthesized index for UEA problems, the recorded Mins/ICULOS
stamp for PhysioNet). Mask and delta channels cover the *source* channels:
for PhysioNet that includes the recorded stamp (so 2012 yields 45 + 45 +
45 = 135 channels with all three enabled), for UEA only the data
dimensions (the index is synthetic). ``time=False`` removes just the stamp
column itself.

Channel indices in ``categorical`` and ``channel_means`` follow the
dataset's documented channel order with the time stamp at index 0, so data
channels are 1..d (e.g. 20 is MechVent for PhysioNet 2012).
"""

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from tsprep import cache_store, fetch, physionet, transforms
from tsprep.splits import SplitSpec, rng_from_seed, stratified_split
from tsprep.tensor_core import (
    DATA,
    DELTA,
    MASK,
    SPLIT_CODES,
    TIME,
    Channel,
    ChannelLayout,
    ChannelStats,
    Dataset,
    append_time_channel,  # unused here, but perfbench/tracing.py wraps pipeline.append_time_channel
    channel_stats,
    pad_to_longest,
    standardise,  # unused here, but perfbench/tracing.py wraps pipeline.standardise
    standardise_in_place,
)
from tsprep.ts_format import merge_train_test, parse_ts_file

logger = logging.getLogger(__name__)

UEA = "uea"
PHYSIONET2012 = "physionet2012"
PHYSIONET2019 = "physionet2019"
PHYSIONET2019_BINARY = "physionet2019binary"

_RESERVED = {PHYSIONET2012, PHYSIONET2019, PHYSIONET2019_BINARY}

# Appendix-style defaults for PhysioNet 2012 imputation: MechVent (20),
# Gender (39) and the ICUType indicators (41-44) are categorical, and the
# MechVent mode is fixed at zero because only the value 1 is ever recorded.
PHYSIONET_2012_CATEGORICAL = (20, 39, 41, 42, 43, 44)
PHYSIONET_2012_CHANNEL_MEANS = {20: 0.0}


class ConfigError(ValueError):
    """Invalid pipeline configuration (CLI exit code 2)."""


class BuildError(RuntimeError):
    """A pipeline step failed; the message names the step."""


@dataclass(frozen=True)
class PipelineConfig:
    """Complete argument surface of the pipeline.

    ``dataset`` is a UEA/UCR problem name (e.g. "ArrowHead") or one of
    "physionet2012", "physionet2019", "physionet2019binary". Defaults match
    the documented argument table: no simulated missingness, no imputation,
    time stamp on, mask/delta/standardise off, cache under ``path``.
    """

    dataset: str
    split: str
    train_prop: float
    val_prop: Optional[float] = None
    missing: Union[float, Sequence[float]] = 0.0
    impute: Union[str, Callable] = "none"
    categorical: tuple[int, ...] = ()
    channel_means: Mapping[int, float] = field(default_factory=dict)
    time: bool = True
    mask: bool = False
    delta: bool = False
    standardise: bool = False
    overwrite_cache: bool = False
    path: Union[str, Path] = "."
    seed: Optional[int] = None

    @property
    def kind(self) -> str:
        return UEA if self.dataset.lower() not in _RESERVED else self.dataset.lower()

    @property
    def key(self) -> str:
        """Cache directory name for the master set."""
        return f"uea_{self.dataset.lower()}" if self.kind == UEA else self.kind

    def split_spec(self) -> SplitSpec:
        return SplitSpec(train_prop=self.train_prop, val_prop=self.val_prop, seed=self.seed)

    def validate(self) -> None:
        try:
            self.split_spec().validate()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        allowed = ("train", "val", "test") if self.val_prop is not None else ("train", "val")
        if self.split not in allowed:
            raise ConfigError(f"split must be one of {allowed}, got {self.split!r}")
        props = [float(p) for p in self.missing] if not np.isscalar(self.missing) else [float(self.missing)]
        if self.kind != UEA and any(p != 0.0 for p in props):
            raise ConfigError("missing-data simulation applies to UEA datasets only")
        if any(not 0.0 <= p <= 1.0 for p in props):
            raise ConfigError("missing proportions must be in [0, 1]")
        if not (callable(self.impute) or self.impute in transforms.IMPUTE_METHODS):
            raise ConfigError(
                f"impute must be one of {transforms.IMPUTE_METHODS} or a callable"
            )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")


@contextmanager
def _step(number: int, name: str):
    """Relabel an error raised inside step ``number`` as a :class:`BuildError`
    naming the step; interrupts and configuration errors pass unchanged."""
    try:
        yield
    except (ConfigError, BuildError):
        raise
    except Exception as exc:
        raise BuildError(f"step {number} ({name}): {exc}") from exc


def _ingest_uea(raw: Path, dataset: str):
    train_path = _find_ts(raw, dataset, "TRAIN")
    test_path = _find_ts(raw, dataset, "TEST", required=False)
    train = parse_ts_file(train_path.read_text())
    test = None
    if test_path is not None:
        test = parse_ts_file(test_path.read_text())
        if set(test.header.class_labels) != set(train.header.class_labels):
            raise ValueError("train/test files declare different class labels")
    labels, X, lengths = merge_train_test(train, test)

    label_index = {label: i for i, label in enumerate(train.header.class_labels)}
    y = np.eye(len(train.header.class_labels))[[label_index[label] for label in labels]]
    info = {
        "time_channel": "time",
        "channels": [f"dim{i}" for i in range(X.shape[2] - 1)],
        "mask_covers_time": False,
        "dropped_records": 0,
    }
    return X, y, lengths, info


def _find_ts(raw: Path, dataset: str, part: str, required: bool = True) -> Optional[Path]:
    wanted = f"{dataset.lower()}_{part.lower()}"
    candidates = [p for p in sorted(raw.rglob("*.ts")) if p.stem.lower() == wanted]
    if not candidates:
        if required:
            raise FileNotFoundError(
                f"no {dataset}_{part}.ts under {raw} (run `tsprep fetch` first)"
            )
        return None
    return candidates[0]


def _physionet_master(raw: Path, records: list, dropped: int, time_channel: str):
    """The padded ``[times | values]`` master of PhysioNet records, their
    lengths and the ``dataset_info`` of the cache entry."""
    if not records:
        raise ValueError(f"no usable records under {raw}")
    names = records[0].channel_names
    for r in records:
        if r.channel_names != names:
            raise ValueError(f"record {r.record_id} has a different channel set")
    X, lengths = pad_to_longest([np.column_stack([r.times, r.values]) for r in records])
    info = {
        "time_channel": time_channel,
        "channels": list(names),
        "mask_covers_time": True,
        "dropped_records": dropped,
    }
    return X, lengths, info


def _ingest_2012(raw: Path, workers: int):
    records, dropped = physionet.load_records_2012(raw, workers=workers)
    outcomes = physionet.load_outcomes_2012(raw)
    missing = [r.record_id for r in records if r.record_id not in outcomes]
    if missing:
        raise ValueError(f"records without outcomes: {missing[:5]}")
    X, lengths, info = _physionet_master(raw, records, dropped, "Mins")
    y = np.array([[float(outcomes[r.record_id])] for r in records])
    return X, y, lengths, info


def _ingest_2019(raw: Path, workers: int, binary: bool):
    records, labels, dropped = physionet.load_records_2019(raw, workers=workers, binary=binary)
    X, lengths, info = _physionet_master(raw, records, dropped, "ICULOS")
    if binary:
        y = labels.astype(np.float64).reshape(-1, 1)
    else:
        y = pad_to_longest([r.step_labels[:, None] for r in records])[0][:, :, 0]
    return X, y, lengths, info


def _ingest(config: PipelineConfig, root: Path, workers: int):
    kind = config.kind
    if kind == UEA:
        return _ingest_uea(fetch.raw_dir(root, config.dataset.lower()), config.dataset)
    # the binary 2019 variant reads the same raw files as the full challenge
    raw = fetch.raw_dir(root, fetch.REGISTRY[kind].name)
    if kind == PHYSIONET2012:
        return _ingest_2012(raw, workers)
    return _ingest_2019(raw, workers, binary=kind == PHYSIONET2019_BINARY)


def _master(config: PipelineConfig, root: Path, workers: int):
    if not config.overwrite_cache:
        try:
            X, y, length, meta = cache_store.load(root, config.key)
            return X, y, length, meta["dataset_info"]
        except cache_store.CacheCorrupt as err:
            logger.warning("rebuilding corrupt cache entry: %s", err)
        except cache_store.CacheMiss:
            pass
    X, y, length, info = _ingest(config, root, workers)
    cache_store.save(root, config.key, X, y, length, dataset_info=info)
    return X, y, length, info


def _strata(config: PipelineConfig, y: np.ndarray) -> np.ndarray:
    if config.kind == UEA:
        return np.argmax(y, axis=1)
    if config.kind == PHYSIONET2019:
        # per-step targets: stratify on whether the patient is ever septic
        return (np.nanmax(y, axis=1) > 0).astype(np.int64)
    return y[:, 0].astype(np.int64)


def _data_block_indices(d: int, indices, what: str) -> list[int]:
    out = []
    for idx in indices:
        idx = int(idx)
        if not 1 <= idx <= d:
            raise ConfigError(
                f"{what} index {idx} outside data channels 1..{d} "
                "(channel 0 is the time stamp)"
            )
        out.append(idx - 1)
    return out


def build(config: PipelineConfig, workers: int = 1) -> Dataset:
    """Run the full pipeline for ``config`` and return the dataset.

    ``workers`` is the number of worker processes that parse PhysioNet
    record files on a cache miss (``workers=1`` parses in this process);
    results are byte-identical for any worker count.
    """
    config.validate()
    root = Path(config.path)

    with _step(1, "cache check / ingest"):
        X, y, lengths, info = _master(config, root, workers)
    d = X.shape[2] - 1
    if not np.isscalar(config.missing) and len(config.missing) != d:
        raise ConfigError(f"missing list has {len(config.missing)} entries for {d} data channels")

    categorical = list(config.categorical)
    channel_means = dict(config.channel_means)
    if config.kind == PHYSIONET2012:
        categorical = sorted(set(categorical) | set(PHYSIONET_2012_CATEGORICAL))
        channel_means = {**PHYSIONET_2012_CHANNEL_MEANS, **channel_means}
    cat_cols = _data_block_indices(d, categorical, "categorical")
    mean_overrides = {
        _data_block_indices(d, [k], "channel_means")[0]: float(v)
        for k, v in channel_means.items()
    }

    with _step(3, "simulate missing data"):
        if (np.asarray(config.missing, dtype=np.float64) > 0).any():
            X = transforms.simulate_missing(X, lengths, config.missing, config.seed)

    with _step(4, "append time/mask/delta channels"):
        X_out, layout = _assemble_channels(config, X, lengths, info)
    del X  # the master: from here on only the assembled output is held

    with _step(5, "stratified split"):
        assignment = stratified_split(_strata(config, y), config.split_spec())
        split_of_index = assignment.split_of_index(len(lengths))

    # training rows of the contiguous data block: one gather, no full copy
    train_idx = np.flatnonzero(split_of_index == SPLIT_CODES["train"])
    data = layout.data_slice
    with _step(6, "standardise"):
        stats = channel_stats(X_out[train_idx, :, data], lengths[train_idx], categorical=cat_cols)
        if config.standardise:
            standardise_in_place(X_out, layout, stats)

    with _step(7, "impute"):
        if callable(config.impute) or config.impute != "none":
            # fill statistics are taken from the training split as imputation
            # sees it, i.e. post-standardisation when that step ran
            fill_stats = (
                channel_stats(X_out[train_idx, :, data], lengths[train_idx], categorical=cat_cols)
                if config.standardise
                else stats
            )
            fill = transforms.build_fill(
                fill_stats,
                config.impute,
                categorical=cat_cols,
                channel_means=mean_overrides,
            )
            if callable(config.impute):
                # a custom method may look across rows, so it sees one split
                # at a time
                y = y.astype(np.float64, copy=True)
                for code in np.unique(split_of_index):
                    rows = split_of_index == code
                    X_rows, y_rows = transforms.impute(
                        X_out[rows], y[rows], lengths[rows], layout.data_indices,
                        config.impute, fill,
                    )
                    X_out[rows] = X_rows
                    y[rows] = y_rows
            else:
                # built-in methods fill each row from itself and the
                # training-only fill values: all rows at once is the same
                transforms.impute_in_place(X_out, lengths, data, config.impute, fill)

    with _step(8, "bind split views"):
        dataset = Dataset(
            X_full=X_out,
            y_full=y,
            length_full=lengths.astype(np.int64),
            layout=layout,
            stats=stats,
            split_of_index=split_of_index,
            split=config.split,
            has_test=config.val_prop is not None,
            name=config.dataset,
            dropped_records=int(info.get("dropped_records", 0)),
        )
        dataset.split_rows(config.split)  # fail fast on an invalid selection
    return dataset


def _assemble_channels(
    config: PipelineConfig, X: np.ndarray, lengths: np.ndarray, info: dict
) -> tuple[np.ndarray, ChannelLayout]:
    """Step 4: the output is allocated once, and the time stamp, data, mask
    and delta blocks are written into their channel slices of it."""
    n, s, c = X.shape
    time_name = info["time_channel"]
    data_names = list(info["channels"])
    cover = slice(0, c) if info["mask_covers_time"] else slice(1, c)
    cover_names = ([time_name] + data_names) if info["mask_covers_time"] else data_names

    channels: list[Channel] = []
    if config.time:
        channels.append(Channel(name=time_name, kind=TIME))
    channels.extend(Channel(name=name, kind=DATA) for name in data_names)
    if config.mask:
        channels.extend(Channel(name=f"mask_{name}", kind=MASK) for name in cover_names)
    if config.delta:
        channels.extend(Channel(name=f"delta_{name}", kind=DELTA) for name in cover_names)
    layout = ChannelLayout(channels=tuple(channels))

    m = len(cover_names)
    out = np.empty((n, s, layout.n_channels))
    first = 0 if config.time else 1
    col = c - first
    out[:, :, :col] = X[:, :, first:]
    if config.mask:
        mask = transforms.observational_mask(X[:, :, cover], lengths, out=out[:, :, col : col + m])
        col += m
    elif config.delta:
        mask = ~np.isnan(X[:, :, cover])  # time_delta reads only valid steps
    if config.delta:
        transforms.time_delta(X[:, :, 0], mask, lengths, out=out[:, :, col : col + m])
    return out, layout

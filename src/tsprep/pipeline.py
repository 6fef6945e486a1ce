"""End-to-end dataset construction.

``build`` executes the fixed step order: (1) cache check, (2) ingest and
cache the master pool on a miss, (3) simulate missing data, (4) append
time/mask/delta channels, (5) stratified split, (6) standardise, (7)
impute, (8) bind the requested split. Simulation happens on the master set
before splitting, masks reflect pre-imputation missingness and both
standardisation and imputation statistics come from the training split
only.

Steps 1-7 hold the master and the assembled output as their real time steps
only, record after record (``(sum of lengths, c)``, bounded by the lengths);
the cache stores the master that way too. The padded ``(n, s, c)`` form is
made only where a tensor leaves the package (:class:`Dataset` accessors,
``batching.batches`` and the writers), one block at a time, but for a custom
imputation: step 7 pads each split whole for it and keeps what it returns.

Steps 4, 6 and 7 run over row blocks of whole sequences, each of about
``tensorfile.BLOCK_BYTES`` of output: a block is copied from the master,
gets its mask and delta channels, and is standardised and imputed while it
is still in cache, with temporaries of one block. The training statistics
cannot wait for the blocks, so they come first, from one gather of the
training steps' data channels (which step 4 copies unchanged from the
master): statistics, then, to impute standardised values, that copy
standardised in place and the fill statistics. The gather borrows the front
of the output's memory, which no block is written to before then. Step 5 reads only the targets
and runs before them. Every value is computed as a whole-array pass would
compute it, so the blocks do not change a byte.

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
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from tsprep import cache_store, fetch, physionet, tensorfile, transforms
from tsprep.splits import SplitSpec, stratified_split
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
    Ragged,
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


def _channel_indices(value) -> tuple[int, ...]:
    if isinstance(value, (str, bytes)):  # "12" is not channels (1, 2)
        raise TypeError(value)
    return tuple(map(int, value))


def _seed(value) -> Optional[int]:
    if isinstance(value, bool):  # a manifest's seed is an integer or null, and true is neither
        raise TypeError(value)
    return None if value is None else operator.index(value)


def _flag(value) -> bool:
    if not isinstance(value, (bool, np.bool_)):  # "no" is truthy, and 1 or None is no flag
        raise TypeError(value)
    return bool(value)


@dataclass(frozen=True)
class PipelineConfig:
    """Complete argument surface of the pipeline.

    ``dataset`` is a UEA/UCR problem name (e.g. "ArrowHead") or one of
    "physionet2012", "physionet2019", "physionet2019binary". Defaults match
    the documented argument table: no simulated missingness, no imputation,
    time stamp on, mask/delta/standardise off, cache under ``path``.

    Each field with more than one accepted form is converted once, here:
    proportions to ``float`` (``val_prop`` may stay ``None``), ``seed``
    through ``operator.index`` (numpy integers pass, a bool does not),
    ``missing`` to a float or a tuple of floats, ``path`` to ``str``, and
    the flags (``time``, ``mask``, ``delta``, ``standardise``,
    ``overwrite_cache``) from ``bool`` or ``np.bool_`` to ``bool``. So
    numpy scalars are accepted, and the manifest's config echo can always
    be written; a value that does not convert raises :class:`ConfigError`
    naming its field. The converted values are then checked however the
    config is made, ``dataclasses.replace`` included, so an invalid config
    never exists.
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

    def __post_init__(self) -> None:
        # the one conversion of each field that has more than one accepted
        # form, so the manifest's config echo rebuilds an equal config
        for name, convert in (
            ("train_prop", float),
            ("val_prop", lambda v: None if v is None else float(v)),
            ("seed", _seed),
            ("missing", lambda v: float(v) if np.ndim(v) == 0 else tuple(map(float, v))),
            ("categorical", _channel_indices),
            ("channel_means", lambda v: {int(k): float(x) for k, x in dict(v).items()}),
            ("path", os.fspath),
            *((flag, _flag)
              for flag in ("time", "mask", "delta", "standardise", "overwrite_cache")),
        ):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, convert(value))
            except (TypeError, ValueError):
                raise ConfigError(f"{name}: cannot convert {value!r}") from None
        # then the one check of the converted values: every config is valid
        try:
            fetch.source(self.dataset)
            self.split_spec()
        except (KeyError, ValueError) as err:
            raise ConfigError(err.args[0]) from None
        allowed = ("train", "val", "test") if self.val_prop is not None else ("train", "val")
        if self.split not in allowed:
            raise ConfigError(f"split must be one of {allowed}, got {self.split!r}")
        props = self.missing if isinstance(self.missing, tuple) else (self.missing,)
        if self.kind != UEA and any(p != 0.0 for p in props):
            raise ConfigError("missing-data simulation applies to UEA datasets only")
        if any(not 0.0 <= p <= 1.0 for p in props):
            raise ConfigError("missing proportions must be in [0, 1]")
        if not (callable(self.impute) or self.impute in transforms.IMPUTE_METHODS):
            raise ConfigError(
                f"impute must be one of {transforms.IMPUTE_METHODS} or a callable"
            )

    @property
    def kind(self) -> str:
        return UEA if self.dataset.lower() not in _RESERVED else self.dataset.lower()

    @property
    def key(self) -> str:
        """Cache directory name for the master set."""
        return f"uea_{self.dataset.lower()}" if self.kind == UEA else self.kind

    def split_spec(self) -> SplitSpec:
        return SplitSpec(train_prop=self.train_prop, val_prop=self.val_prop, seed=self.seed)


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
    paths = {}
    for path in sorted(raw.rglob("*.ts")):  # one walk: the first path of each lower-case stem
        paths.setdefault(path.stem.lower(), path)
    train_path = paths.get(f"{dataset.lower()}_train")
    if train_path is None:
        raise FileNotFoundError(f"no {dataset}_TRAIN.ts under {raw} (run `tsprep fetch` first)")
    train = parse_ts_file(train_path.read_text(encoding="utf-8"))
    test = None
    test_path = paths.get(f"{dataset.lower()}_test")
    if test_path is not None:
        test = parse_ts_file(test_path.read_text(encoding="utf-8"))
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


def _physionet_master(raw: Path, records: list, dropped: int, time_channel: str):
    """The ``[times | values]`` rows of PhysioNet records, record after
    record, their lengths and the ``dataset_info`` of the cache entry."""
    if not records:
        raise ValueError(f"no usable records under {raw}")
    names = records[0].channel_names
    for r in records:
        if r.channel_names != names:
            raise ValueError(f"record {r.record_id} has a different channel set")
    lengths = np.array([len(r.times) for r in records], dtype=np.int64)
    X = np.empty((int(lengths.sum()), 1 + len(names)))
    stops = np.cumsum(lengths)
    for r, start, stop in zip(records, (stops - lengths).tolist(), stops.tolist()):
        X[start:stop, 0] = r.times
        X[start:stop, 1:] = r.values
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
    raw = fetch.raw_dir(root, fetch.source(config.dataset).name)
    if kind == UEA:
        X, y, lengths, info = _ingest_uea(raw, config.dataset)
        return Ragged.of_padded(X, lengths).values, y, lengths, info
    if kind == PHYSIONET2012:
        return _ingest_2012(raw, workers)
    return _ingest_2019(raw, workers, binary=kind == PHYSIONET2019_BINARY)


def _master(config: PipelineConfig, root: Path, workers: int):
    if not config.overwrite_cache:
        try:
            X, y, length, meta = cache_store.load(root, config.key)
            tensorfile.check_bounds(cache_store.entry_dir(root, config.key), length,
                                    X.shape, y.shape)
            return X, y, length, meta["dataset_info"]
        except (cache_store.CacheCorrupt, tensorfile.TensorFileError) as err:
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
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    root = Path(config.path)

    with _step(1, "cache check / ingest"):
        X, y, lengths, info = _master(config, root, workers)
    d = X.shape[1] - 1
    if isinstance(config.missing, tuple) and len(config.missing) != d:
        raise ConfigError(f"missing list has {len(config.missing)} entries for {d} data channels")

    categorical, channel_means = config.categorical, config.channel_means
    if config.kind == PHYSIONET2012:
        categorical = sorted(set(categorical) | set(PHYSIONET_2012_CATEGORICAL))
        channel_means = {**PHYSIONET_2012_CHANNEL_MEANS, **channel_means}
    cat_cols = _data_block_indices(d, categorical, "categorical")
    mean_cols = _data_block_indices(d, channel_means, "channel_means")
    mean_overrides = dict(zip(mean_cols, channel_means.values()))

    with _step(3, "simulate missing data"):
        if np.max(config.missing) > 0:
            X = transforms.simulate_missing(X, lengths, config.missing, config.seed)

    # Step 5 reads only the targets, and step 6's statistics read only the
    # data channels of the training steps, which step 4 copies unchanged from
    # the master: both run first, so that one pass over the output's row
    # blocks then assembles, standardises and imputes each block in turn.
    with _step(5, "stratified split"):
        assignment = stratified_split(_strata(config, y), config.split_spec())
        split_of_index = assignment.split_of_index(len(lengths))

    is_train = split_of_index == SPLIT_CODES["train"]
    layout = _layout(config, info)
    X_out = np.empty((len(X), layout.n_channels))
    with _step(6, "standardise"):
        # one gather of the training steps, record after record, gives the
        # padded statistics bitwise. It is held in the front of the output's
        # memory, which no block is written to before step 4, so it needs no
        # allocation of its own, which the C allocator could keep on the
        # heap, once freed, while the master and output are held
        n_train = int(lengths[is_train].sum())
        train = X_out.reshape(-1)[: n_train * d].reshape(n_train, d)
        _train_steps(X, lengths, is_train, train)
        stats = channel_stats(train, lengths[is_train], categorical=cat_cols)

    fill = None
    with _step(7, "impute"):
        if callable(config.impute) or config.impute != "none":
            fill_stats = stats
            if config.standardise:  # imputation sees standardised values
                data = ChannelLayout(layout.channels[layout.data_slice])
                standardise_in_place(train, data, stats)
                fill_stats = channel_stats(train, lengths[is_train], categorical=cat_cols)
            fill = transforms.build_fill(
                fill_stats,
                config.impute,
                categorical=cat_cols,
                channel_means=mean_overrides,
            )
    del train

    with _step(4, "append time/mask/delta channels"):
        # built-in methods fill each row from its own sequence and the
        # training-only fill values, so they run block by block
        X_out, layout = _assemble_channels(
            config, X, lengths, info, stats, None if callable(config.impute) else fill, X_out
        )
        ragged = Ragged.of_lengths(X_out, lengths)
    del X  # the master: from here on only the assembled output is held

    if callable(config.impute):
        with _step(7, "impute"):
            # a custom method may look across rows, so it sees one split at a
            # time, padded; it may write into the padding too, so what it
            # returns is kept whole: every sequence at the padded width
            # (y is written in place: every source gives float64 y, held by this build alone)
            imputed = []
            for code in np.unique(split_of_index):
                rows = np.flatnonzero(split_of_index == code)
                X_rows, y[rows] = transforms.impute(
                    ragged.pad(rows), y[rows], lengths[rows], layout.data_indices,
                    config.impute, fill,
                )
                imputed.append((rows, X_rows))
            # allocated only now, with the real-step output released, and
            # each split released as soon as it is copied in
            shape = ragged.shape
            del ragged, X_out, X_rows
            X_pad = np.empty(shape)
            while imputed:
                rows, X_pad[rows] = imputed.pop()
            ragged = Ragged.of_padded(X_pad, np.full(len(lengths), shape[1]))

    # step 8: a config admits only a split that it configures
    return Dataset(
        X_full=ragged,
        y_full=y,
        length_full=lengths,
        layout=layout,
        stats=stats,
        split_of_index=split_of_index,
        split=config.split,
        has_test=config.val_prop is not None,
        name=config.dataset,
        dropped_records=info["dropped_records"],
    )


def _row_blocks(lengths: np.ndarray, row_bytes: int):
    """Consecutive blocks of whole sequences as ``(i, j, start, end)``:
    sequences ``i:j``, which hold rows ``start:end``. A block holds at most
    ``tensorfile.BLOCK_BYTES`` at ``row_bytes`` per row, unless it is one
    sequence that alone holds more."""
    stops = np.cumsum(lengths)
    rows = max(1, tensorfile.BLOCK_BYTES // row_bytes)
    i, start = 0, 0
    while i < len(lengths):
        j = max(i + 1, int(np.searchsorted(stops, start + rows, side="right")))
        end = int(stops[j - 1])
        yield i, j, start, end
        i, start = j, end


def _train_steps(
    X: np.ndarray, lengths: np.ndarray, is_train: np.ndarray, out: np.ndarray
) -> None:
    """Write the data channels of the training sequences' steps, record after
    record, into ``out`` (``(sum of their lengths, d)``), gathered one row
    block of the master ``X`` at a time, so no index over every row is held."""
    filled = 0
    for i, j, start, end in _row_blocks(lengths, X.shape[1] * X.itemsize):
        rows = np.flatnonzero(np.repeat(is_train[i:j], lengths[i:j]))
        # in range by construction; "wrap" keeps np.take from buffering
        np.take(X[start:end, 1:], rows, axis=0, out=out[filled : filled + len(rows)], mode="wrap")
        filled += len(rows)


def _layout(config: PipelineConfig, info: dict) -> ChannelLayout:
    """The output channels: time stamp, data, then mask and delta channels
    of the source channels."""
    time_name = info["time_channel"]
    data_names = list(info["channels"])
    cover_names = ([time_name] + data_names) if info["mask_covers_time"] else data_names
    channels: list[Channel] = []
    if config.time:
        channels.append(Channel(name=time_name, kind=TIME))
    channels.extend(Channel(name=name, kind=DATA) for name in data_names)
    if config.mask:
        channels.extend(Channel(name=f"mask_{name}", kind=MASK) for name in cover_names)
    if config.delta:
        channels.extend(Channel(name=f"delta_{name}", kind=DELTA) for name in cover_names)
    return ChannelLayout(channels=tuple(channels))


def _assemble_channels(
    config: PipelineConfig,
    X: np.ndarray,
    lengths: np.ndarray,
    info: dict,
    stats: Optional[ChannelStats] = None,
    fill: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, ChannelLayout]:
    """Step 4 on the master's real steps ``(sum of lengths, c)``: the output
    is allocated once (or given as ``out``), and the time stamp, data, mask
    and delta blocks are written into their channel slices of it.

    The output is written one row block of whole sequences at a time
    (:func:`_row_blocks`), and each block then gets the steps that follow
    while it is still in cache: standardisation by ``stats`` (step 6, when
    ``config.standardise``) and built-in imputation from ``fill`` (step 7,
    when ``fill`` is given). No transform looks past a sequence, so the
    blocks give the bytes of one pass over all rows."""
    c = X.shape[1]
    layout = _layout(config, info)
    cover = slice(0, c) if info["mask_covers_time"] else slice(1, c)
    m = cover.stop - cover.start
    first = 0 if config.time else 1
    if out is None:
        out = np.empty((len(X), layout.n_channels))
    for i, j, start, end in _row_blocks(lengths, out.shape[1] * out.itemsize):
        source, block, block_lengths = X[start:end], out[start:end], lengths[i:j]
        col = c - first
        block[:, :col] = source[:, first:]
        if config.mask:
            mask = transforms.observational_mask(
                source[:, cover], block_lengths, out=block[:, col : col + m]
            )
            col += m
        elif config.delta:
            mask = ~np.isnan(source[:, cover])
        if config.delta:
            try:
                transforms.time_delta(source[:, 0], mask, block_lengths,
                                      out=block[:, col : col + m])
            except transforms.StampError as err:  # name the sequence, not its place in the block
                raise transforms.StampError(i + err.sequence) from None
        if stats is not None and config.standardise:
            with _step(6, "standardise"):
                standardise_in_place(block, layout, stats)
        if fill is not None:
            with _step(7, "impute"):
                transforms.impute_in_place(block, block_lengths, layout.data_slice,
                                           config.impute, fill)
    return out, layout

"""PhysioNet 2012 and 2019 challenge record parsing.

The 2012 challenge stores one patient per text file in a long format
(``Time,Parameter,Value`` rows, ``HH:MM`` stamps, ``-1`` marking missing
values, channels in arbitrary order). Records are pivoted to a wide matrix
in the fixed 45-column order below. The 2019 challenge uses one
pipe-separated ``.psv`` row per hour with a per-row ``SepsisLabel``.
"""

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# Wide-format 2012 column order. Column 0 is the time stamp in minutes since
# ICU admission; 1-37 are time series; 38-44 are derived from the static
# descriptors (ICUType one-hot encoded into 41-44).
PHYSIONET_2012_CHANNELS: tuple[str, ...] = (
    "Mins",
    "Albumin",
    "ALP",
    "ALT",
    "AST",
    "Bilirubin",
    "BUN",
    "Cholesterol",
    "Creatinine",
    "DiasABP",
    "FiO2",
    "GCS",
    "Glucose",
    "HCO3",
    "HCT",
    "HR",
    "K",
    "Lactate",
    "Mg",
    "MAP",
    "MechVent",
    "Na",
    "NIDiasABP",
    "NIMAP",
    "NISysABP",
    "PaCO2",
    "PaO2",
    "pH",
    "Platelets",
    "RespRate",
    "SaO2",
    "SysABP",
    "Temp",
    "TroponinI",
    "TroponinT",
    "Urine",
    "WBC",
    "Weight",
    "Age",
    "Gender",
    "Height",
    "ICUType1",
    "ICUType2",
    "ICUType3",
    "ICUType4",
)

# Time series parameter -> data-column index (0-based within the 44 data
# columns, i.e. channel number minus one). The data dictionary's TropI/TropT
# spellings are accepted alongside the full names used in the record files.
_SERIES_PARAMS: dict[str, int] = {
    name: i for i, name in enumerate(PHYSIONET_2012_CHANNELS[1:38])
}
_SERIES_PARAMS["TropI"] = _SERIES_PARAMS["TroponinI"]
_SERIES_PARAMS["TropT"] = _SERIES_PARAMS["TroponinT"]

_STATIC_PARAMS = ("Age", "Gender", "Height", "ICUType")


class RecordParseError(ValueError):
    """Raised for malformed patient record or outcome files."""


@dataclass
class PatientRecord:
    """One patient's observations on a strictly increasing time grid.

    ``times`` are minutes since admission (2012) or ICULOS hours (2019);
    ``values`` is a rows x data-channels matrix with NaN for missing cells.
    2019 records carry per-row ``step_labels``.
    """

    record_id: str
    times: np.ndarray
    values: np.ndarray
    channel_names: tuple[str, ...]
    step_labels: Optional[np.ndarray] = None

    @property
    def n_steps(self) -> int:
        return len(self.times)


def _clean(value: str) -> float:
    """Parse a 2012 value; -1 is the challenge's missing indicator."""
    value = value.strip()
    if value == "":
        return math.nan
    try:
        v = float(value)
    except ValueError:
        raise RecordParseError(f"unparseable value {value!r}") from None
    return math.nan if v == -1.0 else v


def _parse_minutes(stamp: str) -> int:
    parts = stamp.strip().split(":")
    if len(parts) != 2:
        raise RecordParseError(f"unparseable time stamp {stamp!r}")
    try:
        hours, minutes = int(parts[0]), int(parts[1])
    except ValueError:
        raise RecordParseError(f"unparseable time stamp {stamp!r}") from None
    if hours < 0 or not 0 <= minutes < 60:
        raise RecordParseError(f"unparseable time stamp {stamp!r}")
    return 60 * hours + minutes


def parse_patient_2012(text: str) -> PatientRecord:
    """Pivot one long-format 2012 record to the wide 44-data-channel layout.

    The time grid is the sorted set of minutes carrying at least one time
    series measurement; a later duplicate of the same (parameter, minute)
    cell wins. Static descriptors (including any -1 in the descriptor rows,
    which parses as missing) are broadcast to every row, with ICUType one-hot
    encoded and an unknown ICUType leaving all four indicator columns NaN.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        head = next(reader)
    except StopIteration:
        raise RecordParseError("empty record file") from None
    if [h.strip() for h in head] != ["Time", "Parameter", "Value"]:
        raise RecordParseError(f"unexpected header {head!r}")

    record_id: Optional[str] = None
    statics: dict[str, float] = {}
    cells: dict[tuple[int, int], float] = {}
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise RecordParseError(f"expected 3 columns, got {row!r}")
        stamp, param, value = (col.strip() for col in row)
        minute = _parse_minutes(stamp)
        if param == "RecordID":
            record_id = str(int(float(value)))
            continue
        if param in _STATIC_PARAMS:
            statics[param] = _clean(value)
            continue
        col = _SERIES_PARAMS.get(param)
        if col is None:
            raise RecordParseError(f"unknown parameter name {param!r}")
        cells[(minute, col)] = _clean(value)

    if record_id is None:
        raise RecordParseError("missing RecordID row")

    grid = sorted({minute for minute, _ in cells})
    row_of = {minute: i for i, minute in enumerate(grid)}
    values = np.full((len(grid), 44), np.nan)
    for (minute, col), v in cells.items():
        values[row_of[minute], col] = v

    # statics broadcast to every time step; data columns are channel - 1
    age = statics.get("Age", math.nan)
    gender = statics.get("Gender", math.nan)
    height = statics.get("Height", math.nan)
    icu_type = statics.get("ICUType", math.nan)
    values[:, 37] = age  # channel 38
    values[:, 38] = gender  # channel 39
    values[:, 39] = height  # channel 40
    if icu_type in (1.0, 2.0, 3.0, 4.0):
        onehot = np.zeros(4)
        onehot[int(icu_type) - 1] = 1.0
        values[:, 40:44] = onehot  # channels 41-44
    else:
        values[:, 40:44] = np.nan

    return PatientRecord(
        record_id=record_id,
        times=np.array(grid, dtype=np.float64),
        values=values,
        channel_names=PHYSIONET_2012_CHANNELS[1:],
    )


def parse_outcomes_2012(text: str) -> dict[str, int]:
    """Parse an ``Outcomes-*.txt`` file to a record_id -> in-hospital death
    (0 or 1) map."""
    reader = csv.DictReader(io.StringIO(text))
    columns = reader.fieldnames or []
    if "RecordID" not in columns:
        raise RecordParseError("outcomes file lacks a RecordID column")
    if "In-hospital_death" not in columns:
        raise RecordParseError("outcomes file lacks an In-hospital_death column")
    outcomes: dict[str, int] = {}
    for row in reader:
        missing = list(row.values()).count(None)  # DictReader's filler for a short row
        if missing:
            raise RecordParseError(f"line {reader.line_num}: expected {len(columns)} columns, "
                                   f"got {len(columns) - missing}")
        record_id = str(int(float(row["RecordID"])))
        if record_id in outcomes:
            raise RecordParseError(f"duplicate record id {record_id}")
        label = row["In-hospital_death"].strip()
        if label not in ("0", "1"):
            raise RecordParseError(f"label {label!r} for record {record_id} not in {{0, 1}}")
        outcomes[record_id] = int(label)
    return outcomes


def parse_patient_2019(text: str, record_id: str = "") -> PatientRecord:
    """Parse one 2019 ``.psv`` file: one row per hour, ``|``-separated,
    empty cells missing, ``ICULOS`` as the time stamp and per-row
    ``SepsisLabel`` targets.

    A well-formed file is converted with one numpy call over all its cells
    (numpy converts each string as ``float`` does, so ``NaN`` in any case,
    ``-nan``, padding and ``1e500`` give the same bits). A file with a blank
    cell or any defect takes the per-cell path, which reads a blank as NaN
    and raises the error for the first bad line.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RecordParseError("empty record file")
    header = [h.strip() for h in lines[0].split("|")]
    for required in ("ICULOS", "SepsisLabel"):
        if required not in header:
            raise RecordParseError(f"missing {required} column")
    iculos_col = header.index("ICULOS")
    label_col = header.index("SepsisLabel")
    data_cols = [i for i in range(len(header)) if i not in (iculos_col, label_col)]

    table = _table_2019(lines[1:], len(header))
    if table is not None and ((table[:, label_col] == 0.0) | (table[:, label_col] == 1.0)).all():
        times = table[:, iculos_col].copy()
        labels = table[:, label_col].astype(np.int64)
        values = table.take(data_cols, axis=1)
    else:
        times, labels, values = _rows_2019(lines, len(header), iculos_col, label_col, data_cols)

    if np.isnan(times).any() or (np.diff(times) <= 0).any():
        raise RecordParseError("ICULOS values must be strictly increasing")
    return PatientRecord(
        record_id=record_id,
        times=times,
        values=values,
        channel_names=tuple(header[i] for i in data_cols),
        step_labels=labels,
    )


def _table_2019(body: list[str], n_cols: int) -> Optional[np.ndarray]:
    """All cells of the body lines as a rows x columns float table, or None
    if a line has the wrong column count or a cell numpy cannot convert."""
    if not body:
        return np.empty((0, n_cols))
    if {line.count("|") for line in body} != {n_cols - 1}:
        return None
    try:
        cells = np.array("|".join(body).split("|"), dtype=np.float64)
    except ValueError:
        return None
    return cells.reshape(len(body), n_cols)


def _rows_2019(
    lines: list[str], n_cols: int, iculos_col: int, label_col: int, data_cols: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-by-cell parse of the body lines to ``(times, labels, values)``;
    raises for the first malformed line."""
    times, labels, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("|")
        if len(cells) != n_cols:
            raise RecordParseError(f"line {lineno}: expected {n_cols} columns, got {len(cells)}")

        def cell(i: int) -> float:
            token = cells[i].strip()
            if token == "" or token.lower() == "nan":
                return math.nan
            try:
                return float(token)
            except ValueError as err:
                err.lineno = lineno  # _naming adds it to the loader's message; the text stays
                raise

        times.append(cell(iculos_col))
        label = cell(label_col)
        if label not in (0.0, 1.0):
            raise RecordParseError(f"line {lineno}: SepsisLabel must be 0 or 1")
        labels.append(int(label))
        rows.append([cell(i) for i in data_cols])
    return (
        np.array(times, dtype=np.float64),
        np.array(labels, dtype=np.int64),
        np.array(rows, dtype=np.float64).reshape(len(times), len(data_cols)),
    )


def to_binary_2019(record: PatientRecord) -> tuple[PatientRecord, int]:
    """Binary sepsis variant of one record, the reference for the build's cut
    of the 2019 master: keep the first 72 ICULOS hours; the label is 1 iff any
    row of the full stay is septic (onset after the cutoff still labels 1)."""
    if record.step_labels is None:
        raise ValueError("record has no per-step sepsis labels")
    keep = record.times <= 72.0
    if not keep.any():
        raise RecordParseError(f"record {record.record_id}: no rows within 72 hours")
    label = int(record.step_labels.max())
    truncated = PatientRecord(
        record_id=record.record_id,
        times=record.times[keep],
        values=record.values[keep],
        channel_names=record.channel_names,
        step_labels=record.step_labels[keep],
    )
    return truncated, label


# Chunks of paths per pool process: enough to even out unequal file sizes,
# few enough that each task's pickling and scheduling stays negligible.
_CHUNKS_PER_WORKER = 4


@contextmanager
def _naming(name: str):
    """Name the file (its path under the raw directory) in its parse error,
    and the line that a ``float()`` error carries as ``lineno``."""
    try:
        yield
    except (ValueError, OverflowError, csv.Error) as err:
        line = getattr(err, "lineno", None)
        where = name if line is None else f"{name}: line {line}"
        raise RecordParseError(f"{where}: {err}") from err


def _parse_2012_file(path: Path) -> PatientRecord:
    with _naming(f"{path.parent.name}/{path.name}"):
        return parse_patient_2012(path.read_text(encoding="utf-8"))


def _parse_2019_file(path: Path) -> PatientRecord:
    with _naming(f"{path.parent.name}/{path.name}"):
        return parse_patient_2019(path.read_text(encoding="utf-8"), record_id=path.stem)


def _read_parallel(paths: list[Path], parse_file, workers: int) -> list[PatientRecord]:
    """``parse_file`` on each path, in up to ``workers`` processes.

    The pool has at most as many processes as paths or CPUs; with one or
    none the files are parsed in this process. ``Executor.map`` sends
    contiguous chunks, ``_CHUNKS_PER_WORKER`` per process, and returns the
    results in path order: the output equals the serial parse for any worker
    count, and the first bad file in path order is the one whose error is
    raised.
    """
    size = min(workers, os.cpu_count() or 1, len(paths))
    if size <= 1:
        return [parse_file(path) for path in paths]
    chunksize = math.ceil(len(paths) / (_CHUNKS_PER_WORKER * size))
    # The platform's default start method: fork (Linux before Python 3.14)
    # starts a worker in milliseconds, while spawn re-imports numpy in every
    # worker, which made a 2-process parse of 500 stays 3x slower than one
    # in-process parse on a 2-CPU machine.
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(parse_file, paths, chunksize=chunksize))


def _load_records(
    directory: Path, pattern: str, parse_file, workers: int, id_key
) -> tuple[list[PatientRecord], int]:
    """Parse every ``pattern`` file under ``directory`` in up to ``workers``
    processes (``workers=1`` parses in this process; the output is
    byte-identical for any worker count). Returns the records with at least
    one row, sorted by ``id_key(record_id)``, and the count of the others."""
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise FileNotFoundError(f"no {pattern} record files under {directory}")
    records = _read_parallel(paths, parse_file, workers)
    kept = sorted((r for r in records if r.n_steps > 0), key=lambda r: id_key(r.record_id))
    return kept, len(records) - len(kept)


def load_records_2012(directory: Path, workers: int = 1) -> tuple[list[PatientRecord], int]:
    """Every ``set-*/*.txt`` record under ``directory``, sorted by record id,
    and the count of those dropped for having no time series rows (see
    :func:`_load_records`)."""
    return _load_records(directory, "set-*/*.txt", _parse_2012_file, workers, int)


def load_outcomes_2012(directory: Path) -> dict[str, int]:
    paths = sorted(directory.glob("Outcomes-*.txt"))
    if not paths:
        raise FileNotFoundError(f"no Outcomes-*.txt under {directory}")
    outcomes: dict[str, int] = {}
    for path in paths:
        with _naming(path.name):
            part = parse_outcomes_2012(path.read_text(encoding="utf-8"))
        dupes = outcomes.keys() & part.keys()
        if dupes:
            raise RecordParseError(f"duplicate record ids across outcome files: {sorted(dupes)}")
        outcomes.update(part)
    return outcomes


def load_records_2019(directory: Path, workers: int = 1) -> tuple[list[PatientRecord], int]:
    """Every ``training_set*/*.psv`` record under ``directory``, sorted by
    record id, and the count of those dropped for having no rows (see
    :func:`_load_records`); ``pipeline._cut_72h`` makes the binary variant."""
    return _load_records(directory, "training_set*/*.psv", _parse_2019_file, workers, str)

"""UEA & UCR repository ``.ts`` file parsing.

Supports the classification subset of the format used by the repository's
archive: ``#`` comment lines, ``@`` header directives, a ``@data`` section
with one series per line, ``:``-separated dimensions, ``,``-separated
values, ``?`` for missing values and a trailing class label.
"""

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

class TsParseError(ValueError):
    """Raised for malformed ``.ts`` content."""


@dataclass(frozen=True)
class TsHeader:
    problem_name: str
    univariate: bool
    series_length: Optional[int]
    has_timestamps: bool
    class_labels: tuple[str, ...]


class TsFile(NamedTuple):
    """One parsed ``.ts`` file: a label per series in file order, the series
    as one NaN-padded ``(n, max_length, d)`` array and their lengths."""

    header: TsHeader
    labels: list[str]
    X: np.ndarray
    lengths: np.ndarray


_BOOL = {"true": True, "false": False}

# a ``?`` that is a whole token once ``:`` has become ``,``: only whitespace
# between it and the neighbouring commas or the ends of the line
_MISSING = re.compile(r"(?<![^,\s])\?(?![^,\s])")


def _parse_bool(token: str, directive: str) -> bool:
    try:
        return _BOOL[token.lower()]
    except KeyError:
        raise TsParseError(f"@{directive}: expected true/false, got {token!r}") from None


def _parse_value(token: str) -> float:
    token = token.strip()
    if token == "?":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise TsParseError(f"invalid value {token!r}") from None


def _parse_dimension(dim: str) -> np.ndarray:
    """One dimension's comma-separated values as a float array: one numpy
    conversion (which converts each string as ``float`` does), or token by
    token where a ``?`` or an invalid token makes it fail."""
    tokens = dim.split(",")
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        return np.array([_parse_value(v) for v in tokens], dtype=np.float64)


def parse_ts_file(text: str) -> TsFile:
    """Parse one complete ``.ts`` file.

    Returns the header, one label per data line in file order, the series
    as one NaN-padded ``(n, max_length, d)`` array and their lengths.
    ``?`` tokens become NaN. Labels must match a declared ``@classLabel``
    entry.

    The data lines are checked as strings and converted with one
    ``np.loadtxt`` per series length. A file that fails either is read
    again line by line and token by token, which raises the error of its
    first defect or accepts the tokens that ``float`` takes and
    ``loadtxt`` refuses (``1_0``).
    """
    lines = text.splitlines()
    directives: dict[str, list[str]] = {}
    header: Optional[TsHeader] = None

    known = {
        "problemname",
        "timestamps",
        "missing",
        "univariate",
        "dimension",
        "dimensions",
        "equallength",
        "serieslength",
        "classlabel",
        "targetlabel",
        "data",
    }

    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("@"):
            raise TsParseError(f"line {lineno}: data before @data")
        tokens = line[1:].split()
        name = tokens[0].lower()
        if name not in known:
            raise TsParseError(f"line {lineno}: unknown directive @{tokens[0]}")
        if name == "data":
            if tokens[1:]:
                raise TsParseError(f"line {lineno}: @data takes no arguments")
            header = _build_header(directives)
            if header.has_timestamps:
                raise TsParseError("timestamped .ts syntax is not supported")
            break
        directives[name] = tokens[1:]
    if header is None:
        raise TsParseError("no @data section")

    body = lines[lineno:]
    declared = directives.get("dimension") or directives.get("dimensions")
    data = _read_whole(body, header, declared)
    if data is None:
        data = _read_per_token(body, lineno, header, declared)
    return TsFile(header, *data)


def _expected_dims(header: TsHeader, declared: Optional[list[str]], dims: list[str]) -> int:
    return int(declared[0]) if declared else 1 if header.univariate else len(dims)


def _read_whole(lines: list[str], header: TsHeader, declared: Optional[list[str]]):
    """Labels, padded array and lengths of the data lines, or ``None`` when
    a string check rejects a line or ``np.loadtxt`` refuses a value.

    Only strings are checked: the class label, the dimension count, equal
    comma counts across dimensions and ``@seriesLength``. Lines are grouped
    by series length, and each group is converted by one ``np.loadtxt``
    after ``:`` becomes ``,`` and each whole ``?`` token ``nan``.
    """
    labels: list[str] = []
    groups: dict[int, tuple[list[int], list[str]]] = {}
    d = 0
    for raw_line in lines:
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        cut = line.rfind(":")
        label = line[cut + 1 :].strip()
        values = line[:cut]
        if cut <= 0 or label not in header.class_labels:  # loadtxt skips empty lines
            return None
        dims = values.split(":")
        if not labels:
            try:
                d = _expected_dims(header, declared, dims)
            except ValueError:
                return None
        commas = dims[0].count(",")
        if len(dims) != d or any(dim.count(",") != commas for dim in dims[1:]):
            return None
        if header.series_length is not None and commas + 1 != header.series_length:
            return None
        values = values.replace(":", ",")
        if "?" in values:
            values = _MISSING.sub("nan", values)
        rows, texts = groups.setdefault(commas + 1, ([], []))
        rows.append(len(labels))
        texts.append(values)
        labels.append(label)

    blocks = []
    for length, (rows, texts) in groups.items():
        try:
            flat = np.loadtxt(texts, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            return None
        # a line holds one dimension after another: (k, d, L) to (k, L, d)
        blocks.append((rows, flat.reshape(len(rows), d, length).transpose(0, 2, 1)))
    return (labels, *_padded(blocks, len(labels), d))


def _read_per_token(
    lines: list[str], offset: int, header: TsHeader, declared: Optional[list[str]]
):
    """What :func:`_read_whole` returns, read line by line and token by
    token; raises the :class:`TsParseError` of the first defect."""
    labels: list[str] = []
    blocks = []
    expected_dims = 0
    for lineno, raw_line in enumerate(lines, start=offset + 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            raise TsParseError(f"line {lineno}: directive after @data")

        parts = [p.strip() for p in line.split(":")]
        if len(parts) < 2:
            raise TsParseError(f"line {lineno}: missing class label")
        label = parts[-1]
        if label not in header.class_labels:
            raise TsParseError(f"line {lineno}: unknown class label {label!r}")
        dims = parts[:-1]

        if not labels:
            expected_dims = _expected_dims(header, declared, dims)
        if len(dims) != expected_dims:
            raise TsParseError(
                f"line {lineno}: expected {expected_dims} dimensions, got {len(dims)}"
            )

        channels = [_parse_dimension(dim) for dim in dims]
        lengths = {len(c) for c in channels}
        if len(lengths) != 1:
            raise TsParseError(f"line {lineno}: unequal channel lengths within series")
        if header.series_length is not None and lengths.pop() != header.series_length:
            raise TsParseError(
                f"line {lineno}: series length differs from declared @seriesLength"
            )
        blocks.append(([len(labels)], np.stack(channels, axis=1)[None]))
        labels.append(label)
    return (labels, *_padded(blocks, len(labels), expected_dims))


def _padded(blocks: list, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The NaN-padded ``(n, max_length, d)`` array and the lengths of
    ``(rows, block)`` pairs, each block ``(len(rows), length, d)``."""
    lengths = np.zeros(n, dtype=np.int64)
    for rows, block in blocks:
        lengths[rows] = block.shape[1]
    if len(blocks) == 1:
        return blocks[0][1], lengths  # one length: every row, in file order
    X = np.full((n, int(lengths.max(initial=0)), d), np.nan)
    for rows, block in blocks:
        X[rows, : block.shape[1]] = block
    return X, lengths


def _build_header(directives: dict[str, list[str]]) -> TsHeader:
    def flag(name: str, default: bool = False) -> bool:
        if name not in directives:
            return default
        args = directives[name]
        if len(args) != 1:
            raise TsParseError(f"@{name}: expected one argument")
        return _parse_bool(args[0], name)

    class_args = directives.get("classlabel")
    if class_args is None or not _parse_bool(class_args[0], "classLabel"):
        raise TsParseError("classification problems require @classLabel true <labels>")
    class_labels = tuple(class_args[1:])
    if not class_labels:
        raise TsParseError("@classLabel true requires at least one label")

    flag("missing")  # validated only: ``?`` tokens mark the missing values
    equal_length = flag("equallength", default="serieslength" in directives)
    series_length: Optional[int] = None
    if equal_length:
        args = directives.get("serieslength")
        if args:
            try:
                series_length = int(args[0])
            except ValueError:
                raise TsParseError("@seriesLength: expected an integer") from None

    name_args = directives.get("problemname", [])
    return TsHeader(
        problem_name=name_args[0] if name_args else "",
        univariate=flag("univariate", default=True),
        series_length=series_length,
        has_timestamps=flag("timestamps"),
        class_labels=class_labels,
    )


def merge_train_test(
    train: TsFile, test: Optional[TsFile]
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Join a problem's parsed train and test files into its master pool,
    train-file series first, preserving file order.

    Returns the labels, one NaN-padded ``(n, max_length, 1 + d)`` array and
    the lengths. Channel 0 is each series' step index ``0, 1, ...`` (the
    format has no time stamps); the dimensions follow.
    """
    parts = [f for f in (train, test) if f is not None and len(f.labels)]
    counts = {f.X.shape[2] for f in parts}
    if len(counts) > 1:
        raise TsParseError(f"channel-count mismatch between files: {sorted(counts)}")
    if not parts:
        raise TsParseError("no series in the train or test file")
    lengths = np.concatenate([f.lengths for f in parts])
    steps = np.arange(lengths.max(), dtype=np.float64)
    X = np.empty((len(lengths), len(steps), 1 + counts.pop()))
    X[:, :, 0] = np.where(steps < lengths[:, None], steps, np.nan)
    start = 0
    for f in parts:
        n, s, _ = f.X.shape
        X[start : start + n, :s, 1:] = f.X
        X[start : start + n, s:, 1:] = np.nan
        start += n
    return [label for f in parts for label in f.labels], X, lengths

"""UEA & UCR repository ``.ts`` file parsing.

Supports the classification subset of the format used by the repository's
archive: ``#`` comment lines, ``@`` header directives, a ``@data`` section
with one series per line, ``:``-separated dimensions, ``,``-separated
values, ``?`` for missing values and a trailing class label.
"""

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass
class RawSeries:
    """One labelled multivariate series; channels are equal-length float
    arrays with NaN for missing values."""

    channels: list[np.ndarray]
    label: str

    @property
    def length(self) -> int:
        return len(self.channels[0])

    @property
    def n_channels(self) -> int:
        return len(self.channels)


_BOOL = {"true": True, "false": False}


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


def parse_ts_file(text: str) -> tuple[TsHeader, list[RawSeries]]:
    """Parse one complete ``.ts`` file.

    Returns the header and one :class:`RawSeries` per data line, in file
    order. ``?`` tokens become NaN. Labels must match a declared
    ``@classLabel`` entry.
    """
    directives: dict[str, list[str]] = {}
    series: list[RawSeries] = []
    header: Optional[TsHeader] = None
    expected_dims: Optional[int] = None

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

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            if header is not None:
                raise TsParseError(f"line {lineno}: directive after @data")
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
                continue
            directives[name] = tokens[1:]
            continue
        if header is None:
            raise TsParseError(f"line {lineno}: data before @data")

        parts = [p.strip() for p in line.split(":")]
        if len(parts) < 2:
            raise TsParseError(f"line {lineno}: missing class label")
        label = parts[-1]
        if label not in header.class_labels:
            raise TsParseError(f"line {lineno}: unknown class label {label!r}")
        dims = parts[:-1]

        if expected_dims is None:
            expected_dims = 1 if header.univariate else len(dims)
            declared = directives.get("dimension") or directives.get("dimensions")
            if declared:
                expected_dims = int(declared[0])
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
        series.append(RawSeries(channels=channels, label=label))

    if header is None:
        raise TsParseError("no @data section")
    return header, series


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


def merge_train_test(train: list[RawSeries], test: list[RawSeries]) -> list[RawSeries]:
    """Combine the repository's train/test files into one master pool,
    train-file series first, preserving file order."""
    pool = list(train) + list(test)
    counts = {s.n_channels for s in pool}
    if len(counts) > 1:
        raise TsParseError(f"channel-count mismatch between files: {sorted(counts)}")
    return pool

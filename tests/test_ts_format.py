import math

import numpy as np
import pytest

from tsprep import ts_format
from tsprep.ts_format import (
    RawSeries,
    TsParseError,
    merge_train_test,
    TsHeader,
    parse_ts_file,
)

MINIMAL = """@problemName Tiny
@univariate true
@classLabel true a
@data
1.0,2.0:a
"""


def test_smallest_wellformed_file():
    header, series = parse_ts_file(MINIMAL)
    assert header.problem_name == "Tiny"
    assert header.univariate
    assert header.class_labels == ("a",)
    assert len(series) == 1
    assert series[0].label == "a"
    np.testing.assert_array_equal(series[0].channels[0], [1.0, 2.0])


def test_question_mark_becomes_nan():
    text = MINIMAL.replace("@classLabel true a", "@classLabel true a b")
    text = text.replace("1.0,2.0:a", "1.0,?,3.0:b")
    _, series = parse_ts_file(text)
    values = series[0].channels[0]
    assert values[0] == 1.0 and values[2] == 3.0
    assert math.isnan(values[1])


def test_univariate_three_class_file():
    # 36 lines of 251 values under a three-class header
    rng = np.random.RandomState(0)
    lines = [
        "@problemName Mini",
        "@univariate true",
        "@equalLength true",
        "@seriesLength 251",
        "@classLabel true 0 1 2",
        "@data",
    ]
    for i in range(36):
        lines.append(",".join(f"{v:.3f}" for v in rng.randn(251)) + f":{i % 3}")
    header, series = parse_ts_file("\n".join(lines))
    assert len(series) == 36
    assert all(s.length == 251 and s.n_channels == 1 for s in series)
    assert header.series_length == 251


def test_series_count_equals_data_lines():
    rng = np.random.RandomState(1)
    lines = ["@problemName C", "@univariate true", "@classLabel true x", "@data"]
    n_data = 0
    for i in range(25):
        if rng.rand() < 0.25:
            lines.append("# a comment between records")
            continue
        lines.append(",".join(str(v) for v in rng.randn(4)) + ":x")
        n_data += 1
    _, series = parse_ts_file("\n".join(lines))
    assert len(series) == n_data


def test_multivariate_dimensions():
    text = """@problemName M
@univariate false
@dimensions 2
@classLabel true a b
@data
1,2,3:4,5,6:a
7,8,9:1,1,1:b
"""
    header, series = parse_ts_file(text)
    assert not header.univariate
    assert series[0].n_channels == 2
    np.testing.assert_array_equal(series[1].channels[1], [1, 1, 1])


def test_whitespace_tolerated():
    text = "@classLabel true a\n@data\n 1.0 , 2.0 : a \n"
    _, series = parse_ts_file(text)
    np.testing.assert_array_equal(series[0].channels[0], [1.0, 2.0])
    assert series[0].label == "a"


def test_all_missing_channel_parses():
    text = "@classLabel true a\n@data\n?,?,?:a\n"
    _, series = parse_ts_file(text)
    assert np.isnan(series[0].channels[0]).all()


def test_dimension_without_missing_values_is_converted_at_once(monkeypatch):
    calls = []
    real = ts_format._parse_value
    monkeypatch.setattr(ts_format, "_parse_value", lambda t: calls.append(t) or real(t))
    text = "@univariate false\n@classLabel true a\n@data\n1.5, 2 ,3:?,4,5:a\n"
    _, series = parse_ts_file(text)
    assert calls == ["?", "4", "5"]  # only the dimension holding a ? goes token by token
    np.testing.assert_array_equal(series[0].channels[0], [1.5, 2.0, 3.0])


def test_crlf_accepted():
    header, series = parse_ts_file(MINIMAL.replace("\n", "\r\n"))
    assert len(series) == 1


def serialize_ts(header: TsHeader, series: list[RawSeries]) -> str:
    """Render header and series back to ``.ts`` text.

    Values use ``repr`` formatting, so parse -> serialize -> parse is exact,
    NaN positions included.
    """
    missing = any(np.isnan(c).any() for s in series for c in s.channels)
    lines = []
    if header.problem_name:
        lines.append(f"@problemName {header.problem_name}")
    lines.append(f"@timeStamps {str(header.has_timestamps).lower()}")
    lines.append(f"@missing {str(missing).lower()}")
    lines.append(f"@univariate {str(header.univariate).lower()}")
    lines.append(f"@equalLength {str(header.series_length is not None).lower()}")
    if header.series_length is not None:
        lines.append(f"@seriesLength {header.series_length}")
    lines.append("@classLabel true " + " ".join(header.class_labels))
    lines.append("@data")
    for s in series:
        dims = [
            ",".join("?" if math.isnan(v) else repr(float(v)) for v in channel)
            for channel in s.channels
        ]
        lines.append(":".join(dims) + ":" + s.label)
    return "\n".join(lines) + "\n"


def test_roundtrip_serialize_parse():
    rng = np.random.RandomState(3)
    text_lines = [
        "@problemName RT",
        "@univariate false",
        "@equalLength false",
        "@classLabel true p q",
        "@data",
    ]
    for i in range(10):
        L = rng.randint(2, 9)
        dims = []
        for _ in range(2):
            vals = rng.randn(L)
            vals[rng.rand(L) < 0.3] = np.nan
            dims.append(",".join("?" if np.isnan(v) else repr(float(v)) for v in vals))
        text_lines.append(":".join(dims) + (":p" if i % 2 else ":q"))
    header, series = parse_ts_file("\n".join(text_lines))
    header2, series2 = parse_ts_file(serialize_ts(header, series))
    assert header2 == header
    assert len(series2) == len(series)
    for a, b in zip(series, series2):
        assert a.label == b.label
        for ca, cb in zip(a.channels, b.channels):
            np.testing.assert_array_equal(ca, cb)  # NaN positions included


# ------------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "text,match",
    [
        ("@classLabel true a\n1,2:a\n@data\n", "data before @data"),
        ("@classLabel true a\n@data\n1,2:b\n", "unknown class label"),
        ("@univariate maybe\n@classLabel true a\n@data\n1:a\n", "true/false"),
        ("@missing maybe\n@classLabel true a\n@data\n1:a\n", "true/false"),
        ("@classLabel true a\n@bogus x\n@data\n1:a\n", "unknown directive"),
        ("@classLabel false\n@data\n1,2\n", "classLabel"),
        ("@classLabel true a\n@timeStamps true\n@data\n(0,1):a\n", "not supported"),
        ("@classLabel true a\n", "no @data"),
        ("@univariate false\n@dimensions 2\n@classLabel true a\n@data\n1,2:a\n", "dimensions"),
        ("@classLabel true a\n@data\n1,2:3,4:a\n", "dimensions"),
        ("@univariate false\n@classLabel true a\n@data\n1,2:3:a\n", "unequal channel lengths"),
        ("@equalLength true\n@seriesLength 3\n@classLabel true a\n@data\n1,2:a\n", "length"),
    ],
)
def test_malformed_inputs_raise(text, match):
    with pytest.raises(TsParseError, match=match):
        parse_ts_file(text)


def test_equal_length_flag_requires_serieslength_consistency():
    # equalLength false ignores any declared seriesLength
    text = "@equalLength false\n@seriesLength 5\n@classLabel true a\n@data\n1,2:a\n"
    header, series = parse_ts_file(text)
    assert header.series_length is None


# -------------------------------------------------------------------- merge


def mk(n, channels=1, label="a"):
    return [
        RawSeries(
            channels=[np.arange(3.0) + i for _ in range(channels)],
            label=label,
        )
        for i in range(n)
    ]


def test_merge_concatenates_train_first():
    train, test = mk(2), mk(3, label="b")
    pool = merge_train_test(train, test)
    assert len(pool) == 5
    assert [s.label for s in pool] == ["a"] * 2 + ["b"] * 3
    assert pool[0] is train[0] and pool[2] is test[0]


def test_merge_empty_test_is_identity():
    train = mk(4)
    assert merge_train_test(train, []) == train


def test_merge_channel_mismatch_rejected():
    with pytest.raises(TsParseError, match="channel-count mismatch"):
        merge_train_test(mk(1, channels=1), mk(1, channels=2))

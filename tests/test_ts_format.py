import math
import warnings

import numpy as np
import pytest

from tsprep import ts_format
from tsprep.ts_format import (
    TsFile,
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


def channel(parsed: TsFile, i: int, j: int) -> np.ndarray:
    """Dimension ``j`` of series ``i``, without its padding."""
    return parsed.X[i, : parsed.lengths[i], j]


def test_smallest_wellformed_file():
    parsed = parse_ts_file(MINIMAL)
    header = parsed.header
    assert header.problem_name == "Tiny"
    assert header.univariate
    assert header.class_labels == ("a",)
    assert parsed.labels == ["a"]
    np.testing.assert_array_equal(parsed.X, [[[1.0], [2.0]]])
    np.testing.assert_array_equal(parsed.lengths, [2])


def test_question_mark_becomes_nan():
    text = MINIMAL.replace("@classLabel true a", "@classLabel true a b")
    text = text.replace("1.0,2.0:a", "1.0,?,3.0:b")
    values = channel(parse_ts_file(text), 0, 0)
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
    header, labels, X, lengths = parse_ts_file("\n".join(lines))
    assert len(labels) == 36
    assert X.shape == (36, 251, 1)
    assert (lengths == 251).all()
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
    _, labels, X, lengths = parse_ts_file("\n".join(lines))
    assert len(labels) == len(X) == len(lengths) == n_data


def test_multivariate_dimensions():
    text = """@problemName M
@univariate false
@dimensions 2
@classLabel true a b
@data
1,2,3:4,5,6:a
7,8,9:1,1,1:b
"""
    parsed = parse_ts_file(text)
    assert not parsed.header.univariate
    assert parsed.X.shape[2] == 2
    np.testing.assert_array_equal(channel(parsed, 1, 1), [1, 1, 1])


def test_whitespace_tolerated():
    text = "@classLabel true a\n@data\n 1.0 , 2.0 : a \n"
    parsed = parse_ts_file(text)
    np.testing.assert_array_equal(channel(parsed, 0, 0), [1.0, 2.0])
    assert parsed.labels == ["a"]


def test_all_missing_channel_parses():
    text = "@classLabel true a\n@data\n?,?,?:a\n"
    assert np.isnan(channel(parse_ts_file(text), 0, 0)).all()


def test_dimension_without_missing_values_is_converted_at_once(monkeypatch):
    calls = []
    real = ts_format._parse_value
    monkeypatch.setattr(ts_format, "_parse_value", lambda t: calls.append(t) or real(t))
    text = "@univariate false\n@classLabel true a\n@data\n1.5, 2 ,3:?,4,5:a\n"
    parsed = parse_ts_file(text)
    assert calls == []  # the whole file, ``?`` included, goes through one loadtxt
    np.testing.assert_array_equal(channel(parsed, 0, 0), [1.5, 2.0, 3.0])
    np.testing.assert_array_equal(channel(parsed, 0, 1), [np.nan, 4.0, 5.0])


def test_file_without_series_parses_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = parse_ts_file("@classLabel true a\n@data\n# only a comment\n")
    assert parsed.labels == [] and parsed.X.shape[0] == 0 and parsed.lengths.shape == (0,)


def test_crlf_accepted():
    assert parse_ts_file(MINIMAL.replace("\n", "\r\n")).labels == ["a"]


def serialize_ts(parsed: TsFile) -> str:
    """Render header and series back to ``.ts`` text.

    Values use ``repr`` formatting, so parse -> serialize -> parse is exact,
    NaN positions included.
    """
    header = parsed.header
    missing = any(
        np.isnan(channel(parsed, i, j)).any()
        for i in range(len(parsed.labels))
        for j in range(parsed.X.shape[2])
    )
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
    for i, label in enumerate(parsed.labels):
        dims = [
            ",".join("?" if math.isnan(v) else repr(float(v)) for v in channel(parsed, i, j))
            for j in range(parsed.X.shape[2])
        ]
        lines.append(":".join(dims) + ":" + label)
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
    parsed = parse_ts_file("\n".join(text_lines))
    again = parse_ts_file(serialize_ts(parsed))
    assert again.header == parsed.header
    assert again.labels == parsed.labels
    np.testing.assert_array_equal(again.lengths, parsed.lengths)
    np.testing.assert_array_equal(again.X, parsed.X)  # NaN positions included


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
    assert parse_ts_file(text).header.series_length is None


# -------------------------------------------------------------------- merge


def mk(n, channels=1, label="a", length=3):
    """A parsed file of ``n`` series: series ``i`` holds ``i, i + 1, ...``
    in every dimension."""
    header = TsHeader("M", channels == 1, None, False, ("a", "b"))
    X = np.arange(length)[None, :, None] + np.arange(n)[:, None, None] + np.zeros(channels)
    return TsFile(header, [label] * n, X.astype(np.float64), np.full(n, length, dtype=np.int64))


def test_merge_concatenates_train_first():
    train, test = mk(2), mk(3, label="b", length=5)
    labels, X, lengths = merge_train_test(train, test)
    assert labels == ["a"] * 2 + ["b"] * 3
    np.testing.assert_array_equal(lengths, [3, 3, 5, 5, 5])
    assert X.shape == (5, 5, 2)
    np.testing.assert_array_equal(X[:2, :3, 1:], train.X)
    np.testing.assert_array_equal(X[2:, :, 1:], test.X)
    assert np.isnan(X[:2, 3:]).all()  # padding, step index included


def test_merge_channel_zero_is_the_step_index():
    _, X, _ = merge_train_test(mk(1, channels=2, length=2), mk(1, channels=2, length=4))
    np.testing.assert_array_equal(X[:, :, 0], [[0, 1, np.nan, np.nan], [0, 1, 2, 3]])


def test_merge_empty_test_is_identity():
    train = mk(4)
    for test in (None, mk(0)):
        labels, X, lengths = merge_train_test(train, test)
        assert labels == train.labels
        np.testing.assert_array_equal(X[:, :, 1:], train.X)
        np.testing.assert_array_equal(lengths, train.lengths)


def test_merge_without_series_rejected():
    with pytest.raises(TsParseError, match="no series"):
        merge_train_test(mk(0), mk(0))


def test_merge_channel_mismatch_rejected():
    with pytest.raises(TsParseError, match="channel-count mismatch"):
        merge_train_test(mk(1, channels=1), mk(1, channels=2))

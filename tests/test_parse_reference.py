"""Known-answer tests: the ``.psv`` and ``.ts`` parsers equal a per-token
reference.

The references below convert one cell at a time with ``float``, exactly as
the parsers' specification reads: a ``.psv`` cell that is blank or spells
``nan`` in any case is NaN, a ``.ts`` token ``?`` is NaN, and every other
token goes through ``float`` after stripping. Output is compared bitwise
(NaN signs, infinities and signed zeros included), and a file with a single
defect must raise the same exception type with the same message, line number
included.
"""

import math
import os
import random

import numpy as np
import pytest

from tsprep import fetch, pipeline, ts_format
from tsprep.physionet import (
    PatientRecord,
    RecordParseError,
    load_records_2019,
    parse_patient_2019,
    to_binary_2019,
)
from tsprep.tensor_core import append_time_channel, pad_to_longest
from tsprep.ts_format import TsParseError, parse_ts_file

# ------------------------------------------------------------- references


def reference_patient_2019(text: str, record_id: str = "") -> PatientRecord:
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

    times, labels, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("|")
        if len(cells) != len(header):
            raise RecordParseError(
                f"line {lineno}: expected {len(header)} columns, got {len(cells)}"
            )

        def cell(i: int) -> float:
            token = cells[i].strip()
            if token == "" or token.lower() == "nan":
                return math.nan
            return float(token)

        times.append(cell(iculos_col))
        label = cell(label_col)
        if label not in (0.0, 1.0):
            raise RecordParseError(f"line {lineno}: SepsisLabel must be 0 or 1")
        labels.append(int(label))
        rows.append([cell(i) for i in data_cols])

    times_arr = np.array(times, dtype=np.float64)
    if np.isnan(times_arr).any() or (np.diff(times_arr) <= 0).any():
        raise RecordParseError("ICULOS values must be strictly increasing")
    return PatientRecord(
        record_id=record_id,
        times=times_arr,
        values=np.array(rows, dtype=np.float64).reshape(len(times), len(data_cols)),
        channel_names=tuple(header[i] for i in data_cols),
        step_labels=np.array(labels, dtype=np.int64),
    )


def reference_ts_series(text: str) -> list[tuple[list[np.ndarray], str]]:
    """Channels and label of every data line of a well-formed ``.ts`` file."""

    def value(token: str) -> float:
        token = token.strip()
        return math.nan if token == "?" else float(token)

    out = []
    in_data = False
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("@data"):
            in_data = True
            continue
        if in_data:
            *dims, label = [p.strip() for p in line.split(":")]
            channels = [np.array([value(v) for v in d.split(",")], dtype=np.float64) for d in dims]
            out.append((channels, label))
    return out


def reference_ts(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Labels, NaN-padded ``(n, max_length, d)`` array and lengths of a
    well-formed ``.ts`` file with at least one series."""
    series = reference_ts_series(text)
    X, lengths = pad_to_longest([np.stack(channels, axis=1) for channels, _ in series])
    return [label for _, label in series], X, lengths


def same_array(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.flags.c_contiguous == b.flags.c_contiguous
    assert a.tobytes() == b.tobytes()


def same_record(got: PatientRecord, want: PatientRecord) -> None:
    assert got.record_id == want.record_id
    assert got.channel_names == want.channel_names
    same_array(got.times, want.times)
    same_array(got.values, want.values)
    same_array(got.step_labels, want.step_labels)


def same_outcome(fn, ref, *args):
    """``fn(*args)`` returns what ``ref(*args)`` returns, or raises the same
    exception type with the same message."""
    try:
        want = ref(*args)
    except Exception as err:  # noqa: BLE001 - the reference defines the contract
        with pytest.raises(type(err)) as got:
            fn(*args)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        return None
    return fn(*args), want


# ---------------------------------------------------------------- .psv

NAN_TOKENS = ["NaN", "nan", "-nan", "NAN", " nan ", ""]
VALUE_TOKENS = [" 1.5 ", "1e500", "-1e500", "infinity", "-0", "0", "1_000", "72", "3.25",
                "\t98.5", "-4.125e-3", "+7"]


def random_psv(rng: random.Random, tokens: list[str], rows: int, order: list[str]) -> str:
    lines = ["|".join(order)]
    hour = rng.randint(-5, 5)
    septic = rng.random() < 0.5
    for r in range(rows):
        hour += rng.randint(1, 3)
        cells = []
        for name in order:
            if name == "ICULOS":
                cells.append(rng.choice([str(hour), f" {hour}.0 ", f"{hour}e0"]))
            elif name == "SepsisLabel":
                on = septic and r >= rows // 2
                cells.append(rng.choice(["1", "1.0", " 1 "] if on else ["0", "-0", "0.0"]))
            else:
                cells.append(rng.choice(tokens))
        lines.append("|".join(cells))
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "   ", "\t"]))  # blank lines are skipped
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\n\n"])


def psv_cases():
    """(name, text): NaN-only files, files with blank cells, reordered
    columns, CRLF, header-only files."""
    cases = []
    rng = random.Random(2019)
    nan_only = [t for t in NAN_TOKENS if t.strip()]
    orders = [
        ["HR", "O2Sat", "Temp", "ICULOS", "SepsisLabel"],
        ["SepsisLabel", "HR", "ICULOS", "Temp"],
        ["ICULOS", "SepsisLabel", "HR"],
        ["A", "B", "C", "D", "E", "F", "ICULOS", "SepsisLabel"],
        ["ICULOS", "SepsisLabel"],  # no data channels
    ]
    for i in range(40):
        order = orders[i % len(orders)]
        tokens = VALUE_TOKENS + (nan_only if i % 2 == 0 else NAN_TOKENS)
        cases.append((f"random{i}", random_psv(rng, tokens, rng.randint(1, 30), order)))
    cases.append(("header_only", "HR|ICULOS|SepsisLabel\n"))
    cases.append(("header_then_blank_lines", "HR|ICULOS|SepsisLabel\n\n  \n"))
    cases.append(("padded_header", " HR | ICULOS |SepsisLabel \n1|1|0\n"))
    cases.append(("duplicate_iculos", "ICULOS|HR|ICULOS|SepsisLabel\n1|2|3|0\n2|NaN|4|1\n"))
    cases.append(("all_nan_values", "HR|Temp|ICULOS|SepsisLabel\nNaN|nan|1|0\n-nan|NAN|2|0\n"))
    return cases


@pytest.mark.parametrize("name,text", psv_cases(), ids=[n for n, _ in psv_cases()])
def test_psv_equals_per_token_reference(name, text):
    got, want = same_outcome(parse_patient_2019, reference_patient_2019, text, "p" + name)
    same_record(got, want)


def test_psv_nan_spellings_and_specials_bitwise():
    text = "A|B|C|D|E|F|G|ICULOS|SepsisLabel\nNaN|nan|-nan| 1.5 |1e500||-0|1|0\n"
    record = parse_patient_2019(text)
    bits = [v.hex() if not math.isnan(v) else math.copysign(1.0, v) for v in record.values[0]]
    assert bits == [1.0, 1.0, -1.0, (1.5).hex(), "inf", 1.0, (-0.0).hex()]
    same_record(record, reference_patient_2019(text))


PSV_DEFECTS = [
    ("wrong_column_count", "HR|ICULOS|SepsisLabel\n1|1|0\n2|2\n3|3|0\n",
     "line 3: expected 3 columns, got 2"),
    ("extra_column", "HR|ICULOS|SepsisLabel\n1|1|0\n2|2|0|9\n",
     "line 3: expected 3 columns, got 4"),
    ("bad_label", "HR|ICULOS|SepsisLabel\n1|1|0\n2|2|0\n3|3|2\n",
     "line 4: SepsisLabel must be 0 or 1"),
    ("nan_label", "HR|ICULOS|SepsisLabel\n1|1|NaN\n", "line 2: SepsisLabel must be 0 or 1"),
    ("blank_label", "HR|ICULOS|SepsisLabel\n1|1|0\n2|2|\n", "line 3: SepsisLabel must be 0 or 1"),
    ("fractional_label", "HR|ICULOS|SepsisLabel\n1|1|0.5\n", "line 2: SepsisLabel must be 0 or 1"),
    ("unparseable_value", "HR|ICULOS|SepsisLabel\n1|1|0\n7x|2|0\n",
     "could not convert string to float: '7x'"),
    ("unparseable_label", "HR|ICULOS|SepsisLabel\n1|1|yes\n",
     "could not convert string to float: 'yes'"),
    ("unparseable_time", "HR|ICULOS|SepsisLabel\n1|1:00|0\n",
     "could not convert string to float: '1:00'"),
    ("blank_time", "HR|ICULOS|SepsisLabel\n1||0\n", "ICULOS values must be strictly increasing"),
    ("repeated_time", "HR|ICULOS|SepsisLabel\n1|1|0\n1|1|0\n",
     "ICULOS values must be strictly increasing"),
    ("nan_time", "HR|ICULOS|SepsisLabel\n1|1|0\n1|NaN|0\n",
     "ICULOS values must be strictly increasing"),
    ("blank_lines_do_not_count", "HR|ICULOS|SepsisLabel\n\n1|1|0\n\n2|2|3\n",
     "line 3: SepsisLabel must be 0 or 1"),
    ("missing_label_column", "HR|ICULOS\n1|1\n", "missing SepsisLabel column"),
    ("empty_file", "\n  \n", "empty record file"),
]


@pytest.mark.parametrize("name,text,message", PSV_DEFECTS, ids=[d[0] for d in PSV_DEFECTS])
def test_psv_single_defect_same_error(name, text, message):
    assert same_outcome(parse_patient_2019, reference_patient_2019, text) is None
    with pytest.raises(ValueError) as err:
        parse_patient_2019(text)
    assert str(err.value) == message


def test_psv_first_defect_wins():
    # the label error on line 2 comes before the column-count error on line 3
    text = "HR|ICULOS|SepsisLabel\n1|1|4\n2|2\n"
    assert same_outcome(parse_patient_2019, reference_patient_2019, text) is None
    # within one line, ICULOS is read before the label
    text = "HR|ICULOS|SepsisLabel\n1|x|4\n"
    assert same_outcome(parse_patient_2019, reference_patient_2019, text) is None


# ------------------------------------------------------------------ .ts

TS_TOKENS = ["1.5", " 2.25 ", "?", " ? ", "-0", "1e500", "nan", "-nan", "3", "\t4.5", "1_0"]
# without ``1_0``, which only the per-token reader accepts
TS_LOADTXT_TOKENS = TS_TOKENS[:-1]


def random_ts(rng: random.Random, dims: int, equal: bool, tokens=TS_TOKENS) -> str:
    lines = ["@problemName R", f"@univariate {'true' if dims == 1 else 'false'}",
             f"@equalLength {'true' if equal else 'false'}", "@classLabel true a b", "@data"]
    if equal:
        length = rng.randint(1, 9)
        lines.insert(3, f"@seriesLength {length}")
    for _ in range(rng.randint(1, 12)):
        n = length if equal else rng.randint(1, 9)
        parts = []
        for _ in range(dims):
            chosen = [rng.choice(tokens) for _ in range(n)]
            parts.append(" " + ",".join(chosen) + " " if rng.random() < 0.2 else ",".join(chosen))
        lines.append(":".join(parts) + ":" + rng.choice("ab"))
    return "\n".join(lines) + "\n"


def ts_cases():
    """(name, text): ragged files of mixed tokens, and equal-length and
    ragged files of tokens that one ``loadtxt`` per length converts."""
    rng = random.Random(315)
    cases = [(f"random{i}", random_ts(rng, 1 + i % 3, equal=False)) for i in range(30)]
    rng = random.Random(1023)
    cases += [(f"equal{i}", random_ts(rng, 1 + i % 3, True, TS_LOADTXT_TOKENS)) for i in range(12)]
    groups = []
    while len(groups) < 12:
        text = random_ts(rng, 1 + len(groups) % 3, False, TS_LOADTXT_TOKENS)
        if len(set(reference_ts(text)[2].tolist())) > 1:  # several series lengths
            groups.append(text)
    return cases + [(f"groups{i}", text) for i, text in enumerate(groups)]


TS_CASES = ts_cases()
LOADTXT_CASES = [c for c in TS_CASES if not c[0].startswith("random")]


def same_ts(parsed: ts_format.TsFile, text: str) -> None:
    labels, X, lengths = reference_ts(text)
    assert parsed.labels == labels
    same_array(parsed.lengths, lengths)
    same_array(np.ascontiguousarray(parsed.X), X)


@pytest.mark.parametrize("name,text", TS_CASES, ids=[n for n, _ in TS_CASES])
def test_ts_equals_per_token_reference(name, text):
    same_ts(parse_ts_file(text), text)


@pytest.mark.parametrize("name,text", LOADTXT_CASES, ids=[n for n, _ in LOADTXT_CASES])
def test_ts_loadtxt_cases_never_read_per_token(name, text, monkeypatch):
    def per_token(*args):
        raise AssertionError("the per-token reader ran")

    monkeypatch.setattr(ts_format, "_read_per_token", per_token)
    same_ts(parse_ts_file(text), text)


def test_ts_unequal_length_series_bitwise():
    text = ("@univariate false\n@classLabel true a\n@data\n"
            "1,?,3:4,5,6:a\n7:?:a\n ? , 1e500 ,-0 : -nan,2,? :a\n")
    parsed = parse_ts_file(text)
    assert parsed.lengths.tolist() == [3, 1, 3]
    same_ts(parsed, text)


TS_DEFECTS = [
    ("bad_token", "@classLabel true a\n@data\n1,2,x:a\n", "invalid value 'x'"),
    ("bad_token_after_missing", "@classLabel true a\n@data\n?,2, 1.5.2 :a\n",
     "invalid value '1.5.2'"),
    ("empty_token", "@classLabel true a\n@data\n1,,3:a\n", "invalid value ''"),
    ("empty_dimension", "@univariate false\n@classLabel true a\n@data\n1,2::a\n",
     "invalid value ''"),
    ("dimension_count", "@univariate false\n@classLabel true a\n@data\n1:2:a\n1:a\n",
     "line 5: expected 2 dimensions, got 1"),
    ("declared_dimensions", "@univariate false\n@dimensions 3\n@classLabel true a\n@data\n1:2:a\n",
     "line 5: expected 3 dimensions, got 2"),
    ("unequal_channels", "@univariate false\n@classLabel true a\n@data\n1,2:3:a\n",
     "line 4: unequal channel lengths within series"),
    # loadtxt would read ``#`` as the start of a comment without comments=None
    ("comment_sign", "@classLabel true a\n@data\n1,1#2:a\n", "invalid value '1#2'"),
    ("double_question_mark", "@classLabel true a\n@data\n1,??:a\n", "invalid value '??'"),
    ("question_mark_suffix", "@classLabel true a\n@data\n1?,2:a\n", "invalid value '1?'"),
    # ``nan`` must stand in for whole ``?`` tokens only: ``-nan`` is a float
    ("signed_question_mark", "@classLabel true a\n@data\n1, -? :a\n", "invalid value '-?'"),
    ("defect_after_good_lines", "@classLabel true a\n@data\n1,2:a\n3,4:a\n# c\n5,x:a\n6,7:a\n",
     "invalid value 'x'"),
    ("structure_after_good_lines",
     "@univariate false\n@classLabel true a\n@data\n1:2:a\n3,4:5,6:a\n7,8:9:a\n",
     "line 6: unequal channel lengths within series"),
    ("bad_token_and_unequal_dimensions",
     "@univariate false\n@classLabel true a\n@data\n1,x:3:a\n", "invalid value 'x'"),
    ("bad_token_before_bad_label", "@classLabel true a\n@data\n1,x:a\n1,2:b\n",
     "invalid value 'x'"),
    # header defects: each names its line or directive
    ("bare_at_sign", "@\n@classLabel true a\n@data\n1:a\n", "line 1: @ without a directive name"),
    ("class_label_without_arguments", "@classLabel\n@data\n1:a\n",
     "classification problems require @classLabel true <labels>"),
    ("dimensions_not_an_integer",
     "@univariate false\n@dimensions x\n@classLabel true a\n@data\n1:2:a\n",
     "@dimensions: expected an integer, got 'x'"),
]


@pytest.mark.parametrize("name,text,message", TS_DEFECTS, ids=[d[0] for d in TS_DEFECTS])
def test_ts_single_defect_same_error(name, text, message):
    with pytest.raises(TsParseError) as err:
        parse_ts_file(text)
    assert type(err.value) is TsParseError
    assert str(err.value) == message


# ---------------------------------------------------------- the UEA master


@pytest.mark.parametrize("tree,name", [("arrowhead_root", "ArrowHead"), ("traj_root", "Traj3")])
def test_uea_master_equals_padded_reference_channels(request, tree, name):
    raw = fetch.raw_dir(request.getfixturevalue(tree), name.lower())
    X, y, lengths, _ = pipeline._ingest_uea(raw, name)
    series = [
        s
        for part in ("TRAIN", "TEST")
        for s in reference_ts_series((raw / f"{name}_{part}.ts").read_text())
    ]
    padded, want_lengths = pad_to_longest([np.stack(channels, axis=1) for channels, _ in series])
    want = append_time_channel(padded, [np.arange(L, dtype=np.float64) for L in want_lengths])
    same_array(X, want)
    same_array(lengths, want_lengths)
    classes = sorted({label for _, label in series})  # the fixtures declare them sorted
    same_array(y, np.eye(len(classes))[[classes.index(label) for _, label in series]])


# ------------------------------------------------------- directory loading


def write_psv_tree(raw, tokens):
    """Nine stays over two subsets of ``raw``: stays of ``tokens`` and NaN
    spellings, some with blank cells, a header-only stay (dropped) and one
    starting after 72 hours (dropped by the binary variant)."""
    rng = random.Random(72)
    order = ["HR", "O2Sat", "Temp", "ICULOS", "SepsisLabel"]
    for i in range(7):
        subset = "training_setA" if i < 4 else "training_setB"
        cells = tokens + (["NaN", "nan"] if i % 2 else NAN_TOKENS)
        path = raw / subset / f"p{i:06d}.psv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(random_psv(rng, cells, rng.randint(20, 60), order))
    (raw / "training_setB" / "p000007.psv").write_text("|".join(order) + "\n")
    late = [f"1|2|3|{h}|0" for h in range(80, 90)]
    (raw / "training_setA" / "p000008.psv").write_text("\n".join(["|".join(order)] + late))
    return raw


@pytest.fixture()
def psv_tree(tmp_path):
    return write_psv_tree(tmp_path / "raw", VALUE_TOKENS)


def test_load_records_2019_same_bytes_for_any_worker_count(psv_tree):
    serial, dropped = load_records_2019(psv_tree, workers=1)
    assert dropped == 1
    assert [r.record_id for r in serial] == sorted(r.record_id for r in serial)
    for path in sorted(psv_tree.glob("training_set*/*.psv")):
        if path.stem in {r.record_id for r in serial}:
            want = reference_patient_2019(path.read_text(), path.stem)
            same_record(next(r for r in serial if r.record_id == path.stem), want)
    for workers in (2, 3):
        records, dropped_w = load_records_2019(psv_tree, workers=workers)
        assert dropped_w == dropped
        assert len(records) == len(serial)
        for got, want in zip(records, serial):
            same_record(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_binary_build_equals_the_per_record_reference_for_any_worker_count(tmp_path, workers):
    """``physionet2019binary`` gives the tensors of each stay parsed by the
    reference and cut by ``to_binary_2019``: stays sorted by id, the header-only
    stay and the one starting after 72 hours dropped, and a stay whose onset
    comes after 72 hours labelled 1."""
    # finite values only: the training statistics of an infinite value warn
    raw = write_psv_tree(fetch.raw_dir(tmp_path, "physionet2019"),
                         [t for t in VALUE_TOKENS if math.isfinite(float(t))])
    late_onset = [f"{h}|1|2|{h}|{int(h >= 80)}" for h in range(60, 90)]
    (raw / "training_setB" / "p000009.psv").write_text(
        "\n".join(["HR|O2Sat|Temp|ICULOS|SepsisLabel"] + late_onset)
    )
    paths = sorted(raw.glob("training_set*/*.psv"))
    records = [reference_patient_2019(path.read_text(), path.stem) for path in paths]
    pairs = []
    for record in sorted((r for r in records if r.n_steps), key=lambda r: r.record_id):
        try:
            pairs.append(to_binary_2019(record))
        except RecordParseError:  # no row within 72 hours
            pass
    cut = {r.record_id: (r, label) for r, label in pairs}
    assert len(paths) - len(pairs) == 2 and {"p000007", "p000008"}.isdisjoint(cut)
    late, label = cut["p000009"]
    assert label == 1 and not late.step_labels.any()
    want_X, want_length = pad_to_longest([np.column_stack([r.times, r.values]) for r, _ in pairs])

    config = pipeline.PipelineConfig(dataset="physionet2019binary", split="train",
                                     train_prop=0.7, seed=1, path=tmp_path, overwrite_cache=True)
    ds = pipeline.build(config, workers=workers)
    same_array(ds.X_full, want_X)
    same_array(ds.y_full, np.array([[float(label)] for _, label in pairs]))
    same_array(ds.length_full, want_length)
    assert ds.dropped_records == 2


@pytest.mark.parametrize("first,last", [("p000002", "p000005"), ("p000000", "p000007")])
def test_load_records_2019_reports_the_first_bad_file(psv_tree, monkeypatch, first, last):
    (psv_tree / "training_setA" / f"{first}.psv").write_text("HR|ICULOS|SepsisLabel\n1|1|5\n")
    (psv_tree / "training_setB" / f"{last}.psv").write_text("HR|ICULOS|SepsisLabel\n1|1\n")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # eight chunks for nine files
    for workers in (1, 2):
        with pytest.raises(RecordParseError,
                           match=f"^training_setA/{first}.psv: line 2: SepsisLabel must be 0 or 1$"):
            load_records_2019(psv_tree, workers=workers)


def test_load_records_2019_duplicate_ids_keep_path_order(psv_tree, monkeypatch):
    # the same stay id in both subsets: records are sorted by id, and the
    # sort keeps path order between equal ids for any worker count
    (psv_tree / "training_setB" / "p000008.psv").write_text("HR|O2Sat|Temp|ICULOS|SepsisLabel\n"
                                                            "5|6|7|1|1\n")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # eight chunks for ten files
    serial, _ = load_records_2019(psv_tree, workers=1)
    twins = [r for r in serial if r.record_id == "p000008"]
    assert [r.n_steps for r in twins] == [10, 1]  # training_setA first
    parallel, _ = load_records_2019(psv_tree, workers=2)
    for got, want in zip(parallel, serial, strict=True):
        same_record(got, want)

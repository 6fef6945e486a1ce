import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tsprep
from tsprep import physionet
from tsprep.physionet import (
    PHYSIONET_2012_CHANNELS,
    RecordParseError,
    load_records_2012,
    load_records_2019,
    parse_outcomes_2012,
    parse_patient_2012,
    parse_patient_2019,
    to_binary_2019,
)

RECORD = """Time,Parameter,Value
00:00,RecordID,132539
00:00,Age,54
00:00,Gender,0
00:00,Height,-1
00:00,ICUType,3
00:00,Weight,60.5
00:07,GCS,15
00:07,HR,73
01:30,HR,-1
02:00,TropI,0.3
02:00,Urine,100
02:00,Urine,150
"""


def col(name):
    # data-column index: wide channel number minus the time column
    return PHYSIONET_2012_CHANNELS.index(name) - 1


def test_2012_layout_has_45_columns():
    record = parse_patient_2012(RECORD)
    assert record.values.shape == (4, 44)
    assert len(PHYSIONET_2012_CHANNELS) == 45
    assert record.channel_names == PHYSIONET_2012_CHANNELS[1:]


def test_2012_times_and_grid():
    record = parse_patient_2012(RECORD)
    # grid contains only minutes carrying time series measurements
    np.testing.assert_array_equal(record.times, [0.0, 7.0, 90.0, 120.0])
    assert record.record_id == "132539"


def test_2012_icutype_one_hot():
    record = parse_patient_2012(RECORD)
    onehot = record.values[0, col("ICUType1") : col("ICUType4") + 1]
    np.testing.assert_array_equal(onehot, [0, 0, 1, 0])


def test_2012_minus_one_is_missing():
    record = parse_patient_2012(RECORD)
    minute90 = list(record.times).index(90.0)
    assert math.isnan(record.values[minute90, col("HR")])
    # Height descriptor of -1 parses as a missing static
    assert np.isnan(record.values[:, col("Height")]).all()
    assert not (record.values == -1).any()


def test_2012_statics_broadcast():
    record = parse_patient_2012(RECORD)
    np.testing.assert_array_equal(record.values[:, col("Age")], [54.0] * record.n_steps)
    np.testing.assert_array_equal(record.values[:, col("Gender")], [0.0] * record.n_steps)


def test_2012_duplicate_cell_keeps_last():
    record = parse_patient_2012(RECORD)
    minute120 = list(record.times).index(120.0)
    assert record.values[minute120, col("Urine")] == 150.0


def test_2012_troponin_alias():
    record = parse_patient_2012(RECORD)
    minute120 = list(record.times).index(120.0)
    assert record.values[minute120, col("TroponinI")] == 0.3


def test_2012_weight_is_a_series_channel():
    record = parse_patient_2012(RECORD)
    assert record.values[0, col("Weight")] == 60.5


def test_2012_mechvent_unobserved_is_nan():
    record = parse_patient_2012(RECORD)
    assert np.isnan(record.values[:, col("MechVent")]).all()


def test_2012_zero_series_rows():
    text = "Time,Parameter,Value\n00:00,RecordID,1\n00:00,Age,60\n00:00,ICUType,1\n"
    record = parse_patient_2012(text)
    assert record.n_steps == 0


def test_2012_missing_icutype_gives_nan_indicators():
    text = "Time,Parameter,Value\n00:00,RecordID,7\n00:05,HR,80\n"
    record = parse_patient_2012(text)
    assert np.isnan(record.values[0, col("ICUType1") : col("ICUType4") + 1]).all()


@pytest.mark.parametrize(
    "text,match",
    [
        ("Time,Parameter,Value\n00:00,Age,50\n", "RecordID"),
        ("Time,Parameter,Value\n00:00,RecordID,1\n00:00,Bogus,3\n", "unknown parameter"),
        ("Time,Parameter,Value\n00:75,RecordID,1\n", "time stamp"),
        ("Time,Parameter,Value\nnoon,RecordID,1\n", "time stamp"),
        ("Hour,Parameter,Value\n00:00,RecordID,1\n", "header"),
    ],
)
def test_2012_malformed_inputs(text, match):
    with pytest.raises(RecordParseError, match=match):
        parse_patient_2012(text)


OUTCOMES = """RecordID,SAPS-I,SOFA,Length_of_stay,Survival,In-hospital_death
132539,6,1,5,-1,0
132540,16,8,8,5,1
"""


def test_outcomes_map():
    outcomes = parse_outcomes_2012(OUTCOMES)
    assert len(outcomes) == 2
    assert outcomes["132539"] == 0
    assert outcomes["132540"] == 1


def test_outcomes_duplicate_rejected():
    text = OUTCOMES + "132539,6,1,5,-1,0\n"
    with pytest.raises(RecordParseError, match="duplicate"):
        parse_outcomes_2012(text)


def test_outcomes_label_domain():
    text = OUTCOMES.replace("132540,16,8,8,5,1", "132540,16,8,8,5,2")
    with pytest.raises(RecordParseError, match="not in"):
        parse_outcomes_2012(text)


# --------------------------------------------------------------------- 2019

PSV = "HR|O2Sat|Temp|ICULOS|SepsisLabel"


def make_psv(rows):
    return "\n".join([PSV] + rows) + "\n"


def test_2019_row_and_label_counts():
    rows = [f"{60 + i}|98|37.1|{i + 1}|0" for i in range(40)]
    record = parse_patient_2019(make_psv(rows), record_id="p01")
    assert record.n_steps == 40
    assert len(record.step_labels) == 40
    assert (record.step_labels == 0).all()
    assert record.channel_names == ("HR", "O2Sat", "Temp")
    np.testing.assert_array_equal(record.times, np.arange(1, 41))


def test_2019_empty_cell_is_nan():
    record = parse_patient_2019(make_psv(["72||37.0|1|0", "|97||2|1"]))
    assert math.isnan(record.values[0, 1])
    assert math.isnan(record.values[1, 0])
    assert record.values[1, 1] == 97.0
    np.testing.assert_array_equal(record.step_labels, [0, 1])


@pytest.mark.parametrize(
    "rows,match",
    [
        (["1|2|3|1"], "columns"),
        (["70|98|37|2|0", "70|98|37|2|0"], "strictly increasing"),
        (["70|98|37|1|5"], "SepsisLabel"),
        (["70|98|37||0"], "strictly increasing"),
    ],
)
def test_2019_malformed_inputs(rows, match):
    with pytest.raises(RecordParseError, match=match):
        parse_patient_2019(make_psv(rows))


def test_2019_missing_required_column():
    with pytest.raises(RecordParseError, match="ICULOS"):
        parse_patient_2019("HR|SepsisLabel\n70|0\n")


def test_binary_truncates_and_labels_late_onset():
    # onset at hour 90 of a 100-hour stay: truncated to <= 72h, still label 1
    rows = [f"70|98|37|{h}|{1 if h >= 90 else 0}" for h in range(1, 101)]
    record = parse_patient_2019(make_psv(rows))
    truncated, label = to_binary_2019(record)
    assert label == 1
    assert truncated.times.max() <= 72.0
    assert (truncated.step_labels == 0).all()


def test_binary_never_septic():
    rows = [f"70|98|37|{h}|0" for h in range(1, 30)]
    _, label = to_binary_2019(parse_patient_2019(make_psv(rows)))
    assert label == 0


def test_binary_keeps_72_of_80_hours():
    rows = [f"70|98|37|{h}|0" for h in range(1, 81)]
    truncated, _ = to_binary_2019(parse_patient_2019(make_psv(rows)))
    # independent count: hours 1..80 with ICULOS <= 72
    assert truncated.n_steps == sum(1 for h in range(1, 81) if h <= 72)
    assert truncated.n_steps == 72


def test_binary_rejects_stay_starting_after_72h():
    rows = [f"70|98|37|{h}|0" for h in range(73, 80)]
    with pytest.raises(RecordParseError, match="72"):
        to_binary_2019(parse_patient_2019(make_psv(rows)))


def test_binary_label_equals_max_over_rows():
    rng = np.random.RandomState(11)
    for _ in range(30):
        n = rng.randint(2, 120)
        labels = (rng.rand(n) < 0.08).astype(int)
        rows = [f"70|98|37|{h + 1}|{labels[h]}" for h in range(n)]
        record = parse_patient_2019(make_psv(rows))
        try:
            _, label = to_binary_2019(record)
        except RecordParseError:
            continue
        assert label == int(labels.max())  # brute-force oracle


# -------------------------------------------------------- directory loading


def test_2012_loading_sorted_and_parallel_identical(physionet2012_root):
    raw = physionet2012_root / ".torchtime" / "raw" / "physionet2012"
    serial, dropped_serial = load_records_2012(raw, workers=1)
    parallel, dropped_parallel = load_records_2012(raw, workers=4)
    assert dropped_serial == dropped_parallel == 1
    ids = [r.record_id for r in serial]
    assert ids == sorted(ids, key=int)
    assert ids == [r.record_id for r in parallel]
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.times, b.times)


@pytest.mark.parametrize(
    "name,text,load,message",
    [("set-a/1.txt", "Time,Parameter,Value\n00:00,RecordID,1e999\n", load_records_2012,
      "cannot convert float infinity to integer"),
     ("Outcomes-a.txt", "RecordID,In-hospital_death\nRecordID,In-hospital_death\n",
      physionet.load_outcomes_2012, "could not convert string to float: 'RecordID'"),
     ("Outcomes-a.txt", "Record,In-hospital_death\n132539,0\n",
      physionet.load_outcomes_2012, "outcomes file lacks a RecordID column"),
     ("Outcomes-a.txt", "RecordID,SAPS-I,In-hospital_death\n132539,6,0\n132540,16\n",
      physionet.load_outcomes_2012, "line 3: expected 3 columns, got 2"),
     ("Outcomes-a.txt", "SAPS-I,RecordID,In-hospital_death\n\n6\n",
      physionet.load_outcomes_2012, "line 3: expected 3 columns, got 1")],
)
def test_2012_errors_name_their_file(tmp_path, name, text, load, message):
    (tmp_path / name).parent.mkdir(exist_ok=True)
    (tmp_path / name).write_text(text)
    with pytest.raises(RecordParseError) as err:
        load(tmp_path)
    assert str(err.value) == f"{name}: {message}"


def test_2012_no_minus_one_survives_anywhere(physionet2012_root):
    raw = physionet2012_root / ".torchtime" / "raw" / "physionet2012"
    records, _ = load_records_2012(raw)
    for record in records:
        assert not (record.values == -1.0).any()
        assert not (record.times == -1.0).any()


def test_2019_loading_sorted(physionet2019_root):
    raw = physionet2019_root / ".torchtime" / "raw" / "physionet2019"
    records, dropped = load_records_2019(raw, workers=2)
    assert dropped == 0
    assert len(records) == 16
    ids = [r.record_id for r in records]
    assert ids == sorted(ids)
    assert {int(r.step_labels.max()) for r in records} == {0, 1}


def test_2019_clean_file_skips_the_per_cell_path(monkeypatch):
    def fail(*args):
        raise AssertionError("per-cell path used")

    monkeypatch.setattr(physionet, "_rows_2019", fail)
    record = parse_patient_2019(make_psv(["72|NaN|37.0|1|0", " nan |97|-nan|2|1"]))
    np.testing.assert_array_equal(record.times, [1.0, 2.0])
    np.testing.assert_array_equal(record.step_labels, [0, 1])
    assert record.values.flags.c_contiguous and record.times.flags.c_contiguous


class RecordingPool:
    """Stands in for the process pool: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


@pytest.mark.parametrize(
    "workers,cpus,want",
    [
        (10_000, 3, [3]),  # capped by the CPUs
        (10_000, 64, [16]),  # capped by the chunks: one path per chunk
        (2, 64, [2]),
        (10_000, 1, []),  # one CPU: parsed in-process, no pool
        (10_000, None, []),  # CPU count unknown: treated as one
        (1, 64, []),
        (0, 64, []),
    ],
)
def test_2019_pool_size_is_bounded(physionet2019_root, monkeypatch, workers, cpus, want):
    raw = physionet2019_root / ".torchtime" / "raw" / "physionet2019"
    monkeypatch.setattr(physionet, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    RecordingPool.sizes = []
    records, dropped = load_records_2019(raw, workers=workers)
    assert RecordingPool.sizes == want
    serial, _ = load_records_2019(raw, workers=1)
    assert [r.record_id for r in records] == [r.record_id for r in serial]
    for a, b in zip(records, serial):
        assert a.values.tobytes() == b.values.tobytes()


class TaskCountingPool(RecordingPool):
    """Counts the tasks ``map`` would send: one per chunk of ``chunksize``."""

    tasks: list[int] = []

    def map(self, fn, items, chunksize=1):
        items = list(items)
        TaskCountingPool.tasks.append(math.ceil(len(items) / chunksize))
        return super().map(fn, items)


def test_pool_gets_four_chunks_per_process_in_path_order(monkeypatch):
    monkeypatch.setattr(physionet, "ProcessPoolExecutor", TaskCountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    TaskCountingPool.tasks = []
    paths = [f"p{i:06d}.psv" for i in range(500)]
    # the identity as the parser: the result is the paths, in path order
    assert physionet._read_parallel(paths, lambda x: x, workers=2) == paths
    assert TaskCountingPool.tasks == [8]


# Run as a script, with the ``__main__`` guard that the README asks of
# callers whose start method is spawn or forkserver: the workers re-import it.
_START_METHOD_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import os
    import sys
    from pathlib import Path

    from tsprep import physionet


    class CountingPool(physionet.ProcessPoolExecutor):
        made = 0

        def __init__(self, *args, **kwargs):
            CountingPool.made += 1
            super().__init__(*args, **kwargs)


    def fields(loaded):
        records, dropped = loaded
        return ([(r.record_id, r.times.tobytes(), r.values.tobytes(), r.step_labels.tobytes())
                 for r in records], dropped)


    if __name__ == "__main__":
        method, raw = sys.argv[1], Path(sys.argv[2])
        multiprocessing.set_start_method(method)
        os.cpu_count = lambda: 2
        physionet.ProcessPoolExecutor = CountingPool
        pooled = fields(physionet.load_records_2019(raw, workers=2))
        assert CountingPool.made == 1, "the pool was not used"
        serial = fields(physionet.load_records_2019(raw, workers=1))
        assert CountingPool.made == 1, "workers=1 made a pool"
        assert pooled == serial, "the pooled parse differs from the serial one"
        assert multiprocessing.get_start_method() == method
        print(len(pooled[0]), "records equal under", method)
""")


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_each_start_method_equals_the_serial_parse(physionet2019_root, tmp_path, method):
    """The workers of a spawn or forkserver pool re-import tsprep and the
    calling script; their records equal the in-process parse bit for bit."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script = tmp_path / "load_pooled.py"
    script.write_text(_START_METHOD_SCRIPT)
    raw = physionet2019_root / ".torchtime" / "raw" / "physionet2019"
    package_root = str(Path(tsprep.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(script), method, str(raw)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"16 records equal under {method}\n"


def test_2012_pool_size_is_bounded(physionet2012_root, monkeypatch):
    raw = physionet2012_root / ".torchtime" / "raw" / "physionet2012"
    monkeypatch.setattr(physionet, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    RecordingPool.sizes = []
    records, dropped = load_records_2012(raw, workers=10_000)
    assert RecordingPool.sizes == [4]
    assert dropped == 1 and len(records) == len(load_records_2012(raw)[0])

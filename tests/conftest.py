"""Shared fixtures: synthetic raw source trees for every supported dataset.

Fixture trees mirror the real archive layouts (``.torchtime/raw/<name>``)
so the pipeline runs end to end without network access. Session scope keeps
parsing cost down; tests that mutate a tree copy it first.
"""

import shutil

import numpy as np
import pytest

# ---------------------------------------------------------------- UEA trees


def make_uea_ts(path, name, class_counts, length, n_dims, seed, equal_length=True):
    """Write a classification ``.ts`` file; class_counts maps label -> count."""
    rng = np.random.RandomState(seed)
    labels = sorted(class_counts)
    lines = [
        f"#Synthetic {name} fixture",
        f"@problemName {name}",
        "@timeStamps false",
        "@missing false",
        f"@univariate {'true' if n_dims == 1 else 'false'}",
        f"@equalLength {'true' if equal_length else 'false'}",
    ]
    if equal_length:
        lines.append(f"@seriesLength {length}")
    if n_dims > 1:
        lines.append(f"@dimensions {n_dims}")
    lines.append("@classLabel true " + " ".join(labels))
    lines.append("@data")
    for label in labels:
        for _ in range(class_counts[label]):
            L = length if equal_length else rng.randint(length // 3, length + 1)
            dims = [
                ",".join(f"{v:.4f}" for v in rng.randn(L) - 1.8) for _ in range(n_dims)
            ]
            lines.append(":".join(dims) + ":" + label)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def arrowhead_root(tmp_path_factory):
    """211-sequence univariate pool: 36 train + 175 test, 3 classes, length 251."""
    root = tmp_path_factory.mktemp("arrowhead_root")
    raw = root / ".torchtime" / "raw" / "arrowhead"
    make_uea_ts(
        raw / "ArrowHead_TRAIN.ts",
        "ArrowHead",
        {"0": 12, "1": 12, "2": 12},
        length=251,
        n_dims=1,
        seed=101,
    )
    make_uea_ts(
        raw / "ArrowHead_TEST.ts",
        "ArrowHead",
        {"0": 58, "1": 58, "2": 59},
        length=251,
        n_dims=1,
        seed=202,
    )
    return root


@pytest.fixture(scope="session")
def traj_root(tmp_path_factory):
    """3-channel variable-length problem for simulation/mask/delta work."""
    root = tmp_path_factory.mktemp("traj_root")
    raw = root / ".torchtime" / "raw" / "traj3"
    make_uea_ts(
        raw / "Traj3_TRAIN.ts",
        "Traj3",
        {"a": 8, "b": 7, "c": 7},
        length=60,
        n_dims=3,
        seed=303,
        equal_length=False,
    )
    make_uea_ts(
        raw / "Traj3_TEST.ts",
        "Traj3",
        {"a": 7, "b": 7, "c": 6},
        length=60,
        n_dims=3,
        seed=404,
        equal_length=False,
    )
    return root


# --------------------------------------------------------- PhysioNet trees


# every 2012 time-series parameter except MechVent, which stays sparse (its
# imputation fill is pinned to zero by the pipeline's default override)
PANEL_2012 = [
    "Albumin", "ALP", "ALT", "AST", "Bilirubin", "BUN", "Cholesterol",
    "Creatinine", "DiasABP", "FiO2", "GCS", "Glucose", "HCO3", "HCT", "HR",
    "K", "Lactate", "Mg", "MAP", "Na", "NIDiasABP", "NIMAP", "NISysABP",
    "PaCO2", "PaO2", "pH", "Platelets", "RespRate", "SaO2", "SysABP", "Temp",
    "TroponinI", "TroponinT", "Urine", "WBC", "Weight",
]


def make_patient_2012(path, record_id, rng, icu_type=None, empty=False):
    rows = [
        "Time,Parameter,Value",
        f"00:00,RecordID,{record_id}",
        f"00:00,Age,{rng.randint(20, 90)}",
        f"00:00,Gender,{rng.randint(0, 2)}",
        f"00:00,Height,{rng.choice([-1, 155, 170, 185])}",
        f"00:00,ICUType,{icu_type if icu_type is not None else rng.randint(1, 5)}",
    ]
    if not empty:
        # admission panel: every channel observed once, so training statistics
        # exist whatever the split
        for param in PANEL_2012:
            rows.append(f"00:00,{param},{round(float(rng.uniform(1, 100)), 2)}")
        minutes = sorted(rng.choice(np.arange(1, 48 * 60), size=rng.randint(3, 11), replace=False))
        sparse = ["HR", "Temp", "GCS", "Urine", "WBC", "NISysABP", "pH"]
        for minute in minutes:
            stamp = f"{minute // 60:02d}:{minute % 60:02d}"
            for param in rng.choice(sparse, size=rng.randint(1, 4), replace=False):
                rows.append(f"{stamp},{param},{round(float(rng.uniform(1, 100)), 2)}")
            if rng.rand() < 0.3:
                rows.append(f"{stamp},MechVent,1")
        # a -1 sentinel that must parse as missing
        stamp = f"{minutes[0] // 60:02d}:{minutes[0] % 60:02d}"
        rows.append(f"{stamp},Lactate,-1")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture(scope="session")
def physionet2012_root(tmp_path_factory):
    """20 usable records over set-a/set-b plus one empty record (dropped)."""
    root = tmp_path_factory.mktemp("physionet2012_root")
    raw = root / ".torchtime" / "raw" / "physionet2012"
    rng = np.random.RandomState(777)
    ids = [str(132500 + i) for i in range(20)]
    outcomes = {rid: (1 if i < 6 else 0) for i, rid in enumerate(ids)}
    for i, rid in enumerate(ids):
        subset = "set-a" if i < 12 else "set-b"
        make_patient_2012(raw / subset / f"{rid}.txt", rid, rng, icu_type=(i % 4) + 1)
    # record with descriptors only: no time series rows, dropped at ingest
    make_patient_2012(raw / "set-b" / "132599.txt", "132599", rng, empty=True)
    outcomes["132599"] = 0
    for subset, members in (("a", ids[:12]), ("b", ids[12:] + ["132599"])):
        lines = ["RecordID,SAPS-I,SOFA,Length_of_stay,Survival,In-hospital_death"]
        lines += [f"{rid},6,1,5,-1,{outcomes[rid]}" for rid in members]
        (raw / f"Outcomes-{subset}.txt").write_text("\n".join(lines) + "\n")
    return root


PSV_HEADER = "HR|O2Sat|Temp|MAP|Age|Gender|ICULOS|SepsisLabel"


def make_patient_2019(path, rng, n_hours, sepsis_from=None, start_hour=1):
    lines = [PSV_HEADER]
    age = rng.randint(20, 90)
    gender = rng.randint(0, 2)
    for k in range(n_hours):
        hour = start_hour + k
        hr = "" if rng.rand() < 0.3 else f"{rng.randint(50, 130)}"
        o2 = "" if rng.rand() < 0.4 else f"{rng.randint(88, 100)}"
        temp = "" if rng.rand() < 0.7 else f"{rng.uniform(35.5, 39.5):.1f}"
        mp = "" if rng.rand() < 0.5 else f"{rng.randint(60, 110)}"
        label = 1 if sepsis_from is not None and hour >= sepsis_from else 0
        lines.append(f"{hr}|{o2}|{temp}|{mp}|{age}|{gender}|{hour}|{label}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def physionet2019_root(tmp_path_factory):
    """16 patients, 6 ever-septic, stays of 20-100 hours."""
    root = tmp_path_factory.mktemp("physionet2019_root")
    raw = root / ".torchtime" / "raw" / "physionet2019"
    rng = np.random.RandomState(888)
    for i in range(16):
        subset = "training_setA" if i < 10 else "training_setB"
        n_hours = int(rng.randint(20, 101))
        sepsis_from = int(rng.randint(5, n_hours)) if i % 3 == 0 else None
        make_patient_2019(raw / subset / f"p{i:06d}.psv", rng, n_hours, sepsis_from)
    return root


@pytest.fixture(scope="session")
def physionet2019_long_tail_root(tmp_path_factory):
    """40 patients: 39 stays of 4-8 hours and one of 200, so padding to the
    longest stay makes 95% of the padded rows."""
    root = tmp_path_factory.mktemp("physionet2019_long_tail_root")
    raw = root / ".torchtime" / "raw" / "physionet2019"
    rng = np.random.RandomState(999)
    for i in range(40):
        n_hours = 200 if i == 17 else int(rng.randint(4, 9))
        sepsis_from = int(rng.randint(2, n_hours)) if i % 4 == 0 else None
        make_patient_2019(raw / "training_setA" / f"p{i:06d}.psv", rng, n_hours, sepsis_from)
    return root


@pytest.fixture()
def copy_tree(tmp_path):
    """Copy a session fixture tree into a writable per-test directory."""

    def _copy(root):
        dest = tmp_path / "root"
        shutil.copytree(root, dest)
        return dest

    return _copy


# ------------------------------------------------- acceptance result lines

_ACCEPTANCE_DOCS: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name.startswith("test_criterion_"):
            doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
            _ACCEPTANCE_DOCS[item.nodeid] = doc


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_DOCS:
        return
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", None)
            if nodeid in _ACCEPTANCE_DOCS and getattr(report, "when", "call") == "call":
                outcomes[nodeid] = status
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_DOCS):
        if nodeid not in outcomes:
            continue
        status = outcomes[nodeid]
        label = "PASS" if status == "passed" else status.upper()
        terminalreporter.write_line(f"{label}: {_ACCEPTANCE_DOCS[nodeid]}")

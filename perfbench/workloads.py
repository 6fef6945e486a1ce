"""Synthetic raw source trees and pipeline configs for the benchmark workloads.

Everything here is deterministic in the workload seed and independent of the
test fixtures. Sizes that set the amount of work (number of records, stay
lengths, series length) do not depend on the seed: the seed only permutes
lengths and draws values, missingness and labels, so runs with different
seeds do the same amount of work.
"""

import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Real PhysioNet 2019 column order: 8 vitals, 26 labs, 5 demographics, then
# the ICULOS time stamp and the per-hour SepsisLabel target.
VITALS = (
    ("HR", 84.0, 17.0), ("O2Sat", 97.0, 3.0), ("Temp", 36.98, 0.77),
    ("SBP", 123.0, 23.0), ("MAP", 82.0, 16.0), ("DBP", 63.0, 14.0),
    ("Resp", 18.7, 5.0), ("EtCO2", 33.0, 8.0),
)
LABS = (
    ("BaseExcess", -0.7, 4.0), ("HCO3", 24.0, 4.4), ("FiO2", 0.55, 0.11),
    ("pH", 7.38, 0.07), ("PaCO2", 41.0, 9.0), ("SaO2", 92.6, 10.9),
    ("AST", 260.0, 85.0), ("BUN", 23.9, 19.9), ("Alkalinephos", 102.0, 60.0),
    ("Calcium", 7.56, 2.4), ("Chloride", 105.8, 5.9), ("Creatinine", 1.5, 1.8),
    ("Bilirubin_direct", 1.8, 3.8), ("Glucose", 136.0, 51.0), ("Lactate", 2.6, 2.5),
    ("Magnesium", 2.05, 0.4), ("Phosphate", 3.5, 1.4), ("Potassium", 4.1, 0.64),
    ("Bilirubin_total", 2.1, 4.3), ("TroponinI", 8.3, 24.8), ("Hct", 30.8, 5.5),
    ("Hgb", 10.4, 2.0), ("PTT", 41.0, 26.0), ("WBC", 11.4, 7.7),
    ("Fibrinogen", 287.0, 153.0), ("Platelets", 196.0, 103.0),
)
DEMOGRAPHICS = ("Age", "Gender", "Unit1", "Unit2", "HospAdmTime")
HEADER_2019 = (
    [name for name, _, _ in VITALS]
    + [name for name, _, _ in LABS]
    + list(DEMOGRAPHICS)
    + ["ICULOS", "SepsisLabel"]
)
assert len(HEADER_2019) == 41
# share of missing cells per vital; the labs span 72-88% (80% on average)
VITAL_MISSING = (0.10, 0.13, 0.66, 0.15, 0.12, 0.31, 0.15, 0.96)
LAB_MISSING = tuple(np.linspace(0.72, 0.88, len(LABS)))
UNIT_MISSING = 0.4
SEPTIC_SHARE = 0.07
MEDIAN_HOURS, MIN_HOURS, MAX_HOURS = 38.0, 8, 336
CAP_SHARE = 0.005  # stays exactly at the 336 h cap

WORKERS = 2  # parse threads per build; the workloads are sized for a 2-core machine

UEA_NAME = "UWaveGestureLibrary"
UEA_CLASSES = 8
UEA_DIMS = 3


@dataclass(frozen=True)
class Scale:
    stays_2019: int
    uea_train: int
    uea_test: int
    uea_length: int


FULL = Scale(stays_2019=500, uea_train=2238, uea_test=2240, uea_length=315)
SMOKE = Scale(stays_2019=60, uea_train=48, uea_test=40, uea_length=63)


@dataclass(frozen=True)
class TreeInfo:
    """Input size of a generated tree."""

    records: int
    sum_length: int
    source_channels: int


def stay_lengths(n: int) -> np.ndarray:
    """Skewed stay lengths in hours: log-normal quantiles around a 38 h
    median, clipped to [8, 336], with the longest ``CAP_SHARE`` of stays
    set to the cap. Returned in ascending order; callers permute them."""
    dist = statistics.NormalDist(mu=np.log(MEDIAN_HOURS), sigma=0.5)
    q = [np.exp(dist.inv_cdf((i + 0.5) / n)) for i in range(n)]
    lengths = np.clip(np.rint(q), MIN_HOURS, MAX_HOURS).astype(np.int64)
    lengths[n - max(1, round(CAP_SHARE * n)):] = MAX_HOURS
    return lengths


def write_physionet2019(root: Path, seed: int, scale: Scale) -> TreeInfo:
    """Write ``.torchtime/raw/physionet2019/training_set{A,B}/*.psv``."""
    rng = np.random.default_rng([2019, seed])
    n = scale.stays_2019
    lengths = rng.permutation(stay_lengths(n))
    septic = np.zeros(n, dtype=bool)
    septic[rng.permutation(n)[: round(SEPTIC_SHARE * n)]] = True

    means = np.array([m for _, m, _ in VITALS + LABS])
    sds = np.array([s for _, _, s in VITALS + LABS])
    missing = np.array(VITAL_MISSING + LAB_MISSING)
    fmt = "|".join(["%.2f"] * (len(VITALS) + len(LABS) + len(DEMOGRAPHICS)) + ["%d", "%d"])
    header = "|".join(HEADER_2019)

    raw = root / ".torchtime" / "raw" / "physionet2019"
    half = (n + 1) // 2
    for subset in ("training_setA", "training_setB"):
        (raw / subset).mkdir(parents=True, exist_ok=True)
    for i in range(n):
        L = int(lengths[i])
        series = means + sds * rng.standard_normal((L, len(means)))
        series[rng.random((L, len(means))) < missing] = np.nan
        age = rng.uniform(18.0, 90.0)
        gender = float(rng.integers(0, 2))
        unit1 = np.nan if rng.random() < UNIT_MISSING else float(rng.integers(0, 2))
        unit2 = np.nan if np.isnan(unit1) else 1.0 - unit1
        adm = -abs(rng.normal(50.0, 150.0))
        demo = np.broadcast_to([age, gender, unit1, unit2, adm], (L, len(DEMOGRAPHICS)))
        labels = np.zeros(L)
        if septic[i]:
            labels[int(rng.integers(0, L)):] = 1.0
        iculos = np.arange(1, L + 1, dtype=np.float64)
        table = np.column_stack([series, demo, iculos, labels])
        body = "\n".join(fmt % tuple(row) for row in table.tolist())
        if i < half:
            path = raw / "training_setA" / f"p{i + 1:06d}.psv"
        else:
            path = raw / "training_setB" / f"p{100000 + i + 1:06d}.psv"
        path.write_text(header + "\n" + body.replace("nan", "NaN") + "\n")
    # the time stamp counts as a source channel: masks and deltas cover it
    return TreeInfo(records=n, sum_length=int(lengths.sum()), source_channels=40)


def write_uea(root: Path, seed: int, scale: Scale) -> TreeInfo:
    """Write an equal-length 3-dimensional, 8-class ``.ts`` train/test pair
    shaped like UWaveGestureLibrary, values at 6 decimals."""
    rng = np.random.default_rng([315, seed])
    raw = root / ".torchtime" / "raw" / UEA_NAME.lower()
    raw.mkdir(parents=True, exist_ok=True)
    L = scale.uea_length
    t = np.linspace(0.0, 1.0, L)
    dim_fmt = ",".join(["%.6f"] * L)
    for part, count in (("TRAIN", scale.uea_train), ("TEST", scale.uea_test)):
        labels = rng.permutation(np.arange(count) % UEA_CLASSES)
        walk = np.cumsum(rng.standard_normal((count, UEA_DIMS, L)), axis=2) * 0.05
        freq = (labels[:, None, None] + 1) * (np.arange(UEA_DIMS)[None, :, None] + 1)
        values = np.sin(np.pi * freq * t[None, None, :]) + walk
        lines = [
            f"@problemName {UEA_NAME}",
            "@timeStamps false",
            "@missing false",
            "@univariate false",
            f"@dimensions {UEA_DIMS}",
            "@equalLength true",
            f"@seriesLength {L}",
            "@classLabel true " + " ".join(str(c + 1) for c in range(UEA_CLASSES)),
            "@data",
        ]
        for series, label in zip(values.tolist(), labels.tolist()):
            lines.append(":".join(dim_fmt % tuple(dim) for dim in series) + f":{label + 1}")
        (raw / f"{UEA_NAME}_{part}.ts").write_text("\n".join(lines) + "\n")
    n = scale.uea_train + scale.uea_test
    return TreeInfo(records=n, sum_length=n * L, source_channels=UEA_DIMS)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # golden digests are shared by workloads on one dataset
    warm: bool

    @property
    def is_2019(self) -> bool:
        return self.dataset == "physionet2019"

    def write_tree(self, root: Path, seed: int, scale: Scale) -> TreeInfo:
        if self.is_2019:
            return write_physionet2019(root, seed, scale)
        return write_uea(root, seed, scale)

    def config(self, root: Path, seed: int):
        from tsprep import PipelineConfig

        common = dict(
            split="train",
            train_prop=0.7,
            val_prop=0.15,
            mask=True,
            delta=True,
            standardise=True,
            path=str(root),
            seed=seed,
        )
        if self.is_2019:
            return PipelineConfig(dataset="physionet2019", impute="forward", **common)
        return PipelineConfig(
            dataset=UEA_NAME, missing=[0.3, 0.5, 0.7], impute="mean", **common
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("physionet2019_cold", "physionet2019", warm=False),
        Workload("physionet2019_warm", "physionet2019", warm=True),
        Workload("uea_missing_cold", "uea", warm=False),
    )
}

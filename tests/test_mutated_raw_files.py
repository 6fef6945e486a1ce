"""Seeded mutations of a file in each raw format: whatever the edits, its
loader raises only the parser's own error, and that error names the file.

The edits are the ones a truncated download or a hand edit makes: delete
or insert a byte, duplicate or delete a line, or cut the file short; each
copy gets one to four of them. Inserted bytes include ``\\xff``, so a copy
may not be UTF-8.
"""

import random

import pytest

from tsprep import physionet, pipeline
from tsprep.physionet import RecordParseError
from tsprep.ts_format import TsParseError

RECORD_2012 = b"""Time,Parameter,Value
00:00,RecordID,132539
00:00,Age,54
00:00,Gender,0
00:00,Height,-1
00:00,ICUType,4
00:00,Weight,-1
00:07,GCS,15
00:07,HR,73
00:37,HR,77
01:37,NIDiasABP,58
"""

RECORD_2019 = b"""HR|O2Sat|Temp|ICULOS|SepsisLabel
80|97||1|0
82.5|NaN|36.9|2|0
|95|37.4|3|1
"""

OUTCOMES_2012 = b"""RecordID,SAPS-I,SOFA,Length_of_stay,Survival,In-hospital_death
132539,6,1,5,-1,0
132540,16,8,8,5,1
"""

DEMO_TS = b"""# a univariate problem with two classes
@problemName Demo
@univariate true
@classLabel true a b
@data
1.5,2,?:a
4,5.25,6:b
-1,0,1e3:a
"""

# (file under the raw directory, its intact bytes, the loader given the raw directory)
FORMATS = {
    "2012 record": ("set-a/132539.txt", RECORD_2012,
                    lambda raw: physionet._parse_2012_file(raw / "set-a" / "132539.txt")),
    "2019 record": ("training_setA/p000001.psv", RECORD_2019,
                    lambda raw: physionet._parse_2019_file(raw / "training_setA" / "p000001.psv")),
    "2012 outcomes": ("Outcomes-a.txt", OUTCOMES_2012, physionet.load_outcomes_2012),
    "ts": ("Demo_TRAIN.ts", DEMO_TS, lambda raw: pipeline._ingest_uea(raw, "Demo")),
}

INSERTED = b"0123456789.,:|-+e?#@ aNx\"\n\r\xff"
COPIES = 500


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one to four random edits."""
    for _ in range(rng.randint(1, 4)):
        edit = rng.randrange(5)
        if edit == 0 and data:
            i = rng.randrange(len(data))
            data = data[:i] + data[i + 1 :]
        elif edit == 1:
            i = rng.randrange(len(data) + 1)
            data = data[:i] + bytes([rng.choice(INSERTED)]) + data[i:]
        elif edit in (2, 3):
            lines = data.split(b"\n")
            i = rng.randrange(len(lines))
            if edit == 2:
                lines.insert(i, lines[i])
            else:
                del lines[i]
            data = b"\n".join(lines)
        else:
            data = data[: rng.randrange(len(data) + 1)]
    return data


def escapes(raw, fmt: str, copies: int, seed: int = 0) -> tuple[int, list[str]]:
    """Load ``copies`` mutated copies of format ``fmt`` from ``raw``; returns
    how many failed, and one line for each failure that is not the parser's
    own error or does not start with the file's name."""
    name, data, load = FORMATS[fmt]
    path = raw / name
    path.parent.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{fmt}/{seed}")
    failed, bad = 0, []
    for _ in range(copies):
        path.write_bytes(mutate(data, rng))
        try:
            load(raw)
        except (RecordParseError, TsParseError) as err:
            failed += 1
            if not str(err).startswith(f"{name}: "):
                bad.append(f"{path.read_bytes()!r}: unnamed: {err}")
        except Exception as err:  # any other type is the defect
            failed += 1
            bad.append(f"{path.read_bytes()!r}: {type(err).__name__}: {err}")
    return failed, bad


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_a_mutated_file_fails_with_the_parsers_error_naming_it(tmp_path, fmt):
    name, data, load = FORMATS[fmt]
    (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / name).write_bytes(data)
    load(tmp_path)  # the intact file loads
    failed, bad = escapes(tmp_path, fmt, COPIES)
    assert bad == []
    assert failed > COPIES // 10  # the edits do break the files

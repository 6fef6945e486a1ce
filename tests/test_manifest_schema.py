"""Every key of every manifest kind, dropped or given a value of the wrong
type, is refused by every reader, and no writer publishes such a manifest.

The cases are generated from :data:`tsprep.tensorfile.SCHEMA`, so a key
added to the table is covered without editing this file.
"""

import json
import logging
import shutil

import pytest

from tsprep.cache_store import entry_dir
from tsprep.cli import main
from tsprep.tensorfile import ABSENT, SCHEMA, ManifestError, publish, read_manifest


def run(argv):
    return main([str(a) for a in argv])


def _paths(spec, path=()):
    """(path, spec) of every key and list item the table describes; a path
    step is a key, ``"*"`` for the first key of a ``{str: spec}`` object or
    ``0`` for the first item of a list."""
    if isinstance(spec, dict):
        for key, inner in spec.items():
            step = "*" if key is str else key
            yield path + (step,), inner
            yield from _paths(inner, path + (step,))
    elif isinstance(spec, list):
        yield path + (0,), spec[0]
        yield from _paths(spec[0], path + (0,))


def _wrong(spec):
    """A JSON value that does not fit ``spec``."""
    if isinstance(spec, tuple):
        return True  # never equal to an allowed value: true is not 1
    if isinstance(spec, (dict, list)) or spec in (dict, str):
        return 5
    return "x"  # int, bool and the tests (sha256, seed)


def _cases(kind):
    """One case per key dropped (unless it may be absent) and per key or
    item retyped, plus values that the hand-written checks once accepted."""
    cases = []
    for path, spec in _paths(SCHEMA[kind]):
        name = ".".join(map(str, path))
        optional = isinstance(spec, tuple) and ABSENT in spec
        if not (optional or path[-1] == 0):
            cases.append((f"drop-{name}", path, ABSENT))
        cases.append((f"retype-{name}", path, _wrong(spec)))
        if spec is int:
            cases.append((f"negative-{name}", path, -1))
    if kind == "prepared":
        cases.append(("dropped_records-true", ("dropped_records",), True))
        cases.append(("exported_dtype-f16", ("exported_dtype",), "f16"))
        cases.append(("channel_kinds-bogus", ("channel_kinds", "all"), "bogus"))
    else:
        cases.append(("dataset_info.dropped_records-true",
                      ("dataset_info", "dropped_records"), True))
    return [pytest.param(path, value, id=case) for case, path, value in cases]


def _edit(manifest, path, value):
    """Set (or, for ABSENT, drop) the value at ``path`` in ``manifest``."""
    *parents, last = path
    for step in parents:
        manifest = manifest[sorted(manifest)[0] if step == "*" else step]
    if last == "all":
        manifest[:] = [value] * len(manifest)
        return
    last = sorted(manifest)[0] if last == "*" else last
    if value is ABSENT:
        del manifest[last]
    else:
        manifest[last] = value


def _mutate(directory, path, value):
    target = directory / "manifest.json"
    manifest = json.loads(target.read_text())
    _edit(manifest, path, value)
    target.write_text(json.dumps(manifest))
    return target


ARGS = ["ArrowHead", "--train-prop", 0.7, "--val-prop", 0.2, "--seed", 123]
DIRECTORIES = {"prepared": ".torchtime/prepared/uea_arrowhead", "exported": "exported"}


@pytest.fixture(scope="module")
def clean_root(arrowhead_root, tmp_path_factory):
    """An ArrowHead root with its cache entry, prepared directory and an f32
    export of it, built once; tests copy what they change."""
    root = tmp_path_factory.mktemp("schema") / "root"
    shutil.copytree(arrowhead_root, root)
    assert run(["prepare", *ARGS, "--path", root]) == 0
    assert run(["export", root / DIRECTORIES["prepared"], "--out", root / "exported"]) == 0
    return root


def _listing(directory):
    return sorted((p.name, p.stat().st_size) for p in directory.iterdir())


@pytest.mark.parametrize("directory", sorted(DIRECTORIES))
@pytest.mark.parametrize("command", ["validate", "info", "export"])
@pytest.mark.parametrize("path, value", _cases("prepared"))
def test_prepared_manifest_off_schema_exits_1(
    clean_root, tmp_path, capsys, directory, command, path, value
):
    entry = tmp_path / "entry"
    shutil.copytree(clean_root / DIRECTORIES[directory], entry)
    manifest_path = _mutate(entry, path, value)
    before = _listing(entry)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, entry] + (["--out", out] if command == "export" else [])) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {manifest_path}: ") and captured.err.count("\n") == 1
    assert "checksums match" not in captured.out
    assert not out.exists() and _listing(entry) == before


@pytest.mark.parametrize("path, value", _cases("cache"))
def test_cache_manifest_off_schema_fails_validate_and_is_rebuilt(
    clean_root, tmp_path, capsys, caplog, path, value
):
    root = tmp_path / "root"
    shutil.copytree(clean_root, root)
    entry = entry_dir(root, "uea_arrowhead")
    manifest_path = _mutate(entry, path, value)
    capsys.readouterr()
    assert run(["validate", entry]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {manifest_path}: ") and captured.err.count("\n") == 1

    with caplog.at_level(logging.WARNING):
        assert run(["prepare", *ARGS, "--path", root]) == 0
    assert any("rebuilding corrupt cache entry" in r.message for r in caplog.records)
    clean = entry_dir(clean_root, "uea_arrowhead")
    for name in ("X.bin", "y.bin", "length.bin"):
        assert (entry / name).read_bytes() == (clean / name).read_bytes()
    assert run(["validate", entry]) == 0
    assert run(["validate", root / DIRECTORIES["prepared"]]) == 0


def test_cases_cover_every_key_of_the_table():
    """Drop and retype cases exist for each key, nested keys included."""
    ids = {p.id for kind in SCHEMA for p in _cases(kind)}
    for key in ("dataset_info.time_channel", "dataset_info.channels.0", "files.*.sha256",
                "files.*.shape.0", "split_sizes.*", "channel_kinds.0", "manifest_version"):
        assert f"retype-{key}" in ids
    for key in ("format_version", "dataset_info.mask_covers_time", "files.*.dtype", "config"):
        assert f"drop-{key}" in ids
    assert "drop-exported_dtype" not in ids  # exported_dtype may be absent


def test_publish_refuses_an_off_schema_manifest_and_keeps_the_old_directory(clean_root, tmp_path):
    final = tmp_path / "entry"
    shutil.copytree(entry_dir(clean_root, "uea_arrowhead"), final)
    before = {p.name: p.read_bytes() for p in final.iterdir()}
    manifest = read_manifest(final, "cache")
    fields = {"dataset": manifest["dataset"], "dataset_info": {**manifest["dataset_info"],
                                                              "dropped_records": "x"}}
    with pytest.raises(ManifestError, match=r"dataset_info\.dropped_records must be"):
        with publish(final, "cache", fields) as (tmp, files):
            for name, entry in manifest["files"].items():
                shutil.copyfile(final / name, tmp / name)
                files[name] = entry
    assert {p.name: p.read_bytes() for p in final.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry"]  # no staging left behind

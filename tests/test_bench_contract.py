"""The benchmark in ``perfbench/`` patches and calls tsprep by name. These
checks fail when a rename or deletion would break ``perfbench/run.py
--smoke``, so it is caught by the test suite rather than by the benchmark."""

import ast
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from tsprep import batching, cache_store, export, pipeline, tensor_core, tensorfile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "tsprep"
TRACING = PERFBENCH / "tracing.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return _load(TRACING, "perfbench_tracing")


WORKLOADS = _load(PERFBENCH / "workloads.py", "perfbench_workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_config_validates_and_its_echo_rebuilds_it(tmp_path, name):
    config = WORKLOADS.WORKLOADS[name].config(tmp_path, 1)
    echo = json.loads(json.dumps(export._config_echo(config)))
    assert pipeline.PipelineConfig(**echo) == config
    assert "workers" in inspect.signature(pipeline.build).parameters


def test_every_traced_function_resolves():
    targets = load_tracing()._targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize(
    "owner, attr",
    [
        (export, "read_manifest"),
        (export, "verify_manifest_files"),
        (cache_store, "entry_dir"),
        (cache_store, "verify"),
        (batching, "batches"),
        (tensor_core.Dataset, "length_train"),
    ],
)
def test_names_the_benchmark_jobs_use_exist(owner, attr):
    assert hasattr(owner, attr)


def test_series_count_hook_counts_the_series_of_a_parse():
    """The traced benchmark reads ``ts_format.series`` from this hook on the
    value ``pipeline.parse_ts_file`` returns."""
    text = "@univariate false\n@classLabel true a b\n@data\n1,2:3,4:a\n5:6:b\n7:?:a\n"
    result = pipeline.parse_ts_file(text)
    assert load_tracing()._series_count((text,), result) == {"items": 3}


def test_a_traced_build_records_steps_4_to_7_once_per_block(
    physionet2019_root, copy_tree, monkeypatch
):
    """The benchmark's per-layer times of steps 4-7 are spans around the
    functions the row-block pass calls; it must call them through their
    module attributes, once per block, or ``transforms.delta_s`` reads 0."""
    tracing = load_tracing()
    monkeypatch.setattr(tensorfile, "BLOCK_BYTES", 16 << 10)
    config = pipeline.PipelineConfig(
        dataset="physionet2019", split="train", train_prop=0.7, val_prop=0.15, seed=1,
        mask=True, delta=True, standardise=True, impute="forward",
        path=copy_tree(physionet2019_root),
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        dataset = pipeline.build(config)
    spans = tracing.SpanIndex(tracer.spans)
    row_bytes = dataset.layout.n_channels * dataset.ragged.dtype.itemsize
    blocks = len(list(pipeline._row_blocks(dataset.length_full, row_bytes)))
    assert blocks > 1
    under = ("pipeline.build",)
    assert spans.count("transforms.observational_mask", under) == blocks
    assert spans.count("transforms.time_delta", under) == blocks
    assert spans.count("tensor_core.channel_stats", under) == 2  # statistics and fill statistics


def _dead_imports(path: Path, kept: set[str]) -> list[str]:
    """Names that the module at ``path`` imports but never uses, other than
    those in ``kept`` or listed in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | kept]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_dead_imports(path):
    """Every imported name is used, or is one the tracer patches in this
    module (``perfbench/tracing._targets``): once the tracer stops patching
    names, its imports show up here for deletion."""
    module = importlib.import_module(f"tsprep.{path.stem}" if path.stem != "__init__" else "tsprep")
    kept = {attr for _, owner, attr, _ in load_tracing()._targets() if owner is module}
    assert _dead_imports(path, kept) == []


def test_a_traced_warm_build_records_each_cache_read(physionet2019_root, copy_tree):
    """The benchmark's ``cache_store.read_s`` and ``blob_mb`` are
    ``tensorfile.read_tensor`` spans under ``cache_store.load``: the load
    must read each blob through its own module attribute, once, or they
    read 0."""
    tracing = load_tracing()
    config = pipeline.PipelineConfig(
        dataset="physionet2019", split="train", train_prop=0.7, seed=1,
        path=copy_tree(physionet2019_root),
    )
    pipeline.build(config)  # primes the cache entry
    with tracing.installed(tracing.Tracer()) as tracer:
        pipeline.build(config)
    spans = tracing.SpanIndex(tracer.spans)
    assert [s.error for s in spans.named("cache_store.load")] == [None]
    reads = spans.named("tensorfile.read_tensor", ("cache_store.load",))
    entry = cache_store.entry_dir(config.path, config.key)
    assert sorted(s.attrs["bytes"] for s in reads) == sorted(
        (entry / name).stat().st_size for name in tensorfile.CACHE_BLOBS
    )

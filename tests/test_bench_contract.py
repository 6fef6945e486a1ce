"""The benchmark in ``perfbench/`` patches and calls tsprep by name. These
checks fail when a rename or deletion would break ``perfbench/run.py
--smoke``, so it is caught by the test suite rather than by the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from tsprep import batching, cache_store, export, pipeline, tensor_core

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

"""The benchmark in ``perfbench/`` patches and calls tsprep by name. These
checks fail when a rename or deletion would break ``perfbench/run.py
--smoke``, so it is caught by the test suite rather than by the benchmark."""

import importlib.util
from pathlib import Path

import pytest

from tsprep import batching, cache_store, export, tensor_core

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

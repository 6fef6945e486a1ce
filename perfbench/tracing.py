"""Span recording around tsprep's public functions, from outside the package.

Wrappers are installed where each function is looked up at call time, not
only where it is defined: ``tsprep.pipeline`` imports ``standardise``,
``parse_ts_file`` and friends by name, and ``cache_store``/``export`` import
``read_tensor``, ``write_tensor`` and ``sha256_file`` by name, so patching
the defining module alone would record nothing for those calls.

Spans are named after the defining module (``tensorfile.read_tensor``), and
the call site is recovered from the parent chain (a ``tensorfile.read_tensor``
span under ``cache_store.load`` is a cache read).
"""

import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: Optional[int] = None  # set for spans on pool worker threads
    error: Optional[str] = None
    out_bytes: int = 0  # bytes of arrays in the return value
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return 0


class Tracer:
    """In-memory span store. The main thread keeps a stack of open spans;
    a span opened on another thread takes the main thread's innermost open
    span as its parent (the pool's submitter is blocked inside it)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main = threading.main_thread().ident
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        on_main = threading.get_ident() == self._main
        parent = self._stack[-1].id if self._stack else None
        s = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent,
            thread=None if on_main else threading.get_ident(),
        )
        if on_main:
            self._stack.append(s)
        try:
            yield s
        except BaseException as err:
            s.error = type(err).__name__
            raise
        finally:
            s.end = time.perf_counter()
            if on_main:
                self._stack.pop()
            self.spans.append(s)

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                s.out_bytes = _array_bytes(result)
                if attrs is not None:
                    s.attrs.update(attrs(args, result))
                return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Count the items a generator function yields (``attrs['items']``);
        the span covers only the time spent producing them."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(name) as s:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    s.attrs["items"] = 1
                yield item

        traced.__wrapped__ = fn
        return traced


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _series_count(args, result) -> dict:
    return {"items": len(result[1])}


def _targets():
    """(span name, owner object, attribute, attrs hook) for every wrapped
    function, one entry per place it is looked up."""
    from tsprep import batching, cache_store, export, physionet, pipeline, tensor_core, transforms

    t = []
    t.append(("pipeline.build", pipeline, "build", None))
    for attr in ("load_records_2019", "parse_patient_2019"):
        t.append((f"physionet.{attr}", physionet, attr, None))
    t.append(("ts_format.parse_ts_file", pipeline, "parse_ts_file", _series_count))
    t.append(("ts_format.merge_train_test", pipeline, "merge_train_test", None))
    for attr in ("pad_to_longest", "append_time_channel", "channel_stats", "standardise"):
        t.append((f"tensor_core.{attr}", pipeline, attr, None))
    t.append(("tensor_core.Dataset.tensors", tensor_core.Dataset, "tensors", None))
    t.append(("splits.stratified_split", pipeline, "stratified_split", None))
    for attr in ("simulate_missing", "observational_mask", "time_delta", "build_fill", "impute"):
        t.append((f"transforms.{attr}", transforms, attr, None))
    for attr in ("load", "save", "verify"):
        t.append((f"cache_store.{attr}", cache_store, attr, None))
    for attr in ("write_prepared", "export_prepared", "verify_manifest_files"):
        t.append((f"export.{attr}", export, attr, None))
    for module in (cache_store, export):
        t.append(("tensorfile.read_tensor", module, "read_tensor", _file_bytes))
        t.append(("tensorfile.write_tensor", module, "write_tensor", _file_bytes))
        t.append(("util.sha256_file", module, "sha256_file", _file_bytes))
    t.append(("batching.pack", batching, "pack", None))
    return t


@contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore."""
    from tsprep import batching

    saved = []
    try:
        for name, owner, attr, hook in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        saved.append((batching, "batches", batching.batches))
        batching.batches = tracer.wrap_generator("batching.batches", batching.batches)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanIndex:
    """Queries over one batch of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[Optional[int], list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def named(self, name: str, under: tuple[str, ...] = ()) -> list[Span]:
        return [s for s in self.spans if s.name == name and (not under or self._under(s, under))]

    def _under(self, span: Span, names: tuple[str, ...]) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def total(self, name: str, under: tuple[str, ...] = ()) -> float:
        return sum(s.duration for s in self.named(name, under))

    def count(self, name: str, under: tuple[str, ...] = ()) -> int:
        return len(self.named(name, under))

    def attr_sum(self, name: str, key: str, under: tuple[str, ...] = ()) -> float:
        return sum(s.attrs.get(key, 0) for s in self.named(name, under))

    def self_time(self, span: Span) -> float:
        kids = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get(span.id, [])
        ]
        return span.duration - _covered([k for k in kids if k[1] > k[0]])

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += self.self_time(s)
        return dict(out)

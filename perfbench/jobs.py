"""Child-process roles of the benchmark.

``setup``   writes the raw tree (and, for a warm workload, primes the cache)
            and reports its duration.
``measure`` runs the timed jobs in a fresh process, so its peak RSS covers
            only them: ``build``, ``export.write_prepared``,
            ``export.export_prepared`` and one ``batches``+``pack`` epoch
            per repetition, each checked for correctness afterwards.
``corrupt`` checks that a corrupted cache blob is rebuilt, not loaded.

Each role prints one JSON object as the last line of its standard output.
Usage: ``python3 jobs.py {setup,measure,corrupt} <json args>``.
"""

import gc
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

from tsprep import batching, cache_store, export, pipeline
from tsprep.tensorfile import DTYPE_OF_CODE, HEADER_SIZE

BATCH_SIZE = 64
MIN_REPS = 3
MIN_TRACE_REPS = 4  # alternating untraced/traced, two of each
# A job shorter than this is repeated within a repetition and its mean time
# is the sample, so that one burst of host contention does not decide it.
MIN_SAMPLE_S = 1.0
JOBS = ("build", "prepare", "export", "epoch")
_CHUNK = 1 << 20  # elements per comparison chunk


def _paths(work: Path) -> tuple[Path, Path, Path]:
    return work / "root", work / "prepared", work / "exported"


def _blob_digests(prepared: Path) -> dict[str, str]:
    return {name: e["sha256"] for name, e in sorted(export.read_manifest(prepared)["files"].items())}


def _flush(directory: Path) -> None:
    """fsync every file under ``directory``, so that writing it back to disk
    does not overlap the timed repetitions."""
    for path in directory.rglob("*"):
        if path.is_file():
            with open(path, "rb") as f:
                os.fsync(f.fileno())


def setup(args: dict) -> dict:
    w = workloads.WORKLOADS[args["workload"]]
    scale = workloads.FULL if args["scale"] == "full" else workloads.SMOKE
    work = Path(args["work"])
    shutil.rmtree(work, ignore_errors=True)
    root, prepared, _ = _paths(work)
    t0 = time.perf_counter()
    info = w.write_tree(root, args["seed"], scale)
    config = w.config(root, args["seed"])
    dataset = pipeline.build(config, workers=workloads.WORKERS) if w.warm else None
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "info": info.__dict__}
    if dataset is not None:
        # the priming build is a cold build: warm repetitions must match it
        export.write_prepared(dataset, config, prepared)
        out["cold_digests"] = _blob_digests(prepared)
        shutil.rmtree(prepared)
    return out


def _read_chunks(path: Path):
    """Yield a tensor file's payload in chunks, without loading it whole."""
    with open(path, "rb") as f:
        fields = f.read(HEADER_SIZE)[8:].decode("ascii").split()
        dtype = np.dtype(DTYPE_OF_CODE[fields[0]])
        while True:
            chunk = np.fromfile(f, dtype=dtype, count=_CHUNK)
            if chunk.size == 0:
                return
            yield chunk


def _export_matches(prepared: Path, exported: Path) -> bool:
    """Every f32 export blob equals the prepared f64 blob cast to f32
    (lengths stay i64 and must be equal)."""
    for name in export.read_manifest(prepared)["files"]:
        chunks = zip(_read_chunks(prepared / name), _read_chunks(exported / name), strict=True)
        for want, got in chunks:
            if want.dtype.kind == "f":
                want = want.astype(np.float32)
            if want.dtype != got.dtype or not np.array_equal(want, got, equal_nan=True):
                return False
    return True


class Rep:
    """One repetition: the four jobs, timed by ``run``, then ``check``ed."""

    def __init__(self, w: workloads.Workload, config, work: Path, traced: bool) -> None:
        self.w, self.config, self.traced = w, config, traced
        self.root, self.prepared, self.exported = _paths(work)
        self.entry = cache_store.entry_dir(self.root, config.key)
        self.times: dict[str, float] = {}
        self.failed: set[str] = set()
        self.digests: dict[str, str] = {}
        self.out_bytes = 0

    def clean(self) -> None:
        """Remove this repetition's outputs (and, cold, the cache entry);
        files deleted this soon are never written back to disk."""
        if not self.w.warm:
            shutil.rmtree(self.entry, ignore_errors=True)
        for d in (self.prepared, self.exported):
            shutil.rmtree(d, ignore_errors=True)

    def _timed(self, call, before=None):
        """Mean seconds per call of ``call`` (run once when traced, else
        until MIN_SAMPLE_S has passed) and its last result."""
        total, calls, result = 0.0, 0, None
        while calls == 0 or (total < MIN_SAMPLE_S and not self.traced):
            result = None  # release the previous result before the next call
            if before is not None:
                before()
            t0 = time.perf_counter()
            result = call()
            total += time.perf_counter() - t0
            calls += 1
        return total / calls, result

    def run(self) -> None:
        self.clean()
        self.entry_before = self.entry.stat().st_ino if self.entry.exists() else None
        dataset = None
        job = "build"
        try:
            build_s, dataset = self._timed(
                lambda: pipeline.build(self.config, workers=workloads.WORKERS),
                None if self.w.warm else self.clean,
            )
            job = "prepare"
            write_s, _ = self._timed(
                lambda: export.write_prepared(dataset, self.config, self.prepared)
            )
            job = "export"
            export_s, _ = self._timed(
                lambda: export.export_prepared(self.prepared, self.exported, "f32")
            )
            job = "epoch"
            self.train_lengths = dataset.length_train
            epoch_s, self.epoch_counts = self._timed(lambda: self._epoch(dataset))
        except Exception:
            traceback.print_exc()
            self.failed.update(JOBS[JOBS.index(job):])
            return
        finally:
            del dataset
            gc.collect()
        self.times = {
            "build_s": build_s,
            "prepare_s": build_s + write_s,
            "export_s": export_s,
            "epoch_s": epoch_s,
        }

    def _epoch(self, dataset) -> tuple[int, int]:
        """One pass over the training split; returns (packed rows, batches)."""
        rows = n_batches = 0
        for batch in batching.batches(dataset, "train", BATCH_SIZE):
            packed = batching.pack(batch, per_step_y=self.w.is_2019)
            rows += packed.values.shape[0]
            n_batches += 1
        return rows, n_batches

    def check(self) -> None:
        if not self.times:
            return
        after = self.entry.stat().st_ino if self.entry.exists() else None
        hit = self.entry_before is not None and after == self.entry_before
        if after is None or hit != self.w.warm:
            print(f"cache entry {'was rebuilt' if self.w.warm else 'was not written'}", file=sys.stderr)
            self.failed.add("build")
        if export.verify_manifest_files(self.prepared):
            self.failed.add("prepare")
        self.digests = _blob_digests(self.prepared)
        self.out_bytes = sum((self.prepared / n).stat().st_size - HEADER_SIZE for n in self.digests)
        if export.verify_manifest_files(self.exported) or not _export_matches(
            self.prepared, self.exported
        ):
            self.failed.add("export")
        want = (int(self.train_lengths.sum()), math.ceil(len(self.train_lengths) / BATCH_SIZE))
        if self.epoch_counts != want:
            self.failed.add("epoch")


def measure(args: dict) -> dict:
    w = workloads.WORKLOADS[args["workload"]]
    work = Path(args["work"])
    root, _, _ = _paths(work)
    config = w.config(root, args["seed"])
    references = dict(args["references"])  # label -> digests every rep must match
    trace = bool(args["trace"])
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS

    _flush(work)
    reps, traced_spans, mismatches = [], [], []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < args["seconds"]:
        rep = Rep(w, config, work, traced=trace and len(reps) % 2 == 1)
        if rep.traced:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                rep.run()
            traced_spans.append(tracer.spans)
        else:
            rep.run()
        rep.check()
        rep.clean()
        if rep.digests:
            references.setdefault("first repetition", rep.digests)
            for label, want in references.items():
                if rep.digests != want:
                    mismatches.append(f"rep {len(reps)}: prepared blobs differ from {label}")
                    rep.failed.add("prepare")
        reps.append(rep)
    for line in mismatches:
        print(line, file=sys.stderr)

    return {
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "reps": [
            {"times": r.times, "failed": sorted(r.failed), "traced": r.traced, "out_bytes": r.out_bytes}
            for r in reps
        ],
        "digests": reps[0].digests,
        "spans": [[s.__dict__ for s in spans] for spans in traced_spans],
    }


def corrupt(args: dict) -> dict:
    """Flip one payload byte of a primed cache blob: the next build must see
    a corrupt entry (a cache miss), rebuild it and reproduce the cold bytes."""
    primed = setup(args)
    w = workloads.WORKLOADS[args["workload"]]
    root, prepared, _ = _paths(Path(args["work"]))
    config = w.config(root, args["seed"])
    blob = cache_store.entry_dir(root, config.key) / "X.bin"
    data = bytearray(blob.read_bytes())
    data[HEADER_SIZE + (len(data) - HEADER_SIZE) // 2] ^= 0x01
    blob.write_bytes(bytes(data))

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        dataset = pipeline.build(config, workers=workloads.WORKERS)
    export.write_prepared(dataset, config, prepared)
    spans = tracing.SpanIndex(tracer.spans)
    problems = []
    outcomes = [s.error for s in spans.named("cache_store.load")]
    if outcomes != ["CacheCorrupt"]:
        problems.append(f"cache load outcomes {outcomes}, expected one CacheCorrupt miss")
    if spans.count("cache_store.save") != 1:
        problems.append("the corrupted entry was not rebuilt")
    if _blob_digests(prepared) != primed["cold_digests"]:
        problems.append("the rebuild changed the prepared bytes")
    if cache_store.verify(blob.parent):
        problems.append("the rebuilt entry does not verify")
    return {"problems": problems}


def main(argv: list[str]) -> int:
    role, args = argv[0], json.loads(argv[1])
    result = {"setup": setup, "measure": measure, "corrupt": corrupt}[role](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

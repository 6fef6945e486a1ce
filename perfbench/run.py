"""tsprep benchmark: cold and warm PhysioNet-2019 builds and a UEA
missing-data build, timed end to end, with per-layer spans in a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload physionet2019_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Load model: a closed loop with one client in one process; each job starts
when the previous one has completed. A repetition is ``build`` (2 parse
workers), ``export.write_prepared``, ``export.export_prepared`` to f32 and
one ``batches(ds, "train", 64)`` epoch with ``pack`` on every batch; a job
shorter than a second is repeated and timed by its mean. Repetitions run
until ``--seconds`` have passed (at least three), in a fresh process that
does nothing else, so its peak RSS belongs to the jobs. Each timing is the
median over repetitions. Set-up (writing the raw tree, and priming the
cache for the warm workload) runs four times in other processes;
``setup_s`` is its median.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` repetitions alternate untraced
and traced (each job once), and it holds the per-layer metrics: totals
per repetition, medians over the traced repetitions. ``--smoke`` runs
every workload at a tiny scale, checks that every metric is reported with
its unit and that a corrupted cache blob is rebuilt, and exits non-zero on
any failure.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads
from tracing import Span, SpanIndex

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
SETUP_REPS = 4
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "prepare_s": "s",
    "prepare_mcells_per_s": "Mcell/s",
    "export_s": "s",
    "epoch_s": "s",
    "peak_rss_mb": "MB",
    "peak_rss_ratio": "ratio",
}
PER_LAYER = {
    "physionet.load_s": "s",
    "physionet.parse_busy_s": "s",
    "physionet.parse_calls": "count",
    "physionet.pool_idle_s": "s",
    "ts_format.parse_s": "s",
    "ts_format.series": "count",
    "transforms.simulate_s": "s",
    "cache_store.save_s": "s",
    "cache_store.write_s": "s",
    "cache_store.hash_s": "s",
    "cache_store.load_s": "s",
    "cache_store.read_s": "s",
    "cache_store.read_passes": "passes",
    "cache_store.blob_mb": "MB",
    "cache_store.hits": "count",
    "cache_store.misses": "count",
    "tensor_core.pad_s": "s",
    "tensor_core.stats_s": "s",
    "tensor_core.stats_calls": "count",
    "tensor_core.standardise_s": "s",
    "transforms.mask_s": "s",
    "transforms.delta_s": "s",
    "transforms.impute_s": "s",
    "transforms.impute_calls": "count",
    "splits.split_s": "s",
    "pipeline.self_s": "s",
    "pipeline.out_mb": "MB",
    "tensor_core.select_s": "s",
    "tensor_core.select_calls": "count",
    "export.write_prepared_s": "s",
    "export.hash_s": "s",
    "export.written_mb": "MB",
    "export.export_s": "s",
    "batching.pack_s": "s",
    "batching.batches": "count",
    "trace.overhead_pct": "%",
}
CACHE_MISSES = {"CacheMiss", "CacheAbsent", "CacheCorrupt"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(role: str, args: dict, deadline: float) -> dict:
    """Run one ``jobs.py`` role in a fresh interpreter and return its JSON
    result; the child is killed (and reaped) if it passes the deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "jobs.py"), role, json.dumps(args)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float], q: float = 0.9):
    """The q-quantile, reported only when ten or more samples lie beyond it."""
    if len(values) * (1 - q) < 10:
        return None
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals for one traced repetition."""
    ix = SpanIndex(spans)
    load = ix.total("physionet.load_records_2019")
    busy = ix.total("physionet.parse_patient_2019")
    in_load, in_save = ("cache_store.load",), ("cache_store.save",)
    read = ix.attr_sum("tensorfile.read_tensor", "bytes", in_load)
    hashed = ix.attr_sum("util.sha256_file", "bytes", in_load)
    written = ix.attr_sum("tensorfile.write_tensor", "bytes", in_save)
    loads = ix.named("cache_store.load")
    builds = ix.named("pipeline.build")
    exports = ("export.write_prepared", "export.export_prepared")
    return {
        "physionet.load_s": load,
        "physionet.parse_busy_s": busy,
        "physionet.parse_calls": ix.count("physionet.parse_patient_2019"),
        "physionet.pool_idle_s": workloads.WORKERS * load - busy,
        "ts_format.parse_s": ix.total("ts_format.parse_ts_file"),
        "ts_format.series": ix.attr_sum("ts_format.parse_ts_file", "items"),
        "transforms.simulate_s": ix.total("transforms.simulate_missing"),
        "cache_store.save_s": ix.total("cache_store.save"),
        "cache_store.write_s": ix.total("tensorfile.write_tensor", in_save),
        "cache_store.hash_s": ix.total("util.sha256_file", in_load + in_save),
        "cache_store.load_s": ix.total("cache_store.load"),
        "cache_store.read_s": ix.total("tensorfile.read_tensor", in_load),
        "cache_store.read_passes": (hashed + read) / read if read else 0.0,
        "cache_store.blob_mb": (read + written) / 1e6,
        "cache_store.hits": sum(s.error is None for s in loads),
        "cache_store.misses": sum(s.error in CACHE_MISSES for s in loads),
        "tensor_core.pad_s": ix.total("tensor_core.pad_to_longest"),
        "tensor_core.stats_s": ix.total("tensor_core.channel_stats"),
        "tensor_core.stats_calls": ix.count("tensor_core.channel_stats"),
        "tensor_core.standardise_s": ix.total("tensor_core.standardise"),
        "transforms.mask_s": ix.total("transforms.observational_mask"),
        "transforms.delta_s": ix.total("transforms.time_delta"),
        "transforms.impute_s": ix.total("transforms.impute"),
        "transforms.impute_calls": ix.count("transforms.impute"),
        "splits.split_s": ix.total("splits.stratified_split"),
        "pipeline.self_s": sum(ix.self_time(b) for b in builds),
        "pipeline.out_mb": sum(c.out_bytes for b in builds for c in ix.children[b.id]) / 1e6,
        "tensor_core.select_s": ix.total("tensor_core.Dataset.tensors"),
        "tensor_core.select_calls": ix.count("tensor_core.Dataset.tensors"),
        "export.write_prepared_s": ix.total("export.write_prepared"),
        "export.hash_s": ix.total("util.sha256_file", exports),
        "export.written_mb": ix.attr_sum("tensorfile.write_tensor", "bytes", exports[:1]) / 1e6,
        "export.export_s": ix.total("export.export_prepared"),
        "batching.pack_s": ix.total("batching.pack"),
        "batching.batches": ix.attr_sum("batching.batches", "items"),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[dict, list[str]]:
    """Run one workload and return ``(result, report lines)``."""
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / workload
    try:
        child = {"workload": workload, "seed": seed, "scale": scale, "work": str(work)}
        setups = [run_child("setup", child, deadline) for _ in range(SETUP_REPS)]
        info = setups[-1]["info"]
        references = {}
        if "cold_digests" in setups[-1]:
            references["the cold priming build"] = setups[-1]["cold_digests"]
        if seed == DEFAULT_SEED:
            dataset = workloads.WORKLOADS[workload].dataset
            golden = json.loads(GOLDEN.read_text())[scale].get(dataset)
            if golden is None:
                raise BenchError(f"{GOLDEN.name} has no {scale} digests for {dataset}")
            references[f"the golden digests in {GOLDEN.name}"] = golden
        measured = run_child(
            "measure",
            {**child, "seconds": seconds, "trace": int(trace), "references": references},
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = measured["reps"]
    attempted = 4 * len(reps)
    failed = sum(len(r["failed"]) for r in reps)
    plain = [r for r in reps if r["times"] and not r["traced"]]
    if not plain:
        raise BenchError("no repetition completed")
    samples = {k: [r["times"][k] for r in plain] for k in plain[0]["times"]}
    lines = [
        f"workload {workload} seed {seed} scale {scale}: {info['records']} records, "
        f"sum length {info['sum_length']}, {info['source_channels']} source channels",
        f"jobs attempted {attempted}, failed {failed}, error_rate {failed / attempted:.4f}",
        "prepared digests " + json.dumps(measured["digests"], sort_keys=True),
    ]
    if trace:
        write_spans(workload, seed, measured["spans"])
        metrics, layer_lines = traced_metrics(measured, samples["prepare_s"])
        lines += layer_lines
        units = PER_LAYER
    else:
        prepare = median(samples["prepare_s"])
        out_bytes = plain[0]["out_bytes"]
        metrics = {
            "setup_s": median([s["setup_s"] for s in setups]),
            **{k: median(v) for k, v in samples.items()},
            "prepare_mcells_per_s": info["sum_length"] * info["source_channels"] / prepare / 1e6,
            "peak_rss_mb": measured["peak_rss_bytes"] / 1e6,
            "peak_rss_ratio": measured["peak_rss_bytes"] / out_bytes,
        }
        lines.append(f"prepared output {out_bytes / 1e6:.1f} MB (f64)")
        for k, v in [("setup_s", [s["setup_s"] for s in setups])] + list(samples.items()):
            p90 = tail(v)
            extra = f", p90 {p90:.4f}" if p90 is not None else ""
            samples_s = " ".join(f"{x:.3f}" for x in v)
            lines.append(f"{k}: median {median(v):.4f} s over n={len(v)}{extra} [{samples_s}]")
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def traced_metrics(measured: dict, untraced_prepare: list[float]):
    traced = [r for r in measured["reps"] if r["times"] and r["traced"]]
    runs = [[Span(**s) for s in spans] for spans in measured["spans"]]
    per_rep = [layer_metrics(spans) for spans in runs]
    metrics = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
    traced_prepare = median([r["times"]["prepare_s"] for r in traced])
    metrics["trace.overhead_pct"] = 100.0 * (traced_prepare / median(untraced_prepare) - 1.0)
    self_times = SpanIndex(runs[0]).self_times()
    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:6]
    lines = [f"traced repetitions {len(runs)}; largest self times in the first:"]
    lines += [f"  {name}: {t:.4f} s" for name, t in top]
    return metrics, lines


def write_spans(workload: str, seed: int, spans: list) -> None:
    WORK.mkdir(exist_ok=True)
    (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tsprep").is_dir():
        print(f"perfbench: no tsprep package under {SRC}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, lines = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny scale, traced and untraced, plus a corrupted
    cache blob; returns the exit status."""
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench_json["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench_json["per_layer"]},
    }
    problems = []
    for name in (w["name"] for w in bench_json["workloads"]):
        for trace in (0, 1):
            result, _ = bench(name, DEFAULT_SEED, 0.0, bool(trace), scale="smoke")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != declared {declared[trace]}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed jobs")
            print(f"smoke {name} trace {trace}: {'ok' if result['correct'] else 'FAILED'}")
    corrupt = run_child(
        "corrupt",
        {"workload": "physionet2019_warm", "seed": DEFAULT_SEED, "scale": "smoke", "work": str(WORK / "corrupt")},
        time.monotonic() + DEADLINE_S,
    )
    shutil.rmtree(WORK / "corrupt", ignore_errors=True)
    problems += corrupt["problems"]
    print(f"smoke corrupted cache blob: {'ok' if not corrupt['problems'] else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``fetch`` (download raw sources), ``prepare`` (run the
pipeline and write a prepared directory), ``export`` (convert a prepared
directory, default f32), ``info`` (shapes, channels, missingness) and
``validate`` (re-check the SHA256 of every blob of a cache entry, prepared
or export directory against its manifest).

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The cache root defaults to ``--path``, then ``TSPREP_CACHE``, then the
working directory.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import tsprep
from tsprep import cache_store, export, fetch, transforms
from tsprep.pipeline import BuildError, ConfigError, PipelineConfig, build
from tsprep.tensorfile import ManifestError, TensorFileError, verify_dir

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _default_path() -> str:
    return os.environ.get("TSPREP_CACHE", ".")


def _pieces(text: str) -> list[str]:
    """The stripped, non-empty comma-separated pieces of a flag's text;
    :class:`PipelineConfig` converts them."""
    return [p.strip() for p in text.split(",") if p.strip()]


def _add_prepare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("dataset", help="UEA problem name or physionet2012/2019/2019binary")
    p.add_argument("--train-prop", type=float, required=True)
    p.add_argument("--val-prop", type=float, default=None)
    p.add_argument("--missing", default="0", help="proportion to drop, or one per channel")
    p.add_argument("--impute", default="none", choices=transforms.IMPUTE_METHODS)
    p.add_argument("--categorical", default="", help="comma list of channel indices")
    p.add_argument("--channel-means", default="", help="overrides like 1=4.5,3=7.2")
    p.add_argument("--time", action=argparse.BooleanOptionalAction, default=True,
                   help="append the time stamp as channel 0")
    p.add_argument("--mask", action="store_true", help="append observational masks")
    p.add_argument("--delta", action="store_true", help="append time deltas")
    p.add_argument("--standardise", action="store_true")
    p.add_argument("--overwrite-cache", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--path", default=None, help="cache root (or TSPREP_CACHE)")
    p.add_argument("--workers", type=int, default=1, help="parser processes")
    p.add_argument("--out", default=None, help="prepared-directory location")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsprep",
        description="Prepare irregular time series benchmarks as framework-neutral tensors.",
    )
    parser.add_argument("--version", action="version", version=f"tsprep {tsprep.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fetch = sub.add_parser("fetch", help="download raw source archives")
    p_fetch.add_argument("dataset")
    p_fetch.add_argument("--path", default=None)

    p_prepare = sub.add_parser("prepare", help="run the pipeline and write tensors")
    _add_prepare_args(p_prepare)

    p_export = sub.add_parser("export", help="convert a prepared directory")
    p_export.add_argument("entry", help="prepared directory")
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--dtype", default="f32", choices=["f32", "f64"])

    p_info = sub.add_parser("info", help="describe a prepared directory")
    p_info.add_argument("entry")

    p_validate = sub.add_parser("validate", help="re-check SHA256 checksums")
    p_validate.add_argument("entry")
    return parser


def cmd_fetch(args) -> int:
    try:
        dest = fetch.fetch_dataset(Path(args.path or _default_path()), args.dataset)
    except KeyError as err:
        raise ConfigError(err.args[0]) from None
    print(f"raw sources ready under {dest}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    path = args.path or _default_path()
    missing = _pieces(args.missing)
    if not missing:
        raise ConfigError("--missing expects at least one value")
    means = [item.split("=") for item in _pieces(args.channel_means)]
    if any(len(pair) != 2 for pair in means):
        raise ConfigError(f"--channel-means expects items like 1=4.5, got {args.channel_means!r}")
    # every config field is the flag of the same name, except these (a
    # prepared directory holds every split, whichever one is bound)
    parsed = {
        "split": "train",
        "missing": missing[0] if len(missing) == 1 and "," not in args.missing else missing,
        "categorical": _pieces(args.categorical),
        "channel_means": dict(means),
        "path": path,
    }
    names = {f.name for f in dataclasses.fields(PipelineConfig)} - parsed.keys()
    config = PipelineConfig(**parsed, **{name: getattr(args, name) for name in names})
    out_dir = Path(args.out or Path(path) / cache_store.CACHE_DIRNAME / "prepared" / config.key)
    export.check_replaceable(out_dir)  # fail before the build, not after it
    dataset = build(config, workers=args.workers)
    manifest_path = export.write_prepared(dataset, config, out_dir)
    sizes = ", ".join(f"{s}={dataset.split_size(s)}" for s in dataset.splits)
    print(f"prepared {dataset.name}: {sizes}; channels={dataset.layout.n_channels}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_export(args) -> int:
    manifest_path = export.export_prepared(args.entry, args.out, dtype=args.dtype)
    print(f"exported to {Path(args.out)} ({args.dtype}); manifest: {manifest_path}")
    return EXIT_OK


def _report_corrupt(entry: Path) -> bool:
    """List the blobs of ``entry`` that fail their manifest; True if any do."""
    bad = verify_dir(entry)
    for name in bad:
        print(f"corrupt: {entry / name}", file=sys.stderr)
    return bool(bad)


def cmd_info(args) -> int:
    directory = Path(args.entry)
    manifest = export.read_manifest(directory)
    # rates first, so that a malformed header is reported as such
    rates = export.missingness_rates(directory)
    if _report_corrupt(directory):
        return EXIT_RUNTIME
    print(f"dataset: {manifest['dataset']}")
    print(f"tool: {manifest['tool']} {manifest['tool_version']}")
    print(f"seed: {manifest['seed']}")
    print(f"split sizes: {manifest['split_sizes']}")
    print(f"dropped records: {manifest['dropped_records']}")
    print("channels:")
    for name, kind in zip(manifest["channels"], manifest["channel_kinds"]):
        print(f"  {name} [{kind}]")
    print("files:")
    for name, entry in sorted(manifest["files"].items()):
        print(f"  {name}: shape={tuple(entry['shape'])} dtype={entry['dtype']}")
    for split, per_channel in rates.items():
        print(f"missingness ({split}):")
        for name, rate in per_channel.items():
            print(f"  {name}: {rate:.4f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    entry = Path(args.entry)
    if _report_corrupt(entry):
        return EXIT_RUNTIME
    print(f"{entry}: all checksums match")
    return EXIT_OK


_COMMANDS = {
    "fetch": cmd_fetch,
    "prepare": cmd_prepare,
    "export": cmd_export,
    "info": cmd_info,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (BuildError, fetch.FetchError, ManifestError, TensorFileError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Download and unpack source archives into the raw-sources directory.

:func:`source` resolves a dataset name, for ``fetch`` and the pipeline
alike, to the PhysioNet 2012/2019 challenge files or a UEA/UCR zip bundle.
Downloads use ``urllib`` (TLS checked against the system trust store), resume
a ``.part`` file via HTTP range requests when the server allows, verify an
expected SHA256 when one is pinned, and are idempotent: complete verified
files are never re-downloaded.
"""

import http.client
import re
import shutil
import tarfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from urllib.error import HTTPError
from urllib.parse import urlparse
from urllib.request import Request, urlopen

from tsprep.cache_store import CACHE_DIRNAME
from tsprep.util import sha256_file

RAW_DIRNAME = f"{CACHE_DIRNAME}/raw"
_TIMEOUT = 30
_CHUNK = 1 << 16


class FetchError(RuntimeError):
    """Download or extraction failure."""


@dataclass(frozen=True)
class SourceFile:
    url: str
    kind: str  # "zip", "tar-gz" or "file" (no extraction)
    sha256: Optional[str] = None

    @property
    def filename(self) -> str:
        name = Path(urlparse(self.url).path).name
        if not name:
            raise FetchError(f"cannot derive a filename from {self.url}")
        return name


@dataclass(frozen=True)
class SourceDescriptor:
    name: str
    files: tuple[SourceFile, ...]


_UEA_BASE = "https://www.timeseriesclassification.com/aeon-toolkit"
_PN2012_BASE = "https://physionet.org/files/challenge-2012/1.0.0"
_PN2019_BASE = "https://physionet.org/files/challenge-2019/1.0.0/training"


def uea_descriptor(dataset: str) -> SourceDescriptor:
    return SourceDescriptor(
        name=dataset.lower(),
        files=(SourceFile(url=f"{_UEA_BASE}/{dataset}.zip", kind="zip"),),
    )


REGISTRY: dict[str, SourceDescriptor] = {
    "arrowhead": uea_descriptor("ArrowHead"),
    "charactertrajectories": uea_descriptor("CharacterTrajectories"),
    "physionet2012": SourceDescriptor(
        name="physionet2012",
        files=tuple(
            [SourceFile(url=f"{_PN2012_BASE}/set-{s}.tar.gz", kind="tar-gz") for s in "abc"]
            + [SourceFile(url=f"{_PN2012_BASE}/Outcomes-{s}.txt", kind="file") for s in "abc"]
        ),
    ),
    "physionet2019": SourceDescriptor(
        name="physionet2019",
        files=tuple(
            SourceFile(url=f"{_PN2019_BASE}/training_set{s}.zip", kind="zip") for s in "AB"
        ),
    ),
}
# the binary variant consumes the same raw files
REGISTRY["physionet2019binary"] = REGISTRY["physionet2019"]


def source(name: str) -> SourceDescriptor:
    """The registry entry of dataset ``name``, else the UEA/UCR bundle of that
    archive name; ``KeyError`` for any other name, so none leaves the root."""
    if name.lower() in REGISTRY:
        return REGISTRY[name.lower()]
    if re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_-]*", name):
        return uea_descriptor(name)
    raise KeyError(
        f"invalid dataset name {name!r}: use one of {', '.join(sorted(REGISTRY))} "
        "or a UEA/UCR problem spelled as its archive is (e.g. BasicMotions)"
    )


def raw_dir(root: Path, name: str) -> Path:
    return Path(root) / RAW_DIRNAME / name


def download_file(source: SourceFile, dest_dir: Path) -> Path:
    """Fetch one file to ``dest_dir``, resuming its ``.part`` file where the
    server honours range requests; a body cut short raises and keeps what
    arrived. A ``source.sha256`` mismatch removes the file and raises."""
    dest_dir.mkdir(parents=True, exist_ok=True)
    target = dest_dir / source.filename
    if target.exists():
        if source.sha256 is None or sha256_file(target) == source.sha256:
            return target
        target.unlink()

    part = target.with_suffix(target.suffix + ".part")
    offset = part.stat().st_size if part.exists() else 0
    request = Request(source.url, headers={"Range": f"bytes={offset}-"} if offset else {})
    failed = f"download failed for {source.url}"
    try:
        with urlopen(request, timeout=_TIMEOUT) as response:
            with open(part, "ab" if response.status == 206 else "wb") as f:
                shutil.copyfileobj(response, f, _CHUNK)
            if response.length:  # urllib returns a short body without raising
                raise FetchError(f"{failed}: body ended {response.length} bytes short")
    except HTTPError as err:
        err.close()
        if err.code != 416:  # 416: nothing left to fetch; verify what is there
            raise FetchError(f"{failed}: {err}") from err
    except (OSError, http.client.HTTPException) as err:  # URLError is an OSError
        raise FetchError(f"{failed}: {err}") from err

    if source.sha256 is not None and sha256_file(part) != source.sha256:
        part.unlink()
        raise FetchError(f"{source.url}: SHA256 mismatch, removed partial file")
    part.replace(target)
    return target


def _safe_members(names: list[str], archive: Path) -> None:
    for name in names:
        p = Path(name)
        if p.is_absolute() or ".." in p.parts:
            raise FetchError(f"{archive}: unsafe entry name {name!r}")


def _extract_tar(tf: tarfile.TarFile, archive: Path, dest: Path) -> None:
    """Extract with the ``data`` filter, which refuses members and links that
    resolve outside ``dest``; where the filter is missing, refuse every link
    member, since a symlink followed by a file written through it escapes
    ``dest`` even when every name is relative."""
    if hasattr(tarfile, "data_filter"):
        try:
            tf.extractall(dest, filter="data")
        except tarfile.FilterError as err:
            raise FetchError(f"{archive}: unsafe entry: {err}") from err
        return
    for member in tf.getmembers():
        if member.issym() or member.islnk():
            raise FetchError(f"{archive}: unsafe entry {member.name!r}: links are not extracted")
    tf.extractall(dest)


def extract(archive: Path, kind: str, dest: Path) -> list[Path]:
    """Unpack ``archive`` under ``dest``, rejecting path-traversal entries
    and tar links that lead outside ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    extracted: list[Path] = []
    if kind == "zip":
        try:
            with zipfile.ZipFile(archive) as zf:
                _safe_members(zf.namelist(), archive)
                zf.extractall(dest)
                extracted = [dest / n for n in zf.namelist() if not n.endswith("/")]
        except zipfile.BadZipFile as err:
            raise FetchError(f"{archive}: corrupt zip: {err}") from err
    elif kind == "tar-gz":
        try:
            with tarfile.open(archive, "r:gz") as tf:
                _safe_members(tf.getnames(), archive)
                _extract_tar(tf, archive, dest)
                extracted = [dest / m.name for m in tf.getmembers() if m.isfile()]
        except tarfile.TarError as err:
            raise FetchError(f"{archive}: corrupt tar: {err}") from err
    elif kind == "file":
        extracted = [archive]
    else:
        raise FetchError(f"unknown archive kind {kind!r}")
    return extracted


def fetch_dataset(root: Path, name: str) -> Path:
    """Download and extract every source file of dataset ``name`` (see
    :func:`source`), returning the raw directory. Re-running with verified
    complete files is a no-op apart from re-extraction of archives already
    on disk."""
    descriptor = source(name)
    dest = raw_dir(root, descriptor.name)
    for file in descriptor.files:
        extract(download_file(file, dest), file.kind, dest)
    return dest

"""Small shared helpers: hashing, deterministic rounding and
the one way tsprep publishes a directory (:func:`staged_dir`)."""

import errno
import hashlib
import math
import os
import re
import shutil
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

_CHUNK = 1 << 16


def sha256_file(path: Path) -> str:
    """SHA256 hex digest of a file, read in 64 KB chunks."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from floor (0.5 -> 1, 1.5 -> 2).

    Used wherever a proportion is converted to a count so the rule is
    platform-independent and documentable, unlike banker's rounding.
    """
    return int(math.floor(x + 0.5))


def _pid_alive(pid: int) -> bool:
    if os.name == "nt":
        return True  # os.kill there terminates the process: never sweep
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):  # not ours to signal, or not a pid
        pass
    return True


def _sweep_dead_staging(final: Path) -> None:
    """Remove the temp directories of ``final`` left by exited writers."""
    staging = re.compile(rf"\.{re.escape(final.name)}\.tmp-(\d+)-[0-9a-f]{{8}}")
    for path in final.parent.iterdir():
        match = staging.fullmatch(path.name)
        if match and not _pid_alive(int(match.group(1))):
            shutil.rmtree(path, ignore_errors=True)


@contextmanager
def staged_dir(final: Path) -> Iterator[Path]:
    """Yield a new, empty temp directory beside ``final``; when the block
    completes, the temp directory replaces ``final`` whole.

    Readers only ever see ``final`` absent, old or complete, never a mix of
    old and new files. If the block raises, the temp directory is removed
    and ``final`` is left as it was. An existing ``final`` is moved aside,
    the temp directory is renamed into place and the old one is deleted.

    A writer that is killed leaves its temp directory
    ``.<name>.tmp-<pid>-<hex>`` behind; each call removes those of
    ``final`` whose pid is no longer alive on this host. Pids are local, so
    writers on other hosts must not share ``final``'s parent directory.

    Concurrent writers of one ``final`` do not fail. If another writer moved
    the old directory aside first, there is nothing left to move. If another
    writer's directory is renamed into place first, this writer's temp
    directory is discarded and the other one's is kept.
    """
    final = Path(final)
    if final.is_symlink():
        final = final.resolve()  # replace the directory it names and keep the link
    final.parent.mkdir(parents=True, exist_ok=True)
    _sweep_dead_staging(final)
    tmp = final.parent / f".{final.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir()
    try:
        yield tmp
        trash = None
        if final.exists():
            trash = final.parent / f".{final.name}.old-{uuid.uuid4().hex[:8]}"
            try:
                os.replace(final, trash)
            except FileNotFoundError:
                trash = None  # another writer moved it aside first
        try:
            os.replace(tmp, final)
        except OSError as err:
            if err.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                raise
            shutil.rmtree(tmp, ignore_errors=True)  # another writer's directory won
        if trash is not None:
            shutil.rmtree(trash, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise

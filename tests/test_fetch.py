import hashlib
import io
import os
import subprocess
import sys
import tarfile
import threading
import zipfile
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import tsprep
from tsprep import fetch
from tsprep.fetch import (
    REGISTRY,
    FetchError,
    SourceDescriptor,
    SourceFile,
    download_file,
    extract,
    fetch_dataset,
    raw_dir,
)


class FixtureServer:
    """Serves an in-memory {path: bytes} map; optionally honours Range, and
    optionally cuts the first body short after ``cut`` bytes while still
    announcing its full Content-Length."""

    def __init__(self, files, support_range=False, cut=None):
        self.files = files
        self.cut = cut
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                outer.requests.append((self.path, self.headers.get("Range")))
                body = outer.files.get(self.path.lstrip("/"))
                if body is None:
                    self.send_error(404)
                    return
                range_header = self.headers.get("Range")
                if range_header and support_range:
                    start = int(range_header.split("=")[1].rstrip("-").split("-")[0])
                    if start >= len(body):
                        self.send_error(416)
                        return
                    chunk = body[start:]
                    self.send_response(206)
                    self.send_header("Content-Range", f"bytes {start}-{len(body)-1}/{len(body)}")
                    self.send_header("Content-Length", str(len(chunk)))
                    self.end_headers()
                    self.wfile.write(chunk)
                else:
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    cut, outer.cut = outer.cut, None
                    self.wfile.write(body[:cut])

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for serve_forever's next poll: keep that wait short
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def base(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def server():
    servers = []

    def make(files, support_range=False, cut=None):
        s = FixtureServer(files, support_range, cut)
        servers.append(s)
        return s

    yield make
    for s in servers:
        s.close()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def zip_bytes(entries: dict[str, bytes]) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as zf:
        for name, data in entries.items():
            zf.writestr(name, data)
    return buffer.getvalue()


def test_download_bytes_identical(tmp_path, server):
    payload = b"fixture-bytes" * 100
    s = server({"data.bin": payload})
    source = SourceFile(url=f"{s.base}/data.bin", kind="file", sha256=sha(payload))
    target = download_file(source, tmp_path)
    assert target.read_bytes() == payload


def test_download_checksum_mismatch_removes_file(tmp_path, server):
    s = server({"data.bin": b"corrupted"})
    source = SourceFile(url=f"{s.base}/data.bin", kind="file", sha256="0" * 64)
    with pytest.raises(FetchError, match="SHA256 mismatch"):
        download_file(source, tmp_path)
    assert not (tmp_path / "data.bin").exists()
    assert not (tmp_path / "data.bin.part").exists()


def test_download_idempotent(tmp_path, server):
    payload = b"stable"
    s = server({"data.bin": payload})
    source = SourceFile(url=f"{s.base}/data.bin", kind="file", sha256=sha(payload))
    download_file(source, tmp_path)
    first = len(s.requests)
    download_file(source, tmp_path)
    assert len(s.requests) == first  # verified file short-circuits


def test_download_resumes_with_range(tmp_path, server):
    payload = bytes(range(256)) * 64
    s = server({"big.bin": payload}, support_range=True)
    part = tmp_path / "big.bin.part"
    part.write_bytes(payload[:1000])
    source = SourceFile(url=f"{s.base}/big.bin", kind="file", sha256=sha(payload))
    target = download_file(source, tmp_path)
    assert target.read_bytes() == payload
    assert s.requests[0][1] == "bytes=1000-"


def test_download_restarts_when_range_unsupported(tmp_path, server):
    payload = b"x" * 4096
    s = server({"big.bin": payload})  # plain 200 responses only
    (tmp_path / "big.bin.part").write_bytes(payload[:100])
    source = SourceFile(url=f"{s.base}/big.bin", kind="file", sha256=sha(payload))
    target = download_file(source, tmp_path)
    assert target.read_bytes() == payload


def test_download_http_error(tmp_path, server):
    s = server({})
    source = SourceFile(url=f"{s.base}/missing.bin", kind="file")
    with pytest.raises(FetchError, match="download failed"):
        download_file(source, tmp_path)


def test_download_cut_short_keeps_what_arrived_and_resumes(tmp_path, server):
    """A 200 whose body ends before its Content-Length is not published,
    even with no SHA256 to catch it, and the next call resumes from it."""
    payload = bytes(range(256)) * 64
    s = server({"big.bin": payload}, support_range=True, cut=5000)
    source = SourceFile(url=f"{s.base}/big.bin", kind="file")
    with pytest.raises(FetchError, match="download failed"):
        download_file(source, tmp_path)
    assert not (tmp_path / "big.bin").exists()
    assert (tmp_path / "big.bin.part").read_bytes() == payload[:5000]
    assert download_file(source, tmp_path).read_bytes() == payload
    assert [r for _, r in s.requests] == [None, "bytes=5000-"]


def test_download_complete_part_answered_416_is_verified_and_published(tmp_path, server):
    payload = b"complete" * 512
    s = server({"big.bin": payload}, support_range=True)
    (tmp_path / "big.bin.part").write_bytes(payload)
    source = SourceFile(url=f"{s.base}/big.bin", kind="file", sha256=sha(payload))
    assert download_file(source, tmp_path).read_bytes() == payload
    assert s.requests == [("/big.bin", f"bytes={len(payload)}-")]
    assert not (tmp_path / "big.bin.part").exists()


def test_download_needs_no_requests_package(tmp_path, server):
    """numpy is the only runtime dependency: the CLI and a download work
    with ``requests`` unimportable."""
    payload = b"stdlib" * 100
    s = server({"data.bin": payload})
    code = (
        "import sys; sys.modules['requests'] = None\n"
        "from pathlib import Path\n"
        "import tsprep.cli, tsprep.fetch as f\n"
        "target = f.download_file(f.SourceFile(url=sys.argv[1], kind='file'), Path(sys.argv[2]))\n"
        "print(target.read_bytes().decode())\n"
    )
    paths = [str(Path(tsprep.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", code, f"{s.base}/data.bin", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == payload.decode()


def test_extract_zip(tmp_path):
    archive = tmp_path / "a.zip"
    archive.write_bytes(zip_bytes({"one.txt": b"1", "two.txt": b"2", "sub/three.txt": b"3"}))
    files = extract(archive, "zip", tmp_path / "out")
    assert len(files) == 3
    assert (tmp_path / "out" / "sub" / "three.txt").read_bytes() == b"3"


def test_extract_rejects_traversal(tmp_path):
    archive = tmp_path / "evil.zip"
    archive.write_bytes(zip_bytes({"../evil": b"boom"}))
    with pytest.raises(FetchError, match="unsafe entry"):
        extract(archive, "zip", tmp_path / "out")
    assert not (tmp_path / "evil").exists()


def test_extract_tar_gz(tmp_path):
    archive = tmp_path / "a.tar.gz"
    with tarfile.open(archive, "w:gz") as tf:
        data = b"hello"
        info = tarfile.TarInfo("set-a/1.txt")
        info.size = len(data)
        tf.addfile(info, io.BytesIO(data))
    files = extract(archive, "tar-gz", tmp_path / "out")
    assert files == [tmp_path / "out" / "set-a" / "1.txt"]


def test_extract_corrupt_archive(tmp_path):
    archive = tmp_path / "bad.zip"
    archive.write_bytes(b"this is not a zip")
    with pytest.raises(FetchError, match="corrupt zip"):
        extract(archive, "zip", tmp_path / "out")


def test_fetch_dataset_uea_style(tmp_path, server, monkeypatch):
    payload = zip_bytes(
        {"Demo_TRAIN.ts": b"@classLabel true a\n@data\n1:a\n",
         "Demo_TEST.ts": b"@classLabel true a\n@data\n2:a\n"}
    )
    s = server({"Demo.zip": payload})
    descriptor = SourceDescriptor(
        name="demo",
        files=(SourceFile(url=f"{s.base}/Demo.zip", kind="zip", sha256=sha(payload)),),
    )
    monkeypatch.setitem(REGISTRY, "demo", descriptor)
    dest = fetch_dataset(tmp_path, "demo")
    assert dest == raw_dir(tmp_path, "demo")
    assert (dest / "Demo_TRAIN.ts").exists()
    assert (dest / "Demo_TEST.ts").exists()
    # idempotence: a second fetch re-uses the verified archive
    before = len(s.requests)
    fetch_dataset(tmp_path, "demo")
    assert len(s.requests) == before


def test_fetch_dataset_unregistered_name_is_a_uea_archive(tmp_path, server, monkeypatch):
    payload = zip_bytes({"BasicMotions_TRAIN.ts": b"@data\n", "BasicMotions_TEST.ts": b"@data\n"})
    s = server({"BasicMotions.zip": payload})
    monkeypatch.setattr(fetch, "_UEA_BASE", s.base)
    dest = fetch_dataset(tmp_path, "BasicMotions")
    assert dest == raw_dir(tmp_path, "basicmotions")
    assert (dest / "BasicMotions_TRAIN.ts").exists()
    assert s.requests == [("/BasicMotions.zip", None)]


@pytest.mark.parametrize("name", ["../../../x", "../x", "a/b", "", ".hidden", "a b", "x\n"])
def test_fetch_dataset_malformed_name_creates_nothing(tmp_path, monkeypatch, name):
    def no_download(*args, **kwargs):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr(fetch, "urlopen", no_download)
    with pytest.raises(KeyError, match="invalid dataset name.*arrowhead.*physionet2012"):
        fetch_dataset(tmp_path / "root", name)
    assert list(tmp_path.iterdir()) == []


def test_source_registered_names_in_any_case_else_archive_names():
    assert fetch.source("ArrowHead") is REGISTRY["arrowhead"]
    assert fetch.source("PhysioNet2019Binary").name == "physionet2019"
    assert fetch.source("Basic_Motions-2").files[0].url.endswith("/Basic_Motions-2.zip")


def test_registry_covers_spec_datasets():
    for name in ("arrowhead", "charactertrajectories", "physionet2012", "physionet2019", "physionet2019binary"):
        assert name in REGISTRY


def _tar_with_link(path, link_type, target):
    """A tar.gz whose first member is a link ``link`` -> ``target`` and whose
    second member writes a file through it."""
    with tarfile.open(path, "w:gz") as tf:
        link = tarfile.TarInfo("link")
        link.type = link_type
        link.linkname = target
        tf.addfile(link)
        data = b"escaped"
        info = tarfile.TarInfo("link/evil.txt")
        info.size = len(data)
        tf.addfile(info, io.BytesIO(data))


@pytest.mark.parametrize("has_filter", [True, False])
def test_extract_tar_symlink_cannot_escape_dest(tmp_path, monkeypatch, has_filter):
    if not has_filter:
        monkeypatch.delattr(tarfile, "data_filter", raising=False)
    outside = tmp_path / "outside"
    outside.mkdir()
    archive = tmp_path / "evil.tar.gz"
    _tar_with_link(archive, tarfile.SYMTYPE, "../outside")
    with pytest.raises(FetchError, match="unsafe entry"):
        extract(archive, "tar-gz", tmp_path / "out")
    assert not (outside / "evil.txt").exists()


@pytest.mark.parametrize("has_filter", [True, False])
def test_extract_tar_hardlink_outside_dest_rejected(tmp_path, monkeypatch, has_filter):
    if not has_filter:
        monkeypatch.delattr(tarfile, "data_filter", raising=False)
    secret = tmp_path / "secret.txt"
    secret.write_bytes(b"secret")
    archive = tmp_path / "evil.tar.gz"
    with tarfile.open(archive, "w:gz") as tf:
        link = tarfile.TarInfo("copy.txt")
        link.type = tarfile.LNKTYPE
        link.linkname = str(secret)
        tf.addfile(link)
    with pytest.raises(FetchError, match="unsafe entry"):
        extract(archive, "tar-gz", tmp_path / "out")
    assert not (tmp_path / "out" / "copy.txt").exists()

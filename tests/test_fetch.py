import hashlib
import io
import tarfile
import threading
import zipfile
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

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
    """Serves an in-memory {path: bytes} map; optionally honours Range."""

    def __init__(self, files, support_range=False):
        self.files = files
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
                    self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
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

    def make(files, support_range=False):
        s = FixtureServer(files, support_range)
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


def test_fetch_dataset_unknown_name(tmp_path):
    with pytest.raises(KeyError, match="supported"):
        fetch_dataset(tmp_path, "nonsense")


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

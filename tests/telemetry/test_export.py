"""Every file writer is atomic: a write that fails keeps the previous file.

Each case writes over an existing file and fails part-way — the disk
fills up after half a chunk, or the payload cannot be serialized.  The
previous bytes must survive and no temporary file may be left behind.
A write that succeeds leaves a file with the mode a plain ``open`` gives.
"""

import errno
import os

import pytest

from repro.cli import main
from repro.telemetry import MetricsRegistry, Tracer, write_json, write_prometheus

_fdopen = os.fdopen


class _DiskFullHandle:
    """A file handle that writes half of its first chunk, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def _fill_disk(monkeypatch):
    monkeypatch.setattr(
        os, "fdopen",
        lambda fd, *args, **kwargs: _DiskFullHandle(_fdopen(fd, *args, **kwargs)),
    )


def _trace(path):
    tracer = Tracer()
    for pub_id in range(3):
        tracer.add_span("hop.M", 0.0, 0.001, pub_id=pub_id)
    tracer.write_jsonl(path)


def _scrape(path):
    registry = MetricsRegistry()
    registry.counter("a_total").inc()
    write_prometheus(path, registry)


def _bench_payload(path):
    write_json(path, {"rows": [1, 2, 3]})


def _unserializable_bench_payload(path):
    write_json(path, {"bad": object()})


def _metrics_command(fmt):
    def write(path):
        main(["metrics", "--publications", "5", "--format", fmt, "--out", path])

    return write


_WRITERS = [
    pytest.param(_trace, id="trace"),
    pytest.param(_scrape, id="scrape"),
    pytest.param(_bench_payload, id="payload"),
    pytest.param(_metrics_command("table"), id="table_out"),
    pytest.param(_metrics_command("prom"), id="prom_out"),
    pytest.param(_metrics_command("json"), id="json_out"),
]


@pytest.mark.parametrize("write", [
    *_WRITERS[:3],
    pytest.param(_unserializable_bench_payload, id="bad_payload"),
    *_WRITERS[3:],
])
def test_failed_write_keeps_old_file(write, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous run\n")
    # (An unserializable payload fails before a byte reaches the disk.)
    _fill_disk(monkeypatch)
    with pytest.raises((OSError, TypeError)):
        write(str(path))
    assert path.read_bytes() == b"previous run\n"
    assert list(tmp_path.iterdir()) == [path]  # no temporary file behind


@pytest.mark.parametrize("write", _WRITERS)
def test_written_file_has_the_umask_mode(write, tmp_path):
    path = tmp_path / "artifact"
    previous = os.umask(0o027)
    try:
        write(str(path))
    finally:
        os.umask(previous)
    assert path.stat().st_mode & 0o777 == 0o666 & ~0o027

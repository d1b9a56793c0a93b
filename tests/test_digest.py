"""``_digest.regular_file_sha256``: the key of the kept book, hashed in parts on a large file."""

import hashlib
import os
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdscan import _digest, cli

from conftest import count_forks, count_reads, refuse_fork, use_workers

pytestmark = pytest.mark.skipif(not hasattr(os, "preadv"), reason="no os.preadv: no file has a key")

#: Bytes in a part of the files here, and the CPUs this process is made to see.
PART, CPUS = 256, 3


@contextmanager
def in_parts(part=PART, cpus=CPUS):
    """Hash any file of two ``part``s or more in parts, as if the process had ``cpus`` CPUs."""
    with mock.patch.object(_digest, "_PART", part), mock.patch.object(
        os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True
    ):
        yield


@pytest.fixture
def parts():
    with in_parts():
        yield


def tree_key(data: bytes, parts: int, size: int | None = None) -> bytes:
    """The key of ``data`` cut into ``parts`` at the offsets a file of ``size`` bytes has."""
    size = len(data) if size is None else size
    starts = [size * k // parts for k in range(parts)] + [len(data)]
    tree = b"".join(
        start.to_bytes(8, "big") + (end - start).to_bytes(8, "big") + hashlib.sha256(data[start:end]).digest()
        for start, end in zip(starts, starts[1:])
    )
    return hashlib.sha256(parts.to_bytes(8, "big") + tree).digest()


def lots(count: int) -> bytes:
    return ("investor,stock,amount\n" + "".join(
        f"i{k % 97},s{k % 89},{1 + k % 7}\n" for k in range(count))).encode("utf-8")


def test_a_file_of_one_part_is_keyed_by_its_one_part_tree(tmp_path):
    # under two parts whatever the CPUs, or any size on one CPU
    cases = (0, 1 << 20, 8), (5000, 1 << 20, 8), ((2 << 20) - 1, 1 << 20, 8), (40 * PART, PART, 1)
    for size, part, cpus in cases:
        data = os.urandom(size)
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data)
        with in_parts(part, cpus):
            assert _digest.regular_file_sha256(path) == tree_key(data, 1)


def test_a_file_of_many_parts_is_keyed_by_its_tree(tmp_path, parts):
    for size, count in ((2 * PART, 2), (3 * PART - 1, 2), (3 * PART, 3), (40 * PART + 7, 3)):
        data = os.urandom(size)
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data)
        key = _digest.regular_file_sha256(path)
        assert key == tree_key(data, count)
        assert len(key) == 32 and key != tree_key(data, 1)


@pytest.mark.parametrize("where", ["first part", "last part", "appended"])
def test_a_byte_changed_in_any_part_is_a_miss(tmp_path, monkeypatch, parts, where):
    path = tmp_path / "lots.csv"
    data = lots(400)
    assert len(data) > CPUS * PART
    path.write_bytes(data)
    reads = count_reads(monkeypatch)
    monkeypatch.setattr(cli, "_kept", None)
    book = cli.ingest(path)
    assert cli.ingest(path) is book and len(reads) == 1
    digest = _digest.regular_file_sha256(path)
    changed = bytearray(data)
    if where == "appended":
        changed += b"i0,s0,1\n"
    else:  # the amount of the first lot, or of the last
        at = data.index(b"\n") + len(b"i0,s0,1") if where == "first part" else len(data) - 2
        assert at < PART or at >= len(data) - PART
        assert changed[at:at + 1] == b"1"
        changed[at:at + 1] = b"3"
    path.write_bytes(changed)
    assert _digest.regular_file_sha256(path) not in (None, digest)
    assert cli.ingest(path) is not book and len(reads) == 2


def test_bytes_appended_after_fstat_are_hashed(tmp_path, monkeypatch, parts):
    data = os.urandom(12 * PART + 5)
    path = tmp_path / "growing.bin"
    path.write_bytes(data)
    fstat = os.fstat

    def stale(fd):  # the size the file had before its last 1000 bytes were written
        status = fstat(fd)
        return SimpleNamespace(st_mode=status.st_mode, st_size=status.st_size - 1000)

    monkeypatch.setattr(os, "fstat", stale)
    key = _digest.regular_file_sha256(path)
    monkeypatch.undo()
    assert key == tree_key(data, CPUS, len(data) - 1000)
    assert key != tree_key(data[:-1000], CPUS) and key != tree_key(data, CPUS)


def os_tasks() -> int | None:
    tasks = Path("/proc/self/task")
    return len(os.listdir(tasks)) if tasks.is_dir() else None


def test_hashing_in_parts_leaves_no_thread_or_process_behind(tmp_path, monkeypatch):
    path = tmp_path / "lots.csv"
    path.write_bytes(lots(3 * cli._BLOCK // 12))
    assert path.stat().st_size > max(cli._BLOCK, CPUS << 16)
    monkeypatch.setattr(cli, "_kept", None)
    use_workers(monkeypatch, 2)
    threads, tasks = threading.active_count(), os_tasks()
    forks = count_forks(monkeypatch)
    with in_parts(part=1 << 16):
        assert _digest.regular_file_sha256(path) == tree_key(path.read_bytes(), CPUS)  # in parts
        book = cli.ingest(path)  # a miss: hashed, scanned by two processes, hashed again
        assert len(forks) == 1
        refuse_fork(monkeypatch)
        assert cli.ingest(path) is book  # a hit
    assert threading.active_count() == threads
    if tasks is not None:  # a thread's OS task can end a little after join returns
        deadline = time.monotonic() + 5
        while os_tasks() != tasks and time.monotonic() < deadline:
            time.sleep(0.01)
        assert os_tasks() == tasks


def test_a_part_that_cannot_be_read_gives_no_key_and_joins_every_thread(tmp_path, monkeypatch, parts):
    path = tmp_path / "data.bin"
    path.write_bytes(os.urandom(10 * PART))
    preadv, threads = os.preadv, threading.active_count()

    def failing(fd, buffers, offset):
        if offset >= 5 * PART:
            raise OSError(5, "Input/output error")
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", failing)
    assert _digest.regular_file_sha256(path) is None
    assert threading.active_count() == threads


@given(st.binary(max_size=12 * PART), st.data())
@settings(max_examples=200, deadline=None)
def test_equal_bytes_give_equal_keys_and_one_changed_byte_another(data, draw):
    # three threads, more than this host's cores may be, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        check_keys(data, draw)
    finally:
        sys.setswitchinterval(interval)


def check_keys(data, draw):
    with tempfile.TemporaryDirectory() as tmp, in_parts():
        paths = [Path(tmp, name) for name in ("a", "b", "c")]
        paths[0].write_bytes(data)
        paths[1].write_bytes(bytes(data))
        keys = [_digest.regular_file_sha256(path) for path in paths[:2]]
        assert keys[0] == keys[1] is not None
        if data:
            at = draw.draw(st.integers(0, len(data) - 1))
            byte = draw.draw(st.integers(0, 255).filter(lambda b: b != data[at]))
            paths[2].write_bytes(data[:at] + bytes([byte]) + data[at + 1:])
            assert _digest.regular_file_sha256(paths[2]) != keys[0]

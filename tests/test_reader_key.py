"""The key a reader hands ``cli.ingest``: the digest of the bytes it read, so a miss hashes no file."""

import json
import os
import tempfile
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdscan import _digest, cli
from holdscan.core import held_cells

from conftest import count_reads, use_workers
from test_digest import PART, in_parts

pytestmark = pytest.mark.skipif(not hasattr(os, "preadv"), reason="no os.preadv: no file has a key")

#: (investor, stock, amount) lots.
lot_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 20), st.integers(1, 10**9)), min_size=1, max_size=80
)

#: Each whole-file reader's kind of file, and the format ``ingest`` reads it as.
WHOLE_FILE_KINDS = {"plain": "csv", "quoted": "csv", "json": "json"}


def holdings(lots, kind: str) -> bytes:
    """``lots`` as a plain CSV (the scan), a quoted CSV with a BOM and CRLF
    line ends (the record reader), or a JSON records file."""
    if kind == "json":
        return json.dumps([{"investor": f"i{i}", "stock": f"s{j}", "amount": a} for i, j, a in lots]).encode()
    if kind == "quoted":
        return ("﻿investor,stock,amount\r\n" + "".join(
            f'"i{i}","s{j}",{a}\r\n' for i, j, a in lots)).encode("utf-8")
    return ("investor,stock,amount\n" + "".join(f"i{i},s{j},{a}\n" for i, j, a in lots)).encode("ascii")


def cells(book):
    return book.investor_labels, book.stock_labels, tuple(array.tobytes() for array in held_cells(book))


def read_key(path, fmt):
    """The key ``_read_book`` hands back for ``path``."""
    digest = [None]
    cli._read_book(path, fmt, False, digest)
    return digest[0]


@given(lot_lists, st.sampled_from(sorted(WHOLE_FILE_KINDS)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_each_whole_file_reader_keys_the_bytes_it_read_as_the_file_is_keyed(lots, kind, parted):
    # a file of two parts or more is cut where regular_file_sha256 cuts it
    with tempfile.TemporaryDirectory() as tmp, in_parts() if parted else nullcontext():
        path = Path(tmp, "book")
        path.write_bytes(holdings(lots, kind))
        if kind != "json":  # the route each file takes
            assert (cli._scan_csv(path) is not None) == (kind == "plain")
            assert path.stat().st_size <= cli._BLOCK
        assert read_key(path, WHOLE_FILE_KINDS[kind]) == _digest.regular_file_sha256(path) is not None


def test_a_key_of_many_parts_is_the_files(tmp_path):
    lots = [(k % 7, k % 5, k) for k in range(200)]
    for kind, fmt in WHOLE_FILE_KINDS.items():
        path = tmp_path / kind
        path.write_bytes(holdings(lots, kind))
        assert path.stat().st_size > 3 * PART
        with in_parts():
            key = read_key(path, fmt)
            assert key == _digest.regular_file_sha256(path) is not None
        assert key != read_key(path, fmt) == _digest.regular_file_sha256(path)  # one part


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
@pytest.mark.parametrize("kind", sorted(WHOLE_FILE_KINDS))
def test_a_pipe_gives_no_key(kind):
    data = holdings([(1, 2, 3), (2, 1, 4)], kind)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        assert read_key(f"/dev/fd/{read_end}", WHOLE_FILE_KINDS[kind]) is None
    finally:
        os.close(read_end)


@pytest.mark.parametrize("missing", ["preadv", "O_NONBLOCK"])
@pytest.mark.parametrize("kind", [*sorted(WHOLE_FILE_KINDS), "blocks"])
def test_a_platform_without_positional_reads_gives_no_key(tmp_path, monkeypatch, missing, kind):
    lots = [(k % 7, k % 5, k) for k in range(40)]
    path = tmp_path / "book"
    path.write_bytes(holdings(lots, "plain" if kind == "blocks" else kind))
    if kind == "blocks":
        monkeypatch.setattr(cli, "_BLOCK", 64)
    monkeypatch.delattr(os, missing)
    assert read_key(path, WHOLE_FILE_KINDS.get(kind, "csv")) is None


@pytest.mark.parametrize("kind", sorted(WHOLE_FILE_KINDS))
def test_bytes_changed_and_put_back_during_the_read_are_never_served(tmp_path, monkeypatch, kind):
    # a digest before the read and one after it would both see the bytes
    # put back, and keep the book of the changed ones
    fmt = WHOLE_FILE_KINDS[kind]
    path, other = tmp_path / "book", tmp_path / "changed"
    original = holdings([(1, 1, 30), (1, 2, 10), (2, 1, 5), (2, 2, 25)], kind)
    changed = holdings([(1, 1, 31), (1, 2, 10), (2, 1, 5), (2, 2, 25)], kind)
    assert len(changed) == len(original) and changed != original
    path.write_bytes(original)
    other.write_bytes(changed)
    books = [cells(cli._read_book(name, fmt, False)) for name in (path, other)]
    read, changes = cli._read_book, []

    def changing(name, *args):
        if changes:
            return read(name, *args)
        before = name.stat()
        name.write_bytes(changed)
        changes.append(read(name, *args))
        name.write_bytes(original)
        os.utime(name, ns=(before.st_atime_ns, before.st_mtime_ns))
        return changes[0]

    monkeypatch.setattr(cli, "_read_book", changing)
    monkeypatch.setattr(cli, "_kept", None)
    assert cells(cli.ingest(path, fmt)) == books[1]
    assert path.read_bytes() == original
    assert cells(cli.ingest(path, fmt)) == books[0]
    assert cells(cli.ingest(path, fmt)) == books[0]


@pytest.mark.parametrize("kind, hashes", [("plain", 0), ("quoted", 0), ("json", 0), ("blocks", 2)])
def test_a_miss_hashes_the_file_only_when_it_is_scanned_in_blocks(tmp_path, monkeypatch, kind, hashes):
    # a hit hashes the file once; a miss of a whole-file read keys the bytes
    # read and hashes nothing, while a scan in blocks hashes before and after
    lots = [(k % 7, k % 5, k) for k in range(40)]
    fmt = WHOLE_FILE_KINDS.get(kind, "csv")
    path = tmp_path / "book"
    path.write_bytes(holdings(lots, "plain" if kind == "blocks" else kind))
    if kind == "blocks":
        monkeypatch.setattr(cli, "_BLOCK", 64)
        use_workers(monkeypatch, 2)
    assert (path.stat().st_size > cli._BLOCK) == (kind == "blocks")
    monkeypatch.setattr(cli, "_kept", None)
    file_sha256, counted = _digest.regular_file_sha256, []

    def counting(name):
        counted.append(name)
        return file_sha256(name)

    monkeypatch.setattr(_digest, "regular_file_sha256", counting)
    reads = count_reads(monkeypatch)
    book = cli.ingest(path, fmt)
    assert (len(counted), len(reads)) == (hashes, 1)
    assert cli._kept[1] == file_sha256(path)
    assert cli.ingest(path, fmt) is book
    assert (len(counted), len(reads)) == (hashes + 1, 1)
    path.write_bytes(holdings(lots + [(8, 6, 1)], "plain" if kind == "blocks" else kind))
    assert cli.ingest(path, fmt) is not book  # a hit's hash, then a miss
    assert (len(counted), len(reads)) == (2 * hashes + 2, 2)
    assert cli._kept[1] == file_sha256(path)


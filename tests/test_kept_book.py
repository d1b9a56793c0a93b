"""``cli.ingest`` keeps the last book it read and serves it again for the same bytes."""

import os
from pathlib import Path

import pytest

import holdscan as hs
from holdscan import cli
from holdscan.core import held_cells
from holdscan.errors import ParseError

from conftest import GOLDEN_CSV, count_forks, count_reads, refuse_fork, use_workers


@pytest.fixture(autouse=True)
def no_book_kept(monkeypatch):
    monkeypatch.setattr(cli, "_kept", None)


def cells(book):
    return tuple(array.tobytes() for array in held_cells(book))


def test_the_same_bytes_are_served_the_kept_book_with_its_memo(golden_csv, monkeypatch):
    reads = count_reads(monkeypatch)
    book = cli.ingest(golden_csv)
    spectrum = hs.whiten(book)
    again = cli.ingest(golden_csv)
    assert again is book and hs.whiten(again) is spectrum
    assert reads == [golden_csv]
    # the path as given, the format and the sign flag are the key
    assert cli.ingest(str(golden_csv)) is not book
    assert cli.ingest(str(golden_csv), signed=True) is not book
    assert isinstance(cli.ingest(str(golden_csv), signed=True), hs.SignedOwnership)
    assert len(reads) == 3


def test_a_same_size_rewrite_with_the_mtime_put_back_is_read_afresh(golden_csv, monkeypatch):
    reads = count_reads(monkeypatch)
    book = cli.ingest(golden_csv)
    before = golden_csv.stat()
    golden_csv.write_text(GOLDEN_CSV.replace("inv1,stk1,30", "inv1,stk1,31"), encoding="utf-8")
    os.utime(golden_csv, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = golden_csv.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    changed = cli.ingest(golden_csv)
    assert changed is not book and cells(changed) != cells(book)
    assert len(reads) == 2


def test_a_deleted_file_raises_and_is_not_served(golden_csv):
    cli.ingest(golden_csv)
    golden_csv.unlink()
    for _ in range(2):
        with pytest.raises(ParseError, match="No such file"):
            cli.ingest(golden_csv)
    assert cli._kept is None


def test_a_read_that_fails_keeps_nothing(tmp_path, golden_csv, monkeypatch):
    bad = tmp_path / "bad.csv"
    bad.write_text("investor,stock,amount\na,x,oops\n", encoding="utf-8")
    cli.ingest(golden_csv)
    reads = count_reads(monkeypatch)
    for _ in range(2):  # the error repeats: each call reads the file again
        with pytest.raises(ParseError, match="amount 'oops' is not a number"):
            cli.ingest(bad)
        assert cli._kept is None  # the book kept before is dropped too
    assert reads == [bad, bad]


def test_a_miss_drops_the_kept_book_before_it_reads(tmp_path, golden_csv, monkeypatch):
    other = tmp_path / "other.csv"
    other.write_text(GOLDEN_CSV + "inv4,stk1,1\n", encoding="utf-8")
    cli.ingest(golden_csv)
    read = cli._read_book
    held = []

    def reading(*args):
        held.append(cli._kept)
        return read(*args)

    monkeypatch.setattr(cli, "_read_book", reading)
    book = cli.ingest(other)
    assert held == [None] and cli._kept[2] is book


def test_bytes_that_change_during_the_read_keep_nothing(golden_csv, monkeypatch):
    read = cli._read_book

    def changing(path, *args):
        book = read(path, *args)
        path.write_text(GOLDEN_CSV + "inv4,stk1,1\n", encoding="utf-8")
        return book

    monkeypatch.setattr(cli, "_read_book", changing)
    cli.ingest(golden_csv)
    assert cli._kept is None


def test_a_hit_forks_no_scan_worker(tmp_path, monkeypatch):
    # more than one block, so a read is shared among forked workers
    path = tmp_path / "lots.csv"
    path.write_text("investor,stock,amount\n" + "".join(
        f"i{k % 97},s{k % 89},{1 + k % 7}\n" for k in range(3 * cli._BLOCK // 12)
    ), encoding="utf-8")
    assert path.stat().st_size > cli._BLOCK
    use_workers(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    book = cli.ingest(path)
    assert len(forks) == 1
    refuse_fork(monkeypatch)
    assert cli.ingest(path) is book


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
def test_a_pipe_is_read_as_a_file_is_and_never_kept(golden_csv, capsys):
    # a pipe has no bytes to hash before it is read, and reading it spends them
    assert cli.main(["decompose", str(golden_csv)]) == 0
    expected = capsys.readouterr()
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, GOLDEN_CSV.encode("utf-8"))
        os.close(write_end)
        assert cli.main(["decompose", f"/dev/fd/{read_end}"]) == 0
    finally:
        os.close(read_end)
    assert capsys.readouterr() == expected
    assert cli._kept is None


@pytest.mark.parametrize("missing, kept", [("pread", True), ("preadv", False), ("O_NONBLOCK", False)])
def test_a_platform_without_positional_reads_gives_the_same_books(
    tmp_path, golden_csv, monkeypatch, missing, kept
):
    # without os.pread the scan leaves the file to the record reader; without
    # os.preadv or os.O_NONBLOCK no file has a digest, so each call reads it
    lots = tmp_path / "lots.csv"
    lots.write_text("investor,stock,amount\n" + "".join(
        f"i{k % 97},s{k % 89},{1 + k % 7}\n" for k in range(3 * cli._BLOCK // 12)
    ), encoding="utf-8")
    assert lots.stat().st_size > cli._BLOCK
    books = [cli._read_book(path, "csv", False) for path in (golden_csv, lots)]
    monkeypatch.delattr(os, missing)
    reads = count_reads(monkeypatch)
    for path, book in zip((golden_csv, lots), books):
        for _ in range(2):
            again = cli.ingest(path)
            assert cells(again) == cells(book)
            assert (again.investor_labels, again.stock_labels) == (book.investor_labels, book.stock_labels)
            assert (cli._kept is not None) == kept
    assert len(reads) == (2 if kept else 4)

"""Batch command-line front end.

Reads holdings files (CSV or JSON records), runs the requested analysis,
and prints a deterministic text or JSON report. Same input, same flags,
same bytes out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quoted
from pathlib import Path

import numpy as np

import holdscan as hs

from .core import (
    OwnershipMatrix,
    _check_search,
    _normalized,
    _rescaled,
    _summed_cells,
    held_cells,
    marginals,
)
from .errors import (
    AllZeroMatrix,
    DegenerateRange,
    MixedSignWithoutFlag,
    NonFiniteResult,
    NumericalError,
    ParseError,
    SameInvestor,
    ValidationError,
)

#: Dashboards skip the sparsity score by default above this label count,
#: because the fixed-marginal maximization cost grows combinatorially.
PSI_AUTO_LIMIT = 2000

SCHEMA_VERSION = 1

#: A report's leaf as JSON, once ``_rounded`` has made it a Python scalar.
_scalar = json.JSONEncoder(allow_nan=False).encode


@dataclass(frozen=True)
class Dashboard:
    """The six headline diagnostics plus effective numbers.

    Field names follow the report wire format. ``Psi`` is None when the
    sparsity score was skipped or undefined; ``psi_reason`` says why.
    """

    H_I: float
    H_S: float
    M: float
    Psi: float | None
    X: float
    rho: float
    N_I: float
    N_S: float
    N_M: float
    psi_certified: bool | None
    psi_reason: str | None


# -- ingestion ---------------------------------------------------------------


#: Holdings as coded columns in file order: the sorted investor labels
#: (stripped) and each row's index into them, the same for stocks, then
#: amounts and legs (True for a short row). Both readers give each code
#: column the narrowest unsigned dtype of its label count (``_code_type``).
_Coded = tuple[list[str], np.ndarray, list[str], np.ndarray, np.ndarray, np.ndarray]


#: The last book ``ingest`` read: its key (the path as given, the format
#: and ``signed``), the digest of the file's bytes (``_digest``), and the book.
_kept: tuple[tuple, bytes, object] | None = None


def ingest(path: str | Path, fmt: str = "csv", signed: bool = False):
    """Read a holdings file into a share matrix or a signed book (see ``_read_book``).

    A process keeps the last book it read. A call with the same path (as
    given), ``fmt`` and ``signed`` gets that book again, the same object
    with all that ``_per_book`` has kept on it, while the path names a
    regular file whose bytes have the same digest. Any other call drops
    the kept book before it reads, so no two books are held, and keeps its
    own only if the file's bytes hashed the same before and after the read;
    a read that raises keeps nothing. A pipe or any other file that is not
    regular is read as ``_read_book`` reads it, and never kept.
    """
    global _kept
    key, kept, _kept = (path, fmt, signed), _kept, None
    digest = hs._digest.regular_file_sha256(path)
    if digest is not None and kept is not None and kept[:2] == (key, digest):
        _kept = kept
        return kept[2]
    del kept
    book = _read_book(path, fmt, signed)
    if digest is not None and hs._digest.regular_file_sha256(path) == digest:
        _kept = key, digest, book
    return book


def _read_book(path: str | Path, fmt: str, signed: bool):
    """Read a holdings file into a share matrix or a signed book, every call.

    Duplicate (investor, stock) rows are summed in file order; labels are
    ordered lexicographically so ingestion is deterministic. Zero-amount
    rows are dropped first, so only labels with positive mass are kept.
    The cells are built from coded columns (see ``_scan_csv``), whose label
    codes take the narrowest unsigned dtype of their label count: the codes
    become one int64 key per lot and are freed, the keys are sorted in
    place into each lot's cell, and each column is freed once spent. So
    past the scan a lot costs 8 bytes of amount, 8 of key, 8 of sort order
    and at most 5 of rank: about 33 bytes a lot at the peak on a 199k-lot
    book (6.25 MiB), never the size of the file. A book of at most twice
    as many cells as lots holds a rank for every cell in place of the sort
    order and the narrow ranks (``_summed_cells``): 8 bytes a cell, at most
    16 a lot. The book takes the cell arrays built here without a copy. A
    plain CSV of more than one block is scanned by one forked process per
    CPU, to the same columns; a child that dies first raises
    ``InternalConsistencyError``.
    """
    # a plain CSV is scanned in numpy; csv.reader or json reads any other
    # file, to the same columns, and words every error
    source = Path(path)
    (investors, rows, stocks, cols, amounts, legs), has_sign_column = (
        (_scan_csv(source) or _read_csv(source)) if fmt == "csv" else _read_json(source)
    )
    if has_sign_column and not signed:
        raise MixedSignWithoutFlag(
            "input carries a sign column; pass --signed to ingest it"
        )
    if not amounts.size:
        raise ParseError(f"{path}: no holdings records found")
    held = amounts > 0
    if not held.all() and held.any():
        # a label with only zero lots holds nothing, so it gets no row or column
        kept, rows = np.unique(rows[held], return_inverse=True)
        investors = [investors[i] for i in kept.tolist()]
        kept, cols = np.unique(cols[held], return_inverse=True)
        stocks = [stocks[j] for j in kept.tolist()]
        amounts = amounts[held]
        if has_sign_column:
            legs = legs[held]
    del held
    n, m = len(investors), len(stocks)
    # cells in row-major order; keys are formed in int64, since a narrow code
    # times m may overflow its own type, and bincount over them adds each
    # cell's lots one by one in file order. A signed book keys its legs
    # 2 * (i * m + j) + leg, so a cell's long and short sums sit side by side
    keys = rows.astype(np.int64)
    del rows  # each column is freed once spent
    keys *= m
    keys += cols
    del cols
    if signed:
        keys *= 2
        if has_sign_column:
            keys += legs
    del legs
    rows, cols, sums, where = _summed_cells(keys, amounts, (n, 2 * m if signed else m))
    del keys  # overwritten with ``where``
    undivided = None
    if np.isinf(sums).any():  # finite lots whose cell's sum overflows
        lots, power = _rescaled(amounts)
        undivided, sums = (sums, power), np.bincount(where, lots, minlength=sums.size)
        del lots
    del where, amounts
    if not signed:
        return _normalized((n, m), rows, cols, sums, investors, stocks, undivided=undivided)
    both = hs.extensions._on_both_legs(rows, cols)
    if both.size:
        i, j = rows[both[0]], cols[both[0]] >> 1
        raise ParseError(
            f"{path}: investor {investors[i]!r} is both long and short "
            f"stock {stocks[j]!r}; net the book before ingestion"
        )
    if not sums.any():
        raise AllZeroMatrix(f"{path}: all amounts are zero")
    return hs.extensions.SignedOwnership._from_raw(
        (n, m), rows, cols, sums, investors, stocks, undivided=undivided
    )


def _coded(column: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct labels of ``column`` and each entry's index into them."""
    labels = sorted(set(column))
    index = {label: k for k, label in enumerate(labels)}
    return labels, np.fromiter(map(index.__getitem__, column), _code_type(len(labels)), len(column))


def _code_type(count: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the codes 0, ..., ``count`` - 1."""
    return np.min_scalar_type(max(count - 1, 0))


_HEADER_WIDTHS = {b"investor,stock,amount": 3, b"investor,stock,amount,sign": 4}

#: The ASCII bytes ``str.strip`` removes, line ends aside.
_SPACE = np.zeros(256, bool)
_SPACE[list(b"\t\x0b\x0c\x1c\x1d\x1e\x1f ")] = True

#: Bytes of a holdings CSV that ``_scan_csv`` reads at a time.
_BLOCK = 1 << 19

#: One block's coded columns: its distinct investor labels (NUL-padded
#: bytes) and each record's index into them, the same for stocks, the
#: amounts, and which records are short (None without a sign column).
_Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]


def _scan_csv(path: Path) -> tuple[_Coded, bool] | None:
    """The coded columns of a plain holdings CSV, or None to leave the file to ``_read_csv``.

    Plain means ASCII without NUL, quote or bare carriage return, the exact
    header, and records of exactly its width whose labels are nonempty and
    need no strip, whose amounts numpy reads as finite and nonnegative, and
    whose signs are empty, ``+`` or ``-``. The file is read in blocks
    (``_blocks``) and each block gets every check; what a block leaves
    behind is its coded columns (``_Block``), so no field becomes a Python
    object and peak memory is about the coded columns plus one block per
    worker. A file of more than one ``_BLOCK`` is shared among W processes,
    W = ``_fork.worker_count(reads)``: each scans the blocks of a run of
    consecutive reads, the caller the first run, and forked children send
    theirs back. The caller takes the runs in file order, so the blocks and
    their checks are those of one process, whatever W is. The labels are
    then ranked once, over the blocks' distinct labels. The columns are
    those ``_read_csv`` reads, bit for bit; the legs of a file without a
    sign column are a read-only zero-stride view of False. Without
    ``os.pread`` every file is left to ``_read_csv``.
    """
    if not hasattr(os, "pread"):
        return None
    try:
        with open(path, "rb") as handle:
            fd = handle.fileno()
            header, newline, _ = os.pread(fd, 64, 0).partition(b"\n")
            width = _HEADER_WIDTHS.get(header.removesuffix(b"\r")) if newline else None
            if width is None:
                return None
            head = len(header) + 1  # the records start here
            reads = -(-os.fstat(fd).st_size // _BLOCK)
            if reads <= 1:  # scanned here, without loading the fork module
                return _coded_blocks(_scanned_run(fd, width, head, 0, None), width)
            return _scanned_runs(fd, width, head, reads)
    except OSError:
        return None


def _scanned_runs(fd: int, width: int, head: int, reads: int) -> tuple[_Coded, bool] | None:
    """``_coded_blocks`` of ``_scanned_run`` over ``reads``, with one run of reads per worker.

    The blocks are merged while the children exit.
    """
    workers = hs._fork.worker_count(reads)
    firsts = [worker * reads // workers for worker in range(workers)] + [None]

    def share(worker: int) -> Iterator[list[_Block] | None]:
        yield _scanned_run(fd, width, head, firsts[worker], firsts[worker + 1])

    with hs._fork.forked("scan", share, workers) as receive:
        parts = _scanned_run(fd, width, head, 0, firsts[1])
        for worker in range(1, workers):
            if parts is None:
                break  # declined: no need to wait for the rest
            more = receive(worker, "its blocks")
            parts = None if more is None else parts + more
        return _coded_blocks(parts, width)


def _coded_blocks(parts: list[_Block] | None, width: int) -> tuple[_Coded, bool] | None:
    """The file's coded columns from its blocks in file order, or None to decline the file."""
    if not parts:
        return None  # declined, or no records
    investors, investor_codes, stocks, stock_codes, amounts, minus = zip(*parts)
    parts.clear()  # free each block's tuple as its columns merge
    amounts = np.concatenate(amounts)
    legs = np.broadcast_to(False, amounts.shape) if width == 3 else np.concatenate(minus)
    return (
        *_merged_labels(investors, investor_codes), *_merged_labels(stocks, stock_codes),
        amounts, legs,
    ), width == 4


def _scanned_run(
    fd: int, width: int, head: int, first: int, stop: int | None
) -> list[_Block] | None:
    """The coded columns of ``_blocks(fd, first, stop)``, or None to decline the file.

    ``head`` is the size of the header line, which starts the file's first block.
    """
    parts, header = [], first * _BLOCK < head
    for text in _blocks(fd, first, stop):
        if text is None:
            return None
        start = text.find(b"\n") + 1 if header else 0
        header = False
        if start == len(text):
            continue  # the first record runs on past this block
        part = _scanned_block(text, start, width)
        if part is None:
            return None
        parts.append(part)
    return parts


def _blocks(fd: int, first: int = 0, stop: int | None = None) -> Iterator[bytes | None]:
    """The bytes of the file open as ``fd``, ``\\r\\n`` read as ``\\n``, a block at a time.

    A block is what one ``os.pread`` of ``_BLOCK`` bytes adds to the
    partial line the last block left, up to its last line end, so it holds
    whole lines and a line longer than ``_BLOCK`` makes its block longer.
    No read asks for bytes past the file's size when the blocks start.
    These are the blocks that reads ``first`` to ``stop`` - 1 end (all of
    them when ``stop`` is None); the first starts with the line pending at
    read ``first``, so a file cut into runs of reads gives the blocks of
    one pass. The file's last block gets a line end if it lacks one. A
    pending line longer than any record, 4 × (``csv.field_size_limit()`` +
    1) bytes, gives None, and no block after it. One block is held at a
    time.
    """
    longest = 4 * (csv.field_size_limit() + 1)
    size = os.fstat(fd).st_size
    at = first * _BLOCK
    rest = os.pread(fd, min(at, longest + 1), at - min(at, longest + 1))
    rest = rest[rest.rfind(b"\n") + 1 :]
    while len(rest) <= longest:
        at = first * _BLOCK
        if first == stop or at >= size or not (chunk := os.pread(fd, min(_BLOCK, size - at), at)):
            if rest and stop is None:
                yield rest.replace(b"\r\n", b"\n") + b"\n"
            return
        first += 1
        rest += chunk
        del chunk
        cut = rest.rfind(b"\n") + 1
        if cut:
            block, rest = rest[:cut], rest[cut:]
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n")
            yield block
    yield None  # a line no record can fill


def _scanned_block(text: bytes, start: int, width: int) -> _Block | None:
    """The coded columns of the records in ``text[start:]``, or None to decline the file.

    The block is split once on the positions of its commas and line ends,
    and each column is converted whole. A column whose widest field would
    pad it past four times the block's size declines, to bound memory.
    """
    if not text.isascii() or any(c in text for c in (b"\0", b'"', b"\r")):
        return None
    body = np.frombuffer(text, np.uint8, offset=start)
    breaks = body == ord(",")
    breaks |= body == ord("\n")
    ends = np.flatnonzero(breaks)
    del breaks
    records = ends.size // width
    if not records or ends.size % width:
        return None
    ends = ends.reshape(records, width)
    kinds = body[ends]
    if np.any(kinds[:, :-1] != ord(",")) or np.any(kinds[:, -1] != ord("\n")):
        return None  # a record of another width
    limit = min(csv.field_size_limit(), 4 * len(text) // records)
    if np.diff(ends.ravel(), prepend=-1).max() > limit + 1:
        return None  # a field longer than the limit

    def field(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Where column ``k``'s fields start in ``body``, and their sizes."""
        lo = ends[:, k - 1] + 1 if k else np.concatenate(([0], ends[:-1, -1] + 1))
        return lo, ends[:, k] - lo

    investors = _block_labels(body, *field(0))
    stocks = None if investors is None else _block_labels(body, *field(1))
    amounts = None if stocks is None else _scanned_amounts(body, *field(2))
    if amounts is None:
        return None
    minus = None
    if width == 4:
        lo, size = field(3)
        sign = body[lo]  # an empty sign's first byte is its line end
        if size.max() > 1 or not np.all((sign == ord("+")) | (sign == ord("-")) | (size == 0)):
            return None
        minus = sign == ord("-")
    return *investors, *stocks, amounts, minus


def _field_bytes(body: np.ndarray, lo: np.ndarray, size: np.ndarray, width: int) -> np.ndarray:
    """Each field's bytes, NUL-padded to ``width``, gathered a byte column at a time."""
    short, long = int(size.min()), int(size.max())
    out = np.zeros((width, lo.size), np.uint8)
    at = lo.copy()
    for column in out[:long]:
        np.take(body, at, out=column, mode="clip")
        at += 1
    # a shorter field has read on past its end, into the next ones
    out[short:long][np.arange(short, long)[:, None] >= size] = 0
    return out.T.copy().view(f"S{width}").ravel()


def _block_labels(
    body: np.ndarray, lo: np.ndarray, size: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """A block's distinct labels and each field's index into them.

    None if a label is empty or needs a strip.
    """
    if size.min() == 0 or _SPACE[body[lo]].any() or _SPACE[body[lo + size - 1]].any():
        return None
    distinct, codes = _ranked(_field_bytes(body, lo, size, -(-int(size.max()) // 8) * 8))
    return distinct, codes.astype(_code_type(distinct.size))


def _merged_labels(
    labels: tuple[np.ndarray, ...], codes: tuple[np.ndarray, ...]
) -> tuple[list[str], np.ndarray]:
    """A label column as ``_coded`` gives it, from each block's distinct labels and codes."""
    distinct, index = _ranked(np.concatenate(labels))
    index = index.astype(_code_type(distinct.size))
    out = np.empty(sum(block.size for block in codes), index.dtype)
    at = base = 0
    for block, local in zip(labels, codes):
        np.take(index[base : base + block.size], local, out=out[at : at + local.size])
        at, base = at + local.size, base + block.size
    return [label.decode("ascii") for label in distinct.tolist()], out


def _ranked(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of ``padded`` in label order, and each entry's index into them.

    The entries are NUL-padded labels a whole number of 8-byte words wide.
    Read as big-endian words they sort as the labels do: by code point, a
    prefix first. Wider labels are ranked a word at a time.
    """
    words = padded.view(">u8").reshape(padded.size, -1).astype(np.uint64)
    key = words[:, 0]
    for word in words.T[1:]:
        rank = np.unique(key, return_inverse=True)[1]
        key = rank * key.size + np.unique(word, return_inverse=True)[1]
    distinct, codes = np.unique(key, return_inverse=True)
    first = np.empty(distinct.size, np.intp)
    first[codes] = np.arange(codes.size)
    return padded[first], codes


def _scanned_amounts(body: np.ndarray, lo: np.ndarray, size: np.ndarray) -> np.ndarray | None:
    """The amounts as ``float`` reads them, or None if one is not a finite nonnegative number."""
    if size.min() == 0:
        return None
    try:
        amounts = _field_bytes(body, lo, size, int(size.max())).astype(float)
    except ValueError:
        return None
    return amounts if np.all(np.isfinite(amounts) & (amounts >= 0)) else None


def _read_text(path: Path) -> io.StringIO:
    """The file's text with its line breaks as written, for ``csv.reader``.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return io.StringIO(handle.read(), newline="")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _csv_records(path: Path, **options) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record with the physical line it starts on.

    A quoted line break makes a record span lines, so the line is counted
    from the reader's; a record that fails to parse is a ``ParseError``
    naming the line it starts on.
    """
    reader = csv.reader(_read_text(path), **options)
    line = 1
    try:
        for fields in reader:
            yield line, fields
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{path}:{line}: {exc}") from exc


def _read_csv(path: Path) -> tuple[_Coded, bool]:
    records = _csv_records(path)
    _, header = next(records, (None, None))
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header line")
    names = [col.strip() for col in header]
    if names[:3] != ["investor", "stock", "amount"] or len(names) > 4 or (
        len(names) == 4 and names[3] != "sign"
    ):
        raise ParseError(
            f"{path}:1: header must be investor,stock,amount[,sign], got {header!r}"
        )
    has_sign = len(names) == 4
    rows = []
    for line, row in records:
        if not "".join(row).strip():
            continue
        if len(row) != len(names):
            raise ParseError(f"{path}:{line}: expected {len(names)} columns, got {len(row)}")
        rows.append(_parse_row(row, has_sign, f"{path}:{line}"))
    return _columns(rows), has_sign


def _read_json(path: Path) -> tuple[_Coded, bool]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, list):
        raise ParseError(f"{path}: expected a JSON array of holdings records")
    rows = []
    has_sign = False
    for pos, item in enumerate(payload, start=1):
        if not isinstance(item, dict) or not {"investor", "stock", "amount"} <= set(item):
            raise ParseError(f"{path}: record {pos} must carry investor, stock, and amount")
        if any(type(item[key]) not in (str, int, float) for key in ("investor", "stock")):
            raise ParseError(f"{path}: record {pos}: investor and stock labels must be strings "
                             "or numbers")
        sign = item.get("sign")
        has_sign = has_sign or sign is not None
        row = [str(item["investor"]), str(item["stock"]), str(item["amount"])]
        if sign is not None:
            row.append(str(sign))
        rows.append(_parse_row(row, sign is not None, f"{path}: record {pos}"))
    return _columns(rows), has_sign


def _columns(rows: list[tuple[str, str, float, bool]]) -> _Coded:
    """Rows from ``_parse_row`` as coded columns."""
    investors, stocks, amounts, legs = zip(*rows) if rows else ((),) * 4
    return (*_coded(investors), *_coded(stocks), np.array(amounts, float), np.array(legs, bool))


def _parse_row(row: list[str], has_sign: bool, where: str) -> tuple[str, str, float, bool]:
    """Validated ``(investor, stock, amount, leg)``; ``leg`` is True for a short row."""
    investor, stock = row[0].strip(), row[1].strip()
    if not investor or not stock:
        raise ParseError(f"{where}: empty investor or stock label")
    try:
        amount = float(row[2])
    except ValueError:
        raise ParseError(f"{where}: amount {row[2]!r} is not a number") from None
    if not math.isfinite(amount) or amount < 0:
        raise ParseError(f"{where}: amount must be finite and nonnegative, got {row[2]!r}")
    leg = False
    if has_sign:
        sign = row[3].strip() or "+"
        if sign not in ("+", "-"):
            raise ParseError(f"{where}: sign must be + or -, got {row[3]!r}")
        leg = sign == "-"
    return investor, stock, amount, leg


def write_csv(matrix: OwnershipMatrix, path: str | Path) -> None:
    """Export normalized shares as an ingestible CSV, quoting labels as needed.

    ``ingest`` strips labels, so a label that is empty or has outer
    whitespace would read back as another label: it is a ``ValidationError``,
    raised before the file is opened.
    """
    for label in matrix.investor_labels + matrix.stock_labels:
        if not label or label != label.strip():
            raise ValidationError(f"label {label!r} would not read back as written")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        # the minimal quoting leaves a carriage return bare, where it would end the row
        quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["investor", "stock", "amount"])
        rows, cols, values = held_cells(matrix)
        for i, j, value in zip(rows.tolist(), cols.tolist(), values.tolist()):
            inv, stk = matrix.investor_labels[i], matrix.stock_labels[j]
            (quoted if "\r" in inv + stk else writer).writerow([inv, stk, repr(value)])


def _read_vector(path: str | Path, labels: tuple[str, ...], kind: str) -> np.ndarray:
    """CSV of label,value pairs covering every active label exactly once."""
    path = Path(path)
    records = _csv_records(path)
    _, header = next(records, (None, None))
    if header is None or [c.strip() for c in header] != ["label", "value"]:
        raise ParseError(f"{path}:1: header must be label,value")
    seen: dict[str, tuple[int, float]] = {}  # each label's line and value
    for line, row in records:
        if not "".join(row).strip():
            continue
        if len(row) != 2:
            raise ParseError(f"{path}:{line}: expected 2 columns, got {len(row)}")
        label, value = row[0].strip(), row[1]
        if label in seen:
            raise ParseError(f"{path}:{line}: duplicate label {label!r}")
        try:
            seen[label] = line, float(value)
        except ValueError:
            raise ParseError(f"{path}:{line}: value {value!r} is not a number") from None
    missing = [lab for lab in labels if lab not in seen]
    if missing:
        raise ParseError(f"{path}: missing {kind} value for {missing[0]!r}")
    known = set(labels)
    extra = [lab for lab in seen if lab not in known]
    if extra:
        raise ParseError(f"{path}:{seen[extra[0]][0]}: unknown {kind} label {extra[0]!r}")
    return np.array([seen[lab][1] for lab in labels])


def _read_partition(path: str | Path, matrix: OwnershipMatrix) -> hs.dependence.Partition:
    """One group per line, comma-separated investor labels, quoted CSV-style as needed."""
    path = Path(path)
    index = dict(zip(matrix.investor_labels, range(matrix.n)))
    groups = []
    for line, tokens in _csv_records(path, skipinitialspace=True):
        if len(tokens) < 2 and not "".join(tokens).strip():
            continue
        members = []
        for token in tokens:
            label = token.strip()
            if not label:
                raise ParseError(f"{path}:{line}: empty label in group")
            if label not in index:
                raise ParseError(f"{path}:{line}: unknown investor label {label!r}")
            members.append(index[label])
        groups.append(tuple(members))
    if not groups:
        raise ParseError(f"{path}: no groups found")
    return hs.dependence.Partition(tuple(groups))


# -- dashboard and reports ---------------------------------------------------


def dashboard(
    matrix: OwnershipMatrix,
    *,
    compute_psi: bool | None = None,
    max_budget: int = 64,
    seed: int = 0,
) -> Dashboard:
    """Assemble the six headline diagnostics from one matrix.

    ``compute_psi=None`` decides automatically from the label count. The
    search arguments are checked whether or not Psi is computed.
    """
    _check_search(max_budget, seed)
    summary = hs.indices.concentration_summary(matrix)
    dep = hs.dependence.dependence_index(matrix)
    res = hs.spectral.whiten(matrix)
    if compute_psi is None:
        compute_psi = matrix.n + matrix.m <= PSI_AUTO_LIMIT
    psi = certified = None
    reason = None
    if not compute_psi:
        reason = "disabled"
    else:
        try:
            score = hs.transport.sparsity_score(matrix, budget=max_budget, seed=seed)
            psi, certified = score.psi, score.certified
        except DegenerateRange as exc:
            reason = str(exc)
    return Dashboard(
        H_I=summary.investor_herfindahl,
        H_S=summary.stock_herfindahl,
        M=summary.micro,
        Psi=psi,
        X=dep.index,
        rho=res.rho,
        N_I=summary.effective_investors,
        N_S=summary.effective_stocks,
        N_M=summary.effective_cells,
        psi_certified=certified,
        psi_reason=reason,
    )


#: The dashboard's metrics, in report order.
_METRICS = ("H_I", "H_S", "M", "Psi", "X", "rho", "N_I", "N_S", "N_M")


def report(
    matrix: OwnershipMatrix,
    dash: Dashboard,
    contributions: hs.dependence.DependenceReport,
    fmt: str = "text",
    seed: int = 0,
    flags: dict | None = None,
) -> str:
    """Serialize a full dashboard report; identical inputs, identical bytes."""
    if fmt == "json":
        marg = marginals(matrix)
        metrics = {name: getattr(dash, name) for name in _METRICS}
        if dash.psi_reason is not None:
            metrics["Psi_omitted"] = dash.psi_reason
        payload = {
            "labels": {"investors": matrix.investor_labels, "stocks": matrix.stock_labels},
            "marginals": {"p": marg.p, "s": marg.s},
            "dashboard": metrics,
            "contributions": {
                "investor": contributions.investor_contributions,
                "stock": contributions.stock_contributions,
            },
            "certification": {"psi_certified": dash.psi_certified},
            "provenance": {"seed": seed, "flags": flags or {}},
        }
        return _render(payload, fmt)
    lines = ["metric  value"]
    for name in _METRICS:
        value = getattr(dash, name)
        shown = _fmt(value) if value is not None else f"undefined ({dash.psi_reason})"
        lines.append(_row((name, shown), (7,)))
    lines.append("")
    lines.append("dependence contributions")
    for lab, x in zip(matrix.investor_labels, contributions.investor_contributions):
        lines.append(_row(("  investor", lab, _fmt(x)), (10, 12)))
    for lab, x in zip(matrix.stock_labels, contributions.stock_contributions):
        lines.append(_row(("  stock", lab, _fmt(x)), (10, 12)))
    lines.append("")
    lines.append(f"seed {seed}")
    return "\n".join(lines) + "\n"


def _row(cells: Sequence[str], widths: Sequence[int]) -> str:
    """One text row: each cell padded to its width, the last one as it is, one space apart."""
    return " ".join([f"{cell:<{width}}" for cell, width in zip(cells, widths)] + [cells[-1]])


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _rounded(obj):
    """``obj`` with floats at 6 significant digits, numpy values as Python ones, tuples as lists.

    A non-finite float raises ``NonFiniteResult``.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _rounded(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(val) for val in obj]
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteResult(f"a reported value is {obj}")
        return float(f"{obj:.6g}")
    return obj


#: ``%.6g`` writes the digits ``repr`` writes for the float its text reads
#: as (at most 6 digits round-trip), in the same layout, unless |x| is at
#: least ``_REPR_AT`` (the text has no ``.``, or an exponent ``repr`` writes
#: out) or below the smallest normal float (0, whose text has no ``.``, and
#: the subnormals, whose shortest digits may be fewer).
_REPR_AT, _NORMAL = 0.9999995, sys.float_info.min


@dataclass(frozen=True)
class _Rows:
    """A list of dicts given by its columns, for ``_json``.

    Dict r maps ``keys[k]`` to ``columns[k][r]``. The keys are at least
    one; each column is a sequence as long as the others.
    """

    keys: tuple[str, ...]
    columns: tuple[Sequence, ...]


def _json(obj, pad: str = "\n", end: str = "") -> str:
    """``json.dumps(_rounded(obj), indent=2) + end`` in one pass.

    ``pad`` is a line break and ``obj``'s indent. No rounded copy is made.
    A finite float, numpy's ``float64`` included, and a string are written
    here, and a container's items as one column where they share a type
    (``_items``); ``_Rows`` are written as their list of dicts, a column at
    a time (``_records``). Only other leaves pass through ``_rounded`` and
    the encoder. Each container joins its items' text once, with its
    brackets, its keys and ``end``, so no item's text is copied but into
    its container's.
    """
    if isinstance(obj, float) and math.isfinite(obj):
        return repr(float(f"{obj:.6g}")) + end
    if isinstance(obj, str):
        return _quoted(obj) + end
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist(), pad, end)
    inner = pad + "  "
    if isinstance(obj, dict):
        texts, brackets = _items(list(obj.values()), inner), "{}"
    elif isinstance(obj, (list, tuple)):
        texts, brackets = _items(obj, inner), "[]"
    elif isinstance(obj, _Rows):
        texts, brackets = _records(obj, inner), "[]"
    else:
        return _scalar(_rounded(obj)) + end
    if not texts:
        return brackets + end
    # each item's text between what goes before it and, last, the closing bracket
    parts = ["," + inner] * (2 * len(texts) + 1)
    parts[0], parts[-1] = brackets[0] + inner, pad + brackets[1] + end
    parts[1::2] = texts
    if isinstance(obj, dict):
        parts[:-1:2] = [f"{before}{_quoted(key)}: " for before, key in zip(parts[:-1:2], obj)]
    return "".join(parts)


def _items(values: Sequence, pad: str) -> list[str]:
    """Each value's ``_json`` text at indent ``pad``.

    Values that are all Python floats (a numpy scalar makes a mixed list)
    or all strings are written as one column.
    """
    kinds = set(map(type, values))
    texts = None
    if kinds == {float}:
        texts = _floats(values)
    elif kinds == {str}:
        texts = list(map(_quoted, values))
    return [_json(val, pad) for val in values] if texts is None else texts


def _floats(values: Sequence[float]) -> list[str] | None:
    """``[repr(float(f"{x:.6g}")) for x in values]``, or None if a value is not finite.

    One ``%`` writes every value; only those numpy flags by size pass
    through ``repr`` (see ``_REPR_AT``).
    """
    size = np.abs(np.array(values))
    if not np.isfinite(size).all():
        return None
    texts = ("%.6g " * len(values) % tuple(values)).split()
    for k in np.flatnonzero((size >= _REPR_AT) | (size < _NORMAL)).tolist():
        texts[k] = repr(float(texts[k]))
    return texts


def _records(rows: _Rows, pad: str) -> list[str]:
    """The text of each of ``rows``' dicts, through one row template.

    Each column is written as one (``_items``), and no dict is built.
    """
    inner = pad + "  "
    fields = [inner + _quoted(key).replace("%", "%%") + ": %s" for key in rows.keys]
    template = "{" + ",".join(fields) + pad + "}"
    return list(map(template.__mod__, zip(*[_items(column, inner) for column in rows.columns])))


def _render(payload: dict, fmt: str) -> str:
    """The one report serializer: ``schema_version`` first, floats at 6 significant digits.

    Every float, Python or numpy, also inside dicts, lists, tuples and
    arrays, is rounded; arrays and tuples become lists, and ints, bools,
    strings and None pass through. A non-finite number raises
    ``NonFiniteResult``. ``json`` writes the bytes of ``json.dumps`` with
    ``indent=2``; ``text`` writes one ``dotted.key  value`` line per leaf.
    """
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if fmt == "json":
        return _json(payload, end="\n")
    payload = _rounded(payload)
    lines: list[str] = []

    def walk(prefix: str, obj: dict) -> None:
        for key, val in obj.items():
            if isinstance(val, dict):
                walk(f"{prefix}{key}.", val)
            else:
                shown = " ".join(map(_fmt, val)) if isinstance(val, list) else _fmt(val)
                lines.append(_row((prefix + key, shown), (28,)))

    walk("", payload)
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------------


def _headline_payload(delta: hs.comparative.OperationDelta) -> dict:
    def block(values) -> dict:
        return {
            "H_I": values.investor_herfindahl,
            "H_S": values.stock_herfindahl,
            "M": values.micro,
            "X": values.dependence,
        }

    payload = {
        "before": block(delta.before),
        "after": block(delta.after),
        "predicted_after": block(delta.predicted_after),
    }
    if delta.dropped_investors:
        payload["dropped_investors"] = delta.dropped_investors
    return payload


def _cmd_dashboard(args) -> str:
    matrix = ingest(args.file, args.input_format)
    dash = dashboard(matrix, compute_psi=args.psi, max_budget=args.max_budget, seed=args.seed)
    flags = {
        "psi": args.psi,
        "max_budget": args.max_budget,
        "format": args.format,
        "input_format": args.input_format,
    }
    dep = hs.dependence.dependence_index(matrix)
    return report(matrix, dash, dep, args.format, args.seed, flags)


def _cmd_decompose(args) -> str:
    matrix = ingest(args.file, args.input_format)
    marg = marginals(matrix)
    dec = hs.indices.micro_decomposition(matrix)
    dep = hs.dependence.dependence_index(matrix)
    sides = (
        ("investor", "portfolio_concentration", (
            matrix.investor_labels,
            marg.p.tolist(),
            dec.portfolio_concentration.tolist(),
            dep.investor_contributions.tolist(),
        )),
        ("stock", "owner_concentration", (
            matrix.stock_labels,
            marg.s.tolist(),
            dec.owner_concentration.tolist(),
            dep.stock_contributions.tolist(),
        )),
    )
    if args.format == "json":
        payload = {
            f"{side}s": _Rows(("label", "mass", conc, "dependence_contribution"), columns)
            for side, conc, columns in sides
        }
        return _render(payload, args.format)
    lines = ["side     label        mass     conc     dependence"]
    for side, _, columns in sides:
        for label, mass, conc, x in zip(*columns):
            lines.append(_row((side, label, _fmt(mass), _fmt(conc), _fmt(x)), (8, 12, 8, 8)))
    return "\n".join(lines) + "\n"


def _cmd_psi(args) -> str:
    matrix = ingest(args.file, args.input_format)
    score = hs.transport.sparsity_score(matrix, budget=args.max_budget, seed=args.seed)
    payload = {
        "psi": score.psi,
        "m_min": score.m_min,
        "m_max": score.m_max,
        "m_observed": score.m_observed,
        "certified": score.certified,
    }
    return _render(payload, args.format)


def _cmd_shock(args) -> str:
    matrix = ingest(args.file, args.input_format)
    delta = _read_vector(args.shocks, matrix.investor_labels, "investor")
    result = hs.dynamics.fire_sale(matrix, delta)
    payload = {
        "severity": result.severity,
        "parallel_term": result.parallel_term,
        "perp_term": result.perp_term,
        "bound": result.bound,
        "impact": dict(zip(matrix.stock_labels, result.impact.tolist())),
    }
    return _render(payload, args.format)


def _cmd_alpha(args) -> str:
    matrix = ingest(args.file, args.input_format)
    returns = _read_vector(args.returns, matrix.stock_labels, "stock")
    result = hs.dynamics.active_variance(
        matrix, returns, project=args.project_returns, dispersion=args.dispersion
    )
    payload = {
        "variance": result.variance,
        "worst_case_bound": result.worst_case_bound,
        "alpha": dict(zip(matrix.investor_labels, result.alpha.tolist())),
    }
    if result.isotropic_capacity is not None:
        payload["isotropic_capacity"] = result.isotropic_capacity
    return _render(payload, args.format)


def _cmd_merge(args) -> str:
    matrix = ingest(args.file, args.input_format)
    try:
        tokens = next(csv.reader([args.pair], skipinitialspace=True))
        first, second = (tok.strip() for tok in tokens)
    except (ValueError, csv.Error):
        raise ParseError(f"--pair expects two comma-separated labels, got {args.pair!r}") from None
    a, b = matrix.investor_index(first), matrix.investor_index(second)
    if a == b:
        raise SameInvestor(f"--pair needs two distinct investors, got {first!r} twice")
    delta = hs.comparative.merge_investors(matrix, a, b)
    return _render(_headline_payload(delta), args.format)


def _cmd_drop_stock(args) -> str:
    matrix = ingest(args.file, args.input_format)
    delta = hs.comparative.remove_stock(matrix, matrix.stock_index(args.stock))
    return _render(_headline_payload(delta), args.format)


def _cmd_dilute(args) -> str:
    matrix = ingest(args.file, args.input_format)
    delta = hs.comparative.dilute(matrix, args.mass)
    return _render(_headline_payload(delta), args.format)


def _cmd_aggregate(args) -> str:
    matrix = ingest(args.file, args.input_format)
    partition = _read_partition(args.groups, matrix)
    split = hs.dependence.aggregate(matrix, partition)
    payload = {
        "between": split.between,
        "within": split.within,
        "total": split.between + split.within,
        "groups": split.merged.investor_labels,
    }
    return _render(payload, args.format)


def _cmd_family(args) -> str:
    if args.kind == "2x2":
        if args.a is None or args.b is None:
            raise ParseError("family 2x2 needs --a and --b")
        fam = hs.transport.family_2x2(args.a, args.b)
        mat_min = hs.transport.transport_matrix_2x2(args.a, args.b, fam.x_min_constrained)
        payload = {
            "interval": fam.interval,
            "x_star": fam.x_star,
            "x_min_constrained": fam.x_min_constrained,
            "m_min": np.sum(mat_min * mat_min),
        }
        return _render(payload, args.format)
    if args.t is None:
        raise ParseError("family nonid needs --t")
    matrix, micro_formula, dependence_formula = hs.comparative.nonid_family(args.t)
    payload = {"entries": matrix.entries, "M": micro_formula, "X": dependence_formula}
    return _render(payload, args.format)


def _cmd_renyi(args) -> str:
    matrix = ingest(args.file, args.input_format)
    summary = hs.extensions.renyi_summary(matrix, args.alpha)
    payload = {
        "alpha": summary.alpha,
        "H_I_alpha": summary.investor_power_sum,
        "H_S_alpha": summary.stock_power_sum,
        "M_alpha": summary.micro_power_sum,
        "N_I_alpha": summary.effective_investors,
        "N_S_alpha": summary.effective_stocks,
        "N_M_alpha": summary.effective_cells,
    }
    return _render(payload, args.format)


def _cmd_signed(args) -> str:
    book = ingest(args.file, args.input_format, signed=True)
    value = hs.extensions.signed_dependence(book)
    payload = {
        "eta": book.net_exposure,
        "X_signed": value,
        "gross_marginals": {"p": book.gross_investor_marginals, "s": book.gross_stock_marginals},
        "net_marginals": {"p": book.net_investor_marginals, "s": book.net_stock_marginals},
    }
    return _render(payload, args.format)


# -- argument parsing ----------------------------------------------------------


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call, as its positional flags and keyword options."""
    return flags, options


#: Argument groups that several subcommands share.
_FILE = (
    _arg("file", help="holdings file (CSV or JSON records)"),
    _arg("--input-format", choices=("csv", "json"), default="csv",
         help="holdings file format (default csv)"),
)
_FORMAT = (_arg("--format", choices=("text", "json"), default="text", help="report format"),)
_BOOK = _FILE + _FORMAT
_SEARCH = (
    _arg("--seed", type=int, default=0, help="seed for the maximum search"),
    _arg("--max-budget", type=int, default=64, help="restarts for the maximum search"),
)

#: The subcommands in ``--help`` order: (name, help, handler, arguments).
_SUBCOMMANDS = (
    ("dashboard", "full six-number diagnostic dashboard", _cmd_dashboard, (
        *_BOOK, *_SEARCH,
        _arg("--psi", action=argparse.BooleanOptionalAction, default=None,
             help="force the sparsity score on/off (default: auto by size)"),
    )),
    ("decompose", "per-investor and per-stock contributions", _cmd_decompose, _BOOK),
    ("psi", "feasible-range sparsity score", _cmd_psi, _BOOK + _SEARCH),
    ("shock", "fire-sale impact of a liquidation shock", _cmd_shock, (
        *_BOOK, _arg("--shocks", required=True, help="CSV of label,value liquidation rates"),
    )),
    ("alpha", "benchmark-relative active variance", _cmd_alpha, (
        *_BOOK,
        _arg("--returns", required=True, help="CSV of label,value excess returns"),
        _arg("--project-returns", action="store_true",
             help="center returns on the capitalization weights first"),
        _arg("--dispersion", type=float, default=None,
             help="also report the isotropic capacity at this dispersion scale"),
    )),
    ("merge", "merge two investors", _cmd_merge, (
        *_BOOK, _arg("--pair", required=True, help="two investor labels, comma-separated"),
    )),
    ("drop-stock", "remove a stock and renormalize", _cmd_drop_stock, (
        *_BOOK, _arg("--stock", required=True, help="stock label to remove"),
    )),
    ("dilute", "add a market-weight investor", _cmd_dilute, (
        *_BOOK,
        _arg("--mass", type=float, required=True, help="mass of the new investor in (0,1)"),
    )),
    ("aggregate", "between/within dependence split", _cmd_aggregate, (
        *_BOOK,
        _arg("--groups", required=True,
             help="partition file: one comma-separated group per line"),
    )),
    ("family", "closed-form 2x2 families", _cmd_family, (
        _arg("kind", choices=("2x2", "nonid")),
        _arg("--a", type=float, default=None, help="first marginal mass (2x2)"),
        _arg("--b", type=float, default=None, help="second marginal mass (2x2)"),
        _arg("--t", type=float, default=None, help="free cell (nonid)"),
        *_FORMAT,
    )),
    ("renyi", "power-sum concentration of one order", _cmd_renyi, (
        *_BOOK, _arg("--alpha", type=float, required=True, help="power-sum order"),
    )),
    ("signed", "gross-whitened dependence of a signed book", _cmd_signed, _BOOK),
)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``holdscan`` command line, built from ``_SUBCOMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="holdscan",
        description="Concentration, dependence, and transmission diagnostics "
        "for holdings matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _SUBCOMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(func=handler)
    return parser


#: The parser ``main`` uses, built on its first call. ``parse_args`` leaves
#: a parser as it was and returns a new namespace, so one serves every call.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

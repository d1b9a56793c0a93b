"""Metamorphic relations on a 13F-scale book.

A seeded 2000x1500 book with about 72k held cells reported as about 200k
lots. No dense oracle is affordable at this scale, so each test compares
two runs whose answers must agree: a reordered, rescaled, relabelled or
split file must give the same report bytes, the transposed book must swap
the two sides, grouping every investor alone must keep the whole
dependence between the groups, and merging an investor with its double
must keep the dependence. The reports go through ``decompose``,
``aggregate`` and ``merge``, which never whiten. The golden book, scaled
until its sums overflow, must print the bytes of the golden book.
"""

import contextlib
import io
import json
import warnings
from types import SimpleNamespace

import numpy as np
import numpy.testing as nptest
import pytest

import holdscan as hs
from holdscan import cli

from conftest import GOLDEN_CSV, assert_same_to_the_printed_digit

SHAPE = (2000, 1500)
DENSITY = 0.023
LOTS_PER_CELL = 2.78


@pytest.fixture(scope="module")
def book(tmp_path_factory):
    """The lots of the book, the file holding them in shuffled lot order, and its report.

    Lot k holds ``amounts[k]`` in cell ``cell[k]`` at ``(rows[k], cols[k])``;
    the file at ``path`` lists the lots in ``order``, and ``report`` is its
    ``decompose`` JSON. Every label holds a cell, so the ingested shape is
    SHAPE.
    """
    rng = np.random.default_rng(20260)
    n, m = SHAPE
    held = rng.random(SHAPE) < DENSITY
    held[np.arange(n), rng.integers(0, m, n)] = True
    held[rng.integers(0, n, m), np.arange(m)] = True
    cell_rows, cell_cols = np.nonzero(held)
    # heavy-tailed sizes on both sides, and a heavy-tailed amount per lot
    inv_size = (rng.permutation(n) + 1.0) ** -1.0
    cap = (rng.permutation(m) + 1.0) ** -0.8
    per_cell = 1 + rng.poisson(LOTS_PER_CELL - 1, cell_rows.size)
    lot_cell = np.repeat(np.arange(cell_rows.size), per_cell)
    cell_size = inv_size[cell_rows] * cap[cell_cols]
    amounts = cell_size[lot_cell] * rng.lognormal(0.0, 1.0, lot_cell.size)
    order = rng.permutation(lot_cell.size)
    path = tmp_path_factory.mktemp("metamorphic") / "book.csv"
    lots = SimpleNamespace(
        path=path, cell=lot_cell, rows=cell_rows[lot_cell], cols=cell_cols[lot_cell],
        amounts=amounts, order=order,
    )
    write_lots(path, lots, amounts, order)
    lots.report = decompose_json(path)
    return lots


def write_lots(path, book, amounts, order, prefixes="IS"):
    """A holdings CSV of the book's lots, in ``order`` and of ``amounts``.

    Labels are zero-padded after their side's prefix and amounts written in
    shortest round-trip form.
    """
    inv, stk = prefixes
    lines = ["investor,stock,amount"]
    lines += [
        f"{inv}{i:04d},{stk}{j:04d},{a!r}"
        for i, j, a in zip(
            book.rows[order].tolist(), book.cols[order].tolist(), amounts[order].tolist()
        )
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def decompose_json(path):
    return run(["decompose", str(path), "--format", "json"])


def run(argv):
    """What ``holdscan argv`` prints, checked to exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_shuffling_whole_cells_keeps_decompose_bytes(book, tmp_path):
    # the cells in a new order, each cell's lots together and in their file order
    rank = np.random.default_rng(1).permutation(book.cell[-1] + 1)
    shuffled = book.order[np.argsort(rank[book.cell[book.order]], kind="stable")]
    assert not np.array_equal(shuffled, book.order)
    moved = tmp_path / "shuffled.csv"
    write_lots(moved, book, book.amounts, shuffled)
    assert decompose_json(moved) == book.report


def test_power_of_two_scaling_keeps_decompose_bytes(book, tmp_path):
    scaled = tmp_path / "scaled.csv"
    write_lots(scaled, book, book.amounts * 8, book.order)
    assert decompose_json(scaled) == book.report


def test_transposing_swaps_the_sides(book):
    assert 70_000 <= book.cell[-1] + 1 <= 74_000
    assert 190_000 <= book.cell.size <= 210_000
    matrix = cli.ingest(book.path)
    assert matrix.shape == SHAPE
    flipped = hs.OwnershipMatrix(matrix.entries.T, matrix.stock_labels, matrix.investor_labels)
    dep, dep_t = hs.dependence_index(matrix), hs.dependence_index(flipped)
    rel = {"rtol": 1e-12, "atol": 0.0}
    nptest.assert_allclose(dep_t.index, dep.index, **rel)
    nptest.assert_allclose(hs.micro_concentration(flipped), hs.micro_concentration(matrix), **rel)
    marg, marg_t = hs.marginals(matrix), hs.marginals(flipped)
    nptest.assert_allclose(hs.herfindahl(marg_t.p), hs.herfindahl(marg.s), **rel)
    nptest.assert_allclose(hs.herfindahl(marg_t.s), hs.herfindahl(marg.p), **rel)
    nptest.assert_allclose(dep_t.investor_contributions, dep.stock_contributions, **rel)
    nptest.assert_allclose(dep_t.stock_contributions, dep.investor_contributions, **rel)


def decompose_rows(report, fmt):
    """The rows of a ``decompose`` report by side: label, mass, concentration, dependence."""
    if fmt == "json":
        payload = json.loads(report)
        return {side[:-1]: [tuple(row.values()) for row in payload[side]]
                for side in ("investors", "stocks")}
    rows = {"investor": [], "stock": []}
    header, *lines = report.splitlines()
    assert header.split() == ["side", "label", "mass", "conc", "dependence"]
    for line in lines:
        side, label, *numbers = line.split()
        rows[side].append((label, *map(float, numbers)))
    return rows


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_swapping_the_label_columns_swaps_the_report_sides(book, tmp_path, fmt):
    # the stocks' labels in the investor column and the investors' in the stock
    # column: the transposed book, whose cells sum in another order, so only
    # the 6th printed digit may move
    swapped = tmp_path / "swapped.csv"
    write_lots(swapped, SimpleNamespace(rows=book.cols, cols=book.rows), book.amounts,
               book.order, prefixes="SI")
    report = book.report if fmt == "json" else run(["decompose", str(book.path), "--format", fmt])
    rows = decompose_rows(report, fmt)
    flipped = decompose_rows(run(["decompose", str(swapped), "--format", fmt]), fmt)
    assert [len(rows["investor"]), len(rows["stock"])] == list(SHAPE)
    for side, other in (("investor", "stock"), ("stock", "investor")):
        assert len(flipped[other]) == len(rows[side])
        for (label, *numbers), (label_t, *numbers_t) in zip(rows[side], flipped[other]):
            assert label_t == label
            for a, b in zip(numbers, numbers_t):
                assert_same_to_the_printed_digit(a, b)


def test_splitting_each_first_lot_keeps_decompose_bytes(book, tmp_path):
    # each cell's first lot in the file becomes two halves in its place:
    # the cell then starts from x/2 + x/2 = x, exactly in binary arithmetic
    first = np.zeros(book.order.size, bool)
    first[np.unique(book.cell[book.order], return_index=True)[1]] = True
    halved = book.amounts.copy()
    halved[book.order[first]] /= 2
    split = tmp_path / "split.csv"
    write_lots(split, book, halved, np.repeat(book.order, np.where(first, 2, 1)))
    assert decompose_json(split) == book.report


def test_order_preserving_relabelling_keeps_decompose_bytes(book, tmp_path):
    renamed = tmp_path / "renamed.csv"
    write_lots(renamed, book, book.amounts, book.order, prefixes="JT")
    report = decompose_json(renamed)
    assert report != book.report
    back = report.replace('"label": "J', '"label": "I').replace('"label": "T', '"label": "S')
    assert back == book.report


def test_singleton_groups_keep_all_dependence_between(book, tmp_path):
    groups = tmp_path / "singletons.txt"
    groups.write_text("".join(f"I{i:04d}\n" for i in range(SHAPE[0])), encoding="utf-8")
    split = json.loads(run(["aggregate", str(book.path), "--groups", str(groups), "--format", "json"]))
    # the decompose report's X is the sum of its contributions, each at 6 digits
    index = sum(row["dependence_contribution"] for row in json.loads(book.report)["investors"])
    assert split["between"] == pytest.approx(index, rel=1e-5)
    assert split["between"] == float(f"{hs.dependence_index(cli.ingest(book.path)).index:.6g}")
    assert split["within"] == 0.0
    text = run(["aggregate", str(book.path), "--groups", str(groups), "--format", "text"])
    fields = dict(line.split(maxsplit=1) for line in text.splitlines())
    assert fields["within"] == "0"
    assert float(fields["between"]) == split["between"] == float(fields["total"])


def test_merging_an_investor_with_its_double_keeps_the_dependence(book, tmp_path):
    # a new last investor holds each lot of the investor with the most lots,
    # doubled and in the same file order: exactly the same profile, so merging
    # the two costs nothing
    k = int(np.bincount(book.rows).argmax())
    lots = book.order[book.rows[book.order] == k]
    twin = SimpleNamespace(
        rows=np.concatenate([book.rows, np.full(lots.size, SHAPE[0])]),
        cols=np.concatenate([book.cols, book.cols[lots]]),
    )
    amounts = np.concatenate([book.amounts, 2 * book.amounts[lots]])
    order = np.concatenate([book.order, book.rows.size + np.arange(lots.size)])
    path = tmp_path / "twin.csv"
    write_lots(path, twin, amounts, order)
    pair = f"I{k:04d}", f"I{SHAPE[0]}"
    matrix = cli.ingest(path)
    assert matrix.shape == (SHAPE[0] + 1, SHAPE[1])
    assert hs.merger_delta(matrix, *map(matrix.investor_index, pair)) == 0.0
    report = json.loads(run(["merge", str(path), "--pair", ",".join(pair), "--format", "json"]))
    assert report["predicted_after"]["X"] == report["before"]["X"]
    assert report["after"]["X"] == report["before"]["X"]


@pytest.mark.parametrize("scale, parts", [
    (2.0**1018, 1),  # the book's total overflows
    (2.0**1020, 2),  # each lot in two halves, and every cell's sum overflows
], ids=["total", "cell"])
def test_golden_book_beyond_the_float_range_keeps_its_bytes(tmp_path, golden_csv, scale, parts):
    header, *lots = GOLDEN_CSV.splitlines()
    lines = [header]
    for lot in lots:
        investor, stock, amount = lot.split(",")
        lines += [f"{investor},{stock},{float(amount) / parts * scale!r}"] * parts
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in (["decompose"], ["dashboard", "--no-psi"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run([command[0], str(huge), *command[1:], "--format", "json"])
        assert report == run([command[0], str(golden_csv), *command[1:], "--format", "json"])

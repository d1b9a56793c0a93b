"""Operations that read and build the held-cell store only.

Empty cells enter the sums in closed form, so these tests draw books with
empty cells and compare against dense numpy oracles that visit every
cell, check that ingestion builds the same store as ``normalize`` of the
dense raw matrix, and check that no n-by-m temporary is allocated.
"""

import csv
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from unittest import mock

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan import cli
from holdscan.core import _summed_cells, held_cells
from holdscan.errors import AllZeroMatrix, ParseError

from conftest import peak_bytes, use_workers


def sparse_active(rng, n, m, density):
    """Raw holdings with random empty cells but every row and column held."""
    mask = rng.random((n, m)) < density
    mask[np.arange(n), rng.integers(0, m, n)] = True
    mask[rng.integers(0, n, m), np.arange(m)] = True
    return np.where(mask, rng.pareto(1.5, (n, m)) + 1e-3, 0.0)


def dense_dependence(e):
    """Definitional chi-square terms over every cell: index, row sums, column sums."""
    bench = np.outer(e.sum(axis=1), e.sum(axis=0))
    chi = (e - bench) ** 2 / bench
    return chi.sum(), chi.sum(axis=1), chi.sum(axis=0)


def dense_headline(e):
    """H_I, H_S, M and X of a share matrix, visiting every cell."""
    p, s = e.sum(axis=1), e.sum(axis=0)
    return p @ p, s @ s, np.sum(e * e), dense_dependence(e[np.ix_(p > 0, s > 0)])[0]


def dense_aggregate(e, groups):
    """Between and within dependence and the merged matrix, as the dense loop over groups."""
    p, s = e.sum(axis=1), e.sum(axis=0)
    q = e / p[:, None]
    between = within = 0.0
    merged = []
    for idx in map(list, groups):
        row = e[idx].sum(axis=0)
        mean = row / p[idx].sum()
        between += p[idx].sum() * np.sum((mean - s) ** 2 / s)
        within += np.sum(p[idx, None] * (q[idx] - mean) ** 2 / s)
        merged.append(row)
    return between, within, np.array(merged)


def assert_close(actual, expected):
    assert abs(actual - expected) <= 1e-12 * max(1.0, abs(expected)), (actual, expected)


def assert_headline(indices, e):
    got = (indices.investor_herfindahl, indices.stock_herfindahl, indices.micro, indices.dependence)
    for actual, expected in zip(got, dense_headline(e)):
        assert_close(actual, expected)


def test_held_cells_row_major():
    matrix = hs.OwnershipMatrix(np.array([[0.0, 0.25, 0.0], [0.5, 0.0, 0.25]]))
    rows, cols, values = held_cells(matrix)
    nptest.assert_array_equal(rows, [0, 1, 1])
    nptest.assert_array_equal(cols, [1, 0, 2])
    nptest.assert_array_equal(values, [0.25, 0.5, 0.25])


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.integers(1, 20),
    st.floats(0.0, 1.0),
    st.floats(-9e-10, 9e-10),
)
@settings(max_examples=150, deadline=None)
def test_held_cell_sums_match_dense_oracles(seed, n, m, density, delta):
    # entries sum to 1 + delta, inside TOL_NORM: the empty cells' benchmark
    # mass is then p.sum() * s.sum() - (held part), not 1 - (held part)
    raw = sparse_active(np.random.default_rng(seed), n, m, density)
    matrix = hs.OwnershipMatrix(raw / raw.sum() * (1.0 + delta))
    e = matrix.entries

    report = hs.dependence_index(matrix)
    index, by_row, by_col = dense_dependence(e)
    tol = 1e-12 * max(1.0, index)
    assert abs(report.index - index) <= tol
    assert np.max(np.abs(report.investor_contributions - by_row)) <= tol
    assert np.max(np.abs(report.stock_contributions - by_col)) <= tol

    dec = hs.micro_decomposition(matrix)
    p, s = e.sum(axis=1), e.sum(axis=0)
    c = np.sum((e / p[:, None]) ** 2, axis=1)
    d = np.sum((e / s[None, :]) ** 2, axis=0)
    nptest.assert_allclose(dec.portfolio_concentration, c, rtol=1e-12, atol=0)
    nptest.assert_allclose(dec.owner_concentration, d, rtol=1e-12, atol=0)
    nptest.assert_allclose(dec.investor_terms, p**2 * c, rtol=1e-12, atol=0)
    nptest.assert_allclose(dec.stock_terms, s**2 * d, rtol=1e-12, atol=0)
    nptest.assert_array_equal(dec.row_support, np.count_nonzero(e, axis=1))
    nptest.assert_array_equal(dec.col_support, np.count_nonzero(e, axis=0))

    marg = hs.marginals(matrix)
    nptest.assert_allclose(marg.p, p, rtol=1e-12, atol=0)
    nptest.assert_allclose(marg.s, s, rtol=1e-12, atol=0)
    summary = hs.concentration_summary(matrix)
    assert_close(summary.investor_herfindahl, p @ p)
    assert_close(summary.stock_herfindahl, s @ s)
    assert_close(summary.micro, np.sum(e * e))
    assert_headline(hs.headline(matrix), e)
    for alpha in (0.5, 3.0):
        renyi = hs.renyi_summary(matrix, alpha)
        assert_close(renyi.investor_power_sum, np.sum(p**alpha))
        assert_close(renyi.stock_power_sum, np.sum(s**alpha))
        assert_close(renyi.micro_power_sum, np.sum(e**alpha))

    rng = np.random.default_rng(seed)
    i0, j0 = int(rng.integers(0, n + 1)), int(rng.integers(0, m + 1))
    padded = np.insert(np.insert(e, i0, 0.0, axis=0), j0, 0.0, axis=1)
    active = hs.restrict_active(hs.OwnershipMatrix(padded))
    nptest.assert_array_equal(active.entries, e)
    assert active.investor_labels == tuple(f"I{k + 1}" for k in range(n + 1) if k != i0)
    assert active.stock_labels == tuple(f"S{k + 1}" for k in range(m + 1) if k != j0)

    member = rng.integers(0, max(1, n // 3), n)
    groups = [tuple(np.flatnonzero(member == g)) for g in np.unique(member)]
    split = hs.aggregate(matrix, hs.Partition(tuple(groups)))
    between, within, merged_rows = dense_aggregate(e, groups)
    assert_close(split.between, between)
    assert_close(split.within, within)
    nptest.assert_allclose(split.merged.entries, merged_rows, rtol=1e-12, atol=0)

    if n >= 2:
        a, b = (int(k) for k in rng.choice(n, 2, replace=False))
        merged = np.delete(e, max(a, b), axis=0)
        merged[min(a, b)] = e[a] + e[b]
        delta_ = hs.merge_investors(matrix, a, b)
        nptest.assert_array_equal(delta_.matrix_after.entries, merged)
        assert_headline(delta_.after, merged)
    j = int(rng.integers(0, m))
    weight = s.sum() - s[j]  # the rest of the book's own mass
    reduced = np.delete(e, j, axis=1) / weight
    reduced = reduced[reduced.sum(axis=1) >= hs.TOL_NORM]
    if weight > hs.TOL_NORM:
        delta_ = hs.remove_stock(matrix, j)
        nptest.assert_allclose(delta_.matrix_after.entries, reduced, rtol=1e-12, atol=0)
        assert_headline(delta_.after, reduced)
    diluted = np.vstack([0.7 * e, 0.3 * s])
    delta_ = hs.dilute(matrix, 0.3)
    nptest.assert_allclose(delta_.matrix_after.entries, diluted, rtol=1e-12, atol=0)
    assert_headline(delta_.after, diluted)


@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_summed_cells_match_numpy_unique(seed, size, cells):
    # np.unique and a bincount over its inverse are the reference, bit for
    # bit, on books of at most twice as many cells as values and of more; a
    # cell whose values are all zero is held as any other
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    keys = rng.integers(0, cells, size) * int(rng.integers(1, 5))
    values = rng.lognormal(size=size) * (rng.random(size) < 0.7)
    lines = int(keys.max()) // m + 1 + int(rng.integers(0, 3 * size // m + 2))
    unique, where = np.unique(keys, return_inverse=True)
    expected = (*np.divmod(unique, m), np.bincount(where, values), where)
    for got, want in zip(_summed_cells(keys, values, (lines, m)), expected):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_summed_cells_branches_agree_bit_for_bit(seed):
    # the same keys on a book of at most twice as many cells as values, which
    # marks every cell, and on one with more lines, which sorts the keys
    rng = np.random.default_rng(seed)
    size, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    count = int(rng.integers(-(-size * m // 2), 3 * size * m))
    keys = rng.integers(0, size * m, count)
    values = rng.random(count) * (rng.random(count) < 0.8)
    marked = _summed_cells(keys.copy(), values, (size, m))
    sorted_ = _summed_cells(keys.copy(), values, (2 * count + 1, m))
    for a, b in zip(marked, sorted_):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_full_lines_add_no_rounding_noise():
    # a product book has X = 0, and s.sum() minus the s_j of a full row is
    # rounding noise (2.2e-16 here) that must not reach the index or a
    # contribution: a row or column with no empty cell adds exactly zero
    rng = np.random.default_rng(3)
    report = hs.dependence_index(hs.normalize(np.outer(rng.random(90), rng.random(86))))
    assert report.index < 1e-28
    assert report.investor_contributions.max() < 1e-28
    assert report.stock_contributions.max() < 1e-28


def test_lazy_views_are_safe_to_build_from_many_threads():
    # threads race to build entries and marginals of fresh matrices; every
    # thread must see the same read-only values whichever build it got
    raw = sparse_active(np.random.default_rng(11), 40, 30, 0.2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            matrix = hs.normalize(raw)
            barrier = threading.Barrier(8, timeout=10)

            def read():
                barrier.wait()
                return matrix.entries, hs.marginals(matrix)

            with ThreadPoolExecutor(8) as pool:
                seen = [f.result(timeout=10) for f in [pool.submit(read) for _ in range(8)]]
            for entries, marg in seen:
                assert not entries.flags.writeable
                nptest.assert_array_equal(entries, raw / raw[raw != 0].sum())
                nptest.assert_array_equal(marg.p, seen[0][1].p)
                nptest.assert_array_equal(marg.s, seen[0][1].s)
    finally:
        sys.setswitchinterval(switch)


INVESTORS = ("q", "b", "z", "a", "m")
STOCKS = ("y", "c", "x")
lot_amounts = st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, 3.5, 1e-300, 7e5]) | st.floats(0.0, 1e6)


@st.composite
def lot_files(draw):
    """Lots in file order; some labels hold only zero lots, and a third of the files name one stock."""
    stocks = STOCKS[: draw(st.integers(1, len(STOCKS)))]
    return draw(st.lists(
        st.tuples(st.sampled_from(INVESTORS), st.sampled_from(stocks), lot_amounts),
        min_size=1,
        max_size=40,
    ))


@given(lot_files())
@example([("q", "y", 2.2250738585072014e-308), ("q", "c", 0.1), ("q", "c", 1.0)])
@settings(max_examples=150, deadline=None)
def test_ingest_builds_the_store_of_normalize(tmp_path_factory, lots):
    path = tmp_path_factory.mktemp("lots") / "lots.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["investor", "stock", "amount"])
        writer.writerows((inv, stk, repr(amount)) for inv, stk, amount in lots)
    investors = sorted({inv for inv, _, _ in lots})
    stocks = sorted({stk for _, stk, _ in lots})
    raw = np.zeros((len(investors), len(stocks)))
    for inv, stk, amount in lots:  # in file order
        raw[investors.index(inv), stocks.index(stk)] += amount
    if not raw.any():
        with pytest.raises(AllZeroMatrix):
            cli.ingest(path)
        return
    rows, cols = raw.sum(axis=1) > 0, raw.sum(axis=0) > 0
    try:
        expected = hs.normalize(
            raw[np.ix_(rows, cols)],
            [lab for lab, keep in zip(investors, rows) if keep],
            [lab for lab, keep in zip(stocks, cols) if keep],
        )
    except ParseError as exc:  # a share underflows, and ingest refuses the book alike
        with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
            cli.ingest(path)
        return
    matrix = cli.ingest(path)
    assert matrix.investor_labels == expected.investor_labels
    assert matrix.stock_labels == expected.stock_labels
    for got, want in zip(held_cells(matrix), held_cells(expected)):
        assert got.dtype == want.dtype
        nptest.assert_array_equal(got, want)
    nptest.assert_array_equal(matrix.entries, expected.entries)


def one_percent_book():
    """Raw holdings, 3000 x 2000 at about 1% density, every row and column held."""
    n, m = 3000, 2000
    rng = np.random.default_rng(7)
    raw = np.zeros(n * m)
    raw[rng.integers(0, n * m, n * m // 100)] = 1.0
    raw = raw.reshape(n, m)
    raw[np.arange(n), rng.integers(0, m, n)] = 1.0
    raw[rng.integers(0, n, m), np.arange(m)] = 1.0
    raw *= rng.random((n, m)) + 1e-3
    return raw


def write_lots(path, matrix, lots_per_cell, short_every=0):
    """The book's held cells as a plain holdings CSV, each cell split into equal lots.

    With ``short_every`` k, a sign column makes every k-th held cell short.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["investor", "stock", "amount"] + ["sign"] * bool(short_every))
        for k, (i, j, value) in enumerate(zip(*(a.tolist() for a in held_cells(matrix)))):
            sign = ["+-"[k % short_every == 0]] if short_every else []
            writer.writerows([[f"I{i}", f"S{j}", f"{value * 0.25e9:.6g}", *sign]] * lots_per_cell)


def test_held_cell_paths_allocate_no_dense_temporaries(tmp_path):
    # 3000 x 2000 at about 1% density; each call may use a quarter of one
    # dense float64 array at most
    raw = one_percent_book()
    n, m = raw.shape
    budget = n * m * 8 // 4
    groups = hs.Partition(tuple(tuple(range(g, n, 50)) for g in range(50)))
    calls = [
        (hs.normalize, raw),
        (hs.dependence_index,),
        (hs.micro_decomposition,),
        (hs.marginals,),
        (hs.concentration_summary,),
        (hs.headline,),
        (hs.merge_investors, 0, 1),
        (hs.remove_stock, 0),
        (hs.dilute, 0.25),
        (hs.aggregate, groups),
        (hs.renyi_summary, 3.0),
    ]
    for operation, *args in calls:
        matrix = hs.normalize(raw)  # fresh, so nothing is cached yet
        args = args if operation is hs.normalize else [matrix, *args]
        peak = peak_bytes(operation, *args)
        assert peak < budget, f"{operation.__name__} peaked at {peak / 1e6:.1f} MB"

    padded = hs.normalize(np.pad(raw, ((0, 1), (0, 1))))
    del raw
    peak = peak_bytes(hs.restrict_active, padded)
    assert peak < budget, f"restrict_active peaked at {peak / 1e6:.1f} MB"

    # the same book as a lots file, each cell split in two (129k lots, 2.5 MB);
    # a plain CSV is scanned with no Python object per field. Each file is
    # read (``_read_book``), never served from a book kept before
    path = tmp_path / "lots.csv"
    write_lots(path, matrix, 2)
    peak = peak_bytes(cli._read_book, path, "csv", False)
    assert peak < 2 * budget, f"ingest peaked at {peak / 1e6:.1f} MB"

    # and as a signed lots file, every fifth cell short: a signed book holds
    # its cells as the unsigned one does, and its index sums over them
    write_lots(path, matrix, 2, short_every=5)
    peak = peak_bytes(cli._read_book, path, "csv", True)
    assert peak < 2 * budget, f"signed ingest peaked at {peak / 1e6:.1f} MB"
    peak = peak_bytes(hs.signed_dependence, cli._read_book(path, "csv", True))
    assert peak < budget, f"signed_dependence peaked at {peak / 1e6:.1f} MB"


#: Peak bytes that each operation may allocate per held cell of a fresh
#: one-percent book (64,627 cells), the book itself aside: the tracemalloc
#: peaks when these were set (34, 60, 61, 61 and 66 bytes) plus 20%. Before
#: the operations kept their terms in one scratch array and books took their
#: fresh arrays without a copy, the peaks were 49, 108, 103, 77 and 102 bytes.
CELL_BUDGETS = {
    "dependence_index": 41,
    "merge_investors": 72,
    "remove_stock": 73,
    "dilute": 74,
    "aggregate": 80,
}


def test_held_cell_operations_stay_within_their_per_cell_budgets():
    raw = one_percent_book()
    n = raw.shape[0]
    groups = hs.Partition(tuple(tuple(range(g, n, 50)) for g in range(50)))
    calls = [
        (hs.dependence_index,),
        (hs.merge_investors, 0, 1),
        (hs.remove_stock, 0),
        (hs.dilute, 0.25),
        (hs.aggregate, groups),
    ]
    for operation, *args in calls:
        matrix = hs.normalize(raw)  # fresh, so nothing is cached yet
        per_cell = peak_bytes(operation, matrix, *args) / held_cells(matrix)[0].size
        budget = CELL_BUDGETS[operation.__name__]
        assert per_cell <= budget, f"{operation.__name__}: {per_cell:.1f} bytes per held cell"


def test_ingest_stays_within_its_per_lot_budget(tmp_path, monkeypatch):
    # the one-percent book, four lots a cell: 258,508 lots in 4.9 MB, whose
    # five reads two workers share. The peak was 32.2 bytes a lot when this
    # budget was set (plus 25%), and 53.2 with intp codes and a sorted copy
    # of the keys
    use_workers(monkeypatch, 2)
    matrix = hs.normalize(one_percent_book())
    path = tmp_path / "lots.csv"
    write_lots(path, matrix, 4)
    lots = 4 * held_cells(matrix)[0].size
    del matrix
    assert path.stat().st_size > 4 * cli._BLOCK
    per_lot = peak_bytes(cli._read_book, path, "csv", False) / lots
    assert per_lot <= 40, f"ingest: {per_lot:.1f} bytes per lot"


@pytest.mark.parametrize("n, m", [(250, 300), (300, 250)])
def test_ingest_forms_keys_wider_than_the_codes(tmp_path, n, m):
    # up to 256 labels are coded in uint8, up to 65,536 in uint16; the cell
    # key i * m + j runs past 2**16 here, so it must not be formed in either
    rng = np.random.default_rng(n)
    raw = sparse_active(rng, n, m, 0.05)
    investors = [f"i{k:03d}" for k in range(n)]
    stocks = [f"s{k:03d}" for k in range(m)]
    rows, cols = np.nonzero(raw)
    lots = rng.permutation(rows.size)  # in no order of cells
    path = tmp_path / "book.csv"
    path.write_text("investor,stock,amount\n" + "".join(
        f"{investors[i]},{stocks[j]},{amount!r}\n"
        for i, j, amount in zip(rows[lots].tolist(), cols[lots].tolist(), raw[rows, cols][lots].tolist())
    ), encoding="utf-8")
    coded, _ = cli._scan_csv(path)
    assert (coded[1].dtype, coded[3].dtype) == (np.dtype(np.uint8 if n <= 256 else np.uint16),
                                                np.dtype(np.uint8 if m <= 256 else np.uint16))
    expected = hs.normalize(raw, investors, stocks)
    with mock.patch.object(cli, "_scan_csv", return_value=None):
        by_records = cli._read_book(path, "csv", False)
    for matrix in (cli._read_book(path, "csv", False), by_records):
        assert (matrix.investor_labels, matrix.stock_labels) == (tuple(investors), tuple(stocks))
        for got, want in zip(held_cells(matrix), held_cells(expected)):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def test_books_keep_their_cells_from_the_caller(golden_csv):
    given = sparse_active(np.random.default_rng(2), 6, 5, 0.5)
    shares = given / given.sum()
    books = [hs.OwnershipMatrix(shares), hs.normalize(given)]
    kept = [[array.copy() for array in held_cells(book)] for book in books]
    shares[:] = 7.0
    given[:] = 7.0
    for book, cells in zip(books, kept):
        for got, want in zip(held_cells(book), cells):
            nptest.assert_array_equal(got, want)
    # a view handed to the store is copied, and what it views stays writable
    values = np.array([0.25, 0.75, 9.0])
    book = hs.OwnershipMatrix._from_cells((1, 2), np.zeros(2, np.intp), np.arange(2), values[:2])
    values[0] = 0.5
    assert values.flags.writeable
    nptest.assert_array_equal(held_cells(book)[2], [0.25, 0.75])

    matrix = cli.ingest(golden_csv)
    with mock.patch.object(cli, "_scan_csv", return_value=None):
        by_records = cli._read_book(golden_csv, "csv", False)
    padded = hs.OwnershipMatrix(np.pad(shares / shares.sum(), ((0, 1), (0, 1))))
    books += [
        matrix,
        by_records,
        padded,
        hs.restrict_active(padded),
        hs.merge_investors(matrix, 0, 2).matrix_after,
        hs.remove_stock(matrix, 0).matrix_after,
        hs.dilute(matrix, 0.5).matrix_after,
        hs.aggregate(matrix, hs.Partition(((0, 2), (1,)))).merged,
    ]
    for book in books:
        assert not any(array.flags.writeable for array in held_cells(book))


def test_spectrum_and_dynamics_apply_the_book_through_held_cells_and_the_residual():
    # 600 x 400 at about 3% density. whiten forms K for the svd and checks L
    # through the held cells: 1.09 dense arrays under tracemalloc, which still
    # does not see LAPACK's copy of K (1.24 when it kept K, 2.16 when it also
    # held a dense L, 5.03 when K was divided out of the dense book). It keeps
    # the cells, not K: it leaves 0.10 dense arrays allocated, with the book's
    # other memos (1.10 when it kept K); with the spectrum built, each dynamic
    # reads the held cells and
    # applies L to vectors (0.02, 3.00 and 1.00 dense arrays when they read
    # the dense book)
    rng = np.random.default_rng(5)
    matrix = hs.normalize(sparse_active(rng, 600, 400, 0.03))
    dense = matrix.n * matrix.m * 8
    tracemalloc.start()
    try:
        hs.whiten(matrix)  # kept on the book
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dense, f"whiten peaked at {peak / dense:.2f} dense arrays"
    assert kept < dense / 4, f"whiten left {kept / dense:.2f} dense arrays allocated"
    delta, returns = rng.standard_normal(matrix.n), rng.standard_normal(matrix.m)
    calls = [
        partial(hs.fire_sale, matrix, delta),
        partial(hs.active_variance, matrix, returns, project=True, dispersion=0.02),
        partial(hs.isotropic_capacity, matrix, 0.02),
    ]
    for call in calls:
        peak = peak_bytes(call)
        assert peak < dense / 4, f"{call.func.__name__} peaked at {peak / dense:.2f} dense arrays"

    # the dense book's forms are the oracle; K and L keep every bit
    e, marg = matrix.entries, hs.marginals(matrix)
    p, s = marg.p, marg.s
    mode = np.outer(np.sqrt(p), np.sqrt(s))
    nptest.assert_array_equal(hs.whiten(matrix).whitened, e / mode)
    nptest.assert_array_equal(hs.whiten(matrix).residual, e / mode - mode)
    pressure = hs.fire_sale(matrix, delta).pressure
    nptest.assert_allclose(pressure, e.T @ delta, rtol=1e-12, atol=1e-15)
    alpha = (e / p[:, None] - s) @ (returns - s @ returns)
    nptest.assert_allclose(hs.active_variance(matrix, returns, project=True).alpha, alpha,
                           rtol=1e-12, atol=1e-12)


def test_results_keep_a_fresh_float_array_and_copy_anything_else():
    fresh = np.array([0.5, 0.25])
    result = hs.ActiveVarianceResult(alpha=fresh, variance=0.0, worst_case_bound=0.0)
    assert result.alpha is fresh and not fresh.flags.writeable
    backing = np.array([0.5, 0.25, 0.25])
    for given in (backing[:2], [0.5, 0.25], np.array([1, 2])):
        result = hs.ActiveVarianceResult(alpha=given, variance=0.0, worst_case_bound=0.0)
        assert result.alpha is not given and result.alpha.dtype == float
        assert not result.alpha.flags.writeable
        nptest.assert_array_equal(result.alpha, given)
    assert backing.flags.writeable

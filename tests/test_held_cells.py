"""Dependence and micro decomposition summed over held cells only.

Empty cells enter both operations in closed form, so these tests draw
books with empty cells and compare against dense numpy oracles that visit
every cell, and check that no n-by-m temporary is allocated.
"""

import tracemalloc

import numpy as np
import numpy.testing as nptest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan.core import held_cells


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


def test_full_lines_add_no_rounding_noise():
    # a product book has X = 0, and s.sum() minus the s_j of a full row is
    # rounding noise (2.2e-16 here) that must not reach the index or a
    # contribution: a row or column with no empty cell adds exactly zero
    rng = np.random.default_rng(3)
    report = hs.dependence_index(hs.normalize(np.outer(rng.random(90), rng.random(86))))
    assert report.index < 1e-28
    assert report.investor_contributions.max() < 1e-28
    assert report.stock_contributions.max() < 1e-28


def test_held_cell_paths_allocate_no_dense_temporaries():
    # 3000 x 2000 at about 1% density; each call may use a quarter of one
    # dense float64 array at most
    n, m = 3000, 2000
    rng = np.random.default_rng(7)
    raw = np.zeros(n * m)
    raw[rng.integers(0, n * m, n * m // 100)] = 1.0
    raw = raw.reshape(n, m)
    raw[np.arange(n), rng.integers(0, m, n)] = 1.0
    raw[rng.integers(0, n, m), np.arange(m)] = 1.0
    raw *= rng.random((n, m)) + 1e-3
    matrix = hs.normalize(raw)
    del raw
    budget = n * m * 8 // 4
    for operation in (hs.dependence_index, hs.micro_decomposition):
        tracemalloc.start()
        try:
            operation(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"{operation.__name__} peaked at {peak / 1e6:.1f} MB"

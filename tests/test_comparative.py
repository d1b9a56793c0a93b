import dataclasses
import re

import numpy as np
import numpy.testing as nptest
import pytest

import holdscan as hs
from holdscan.core import held_cells
from holdscan.errors import (
    IndexOutOfRange, InternalConsistencyError, OutOfRange, RemovingEverything,
)

from conftest import random_active, small_holder_book


def test_merge_golden_first_pair(golden):
    delta = hs.merge_investors(golden, 0, 1)
    assert delta.after.investor_herfindahl - delta.before.investor_herfindahl == (
        pytest.approx(2 * 0.4 * 0.3, abs=1e-12)
    )
    assert delta.after.micro - delta.before.micro == pytest.approx(
        2 * (0.30 * 0.05 + 0.10 * 0.25), abs=1e-12
    )
    assert delta.after.stock_herfindahl == delta.before.stock_herfindahl
    # direct recomputation from the merged matrix agrees with every prediction
    recomputed = hs.headline(delta.matrix_after)
    assert recomputed.micro == pytest.approx(delta.predicted_after.micro, abs=1e-9)
    assert recomputed.dependence == pytest.approx(delta.predicted_after.dependence, abs=1e-9)
    assert delta.matrix_after.investor_labels == ("inv1+inv2", "inv3")


def test_merge_disjoint_supports_keeps_micro():
    matrix = hs.OwnershipMatrix(np.array([[0.5, 0.0], [0.0, 0.3], [0.1, 0.1]]))
    delta = hs.merge_investors(matrix, 0, 1)
    assert delta.after.micro == pytest.approx(delta.before.micro, abs=1e-15)


def test_merge_identical_profiles_keeps_dependence():
    matrix = hs.OwnershipMatrix(np.array([[0.3, 0.1], [0.45, 0.15]]))
    delta = hs.merge_investors(matrix, 0, 1)
    assert delta.after.dependence == pytest.approx(delta.before.dependence, abs=1e-12)


def test_merge_monotonicity_random():
    rng = np.random.default_rng(41)
    for _ in range(40):
        matrix = random_active(rng, int(rng.integers(2, 9)), int(rng.integers(2, 7)))
        a, b = (int(x) for x in rng.choice(matrix.n, size=2, replace=False))
        delta = hs.merge_investors(matrix, a, b)
        assert delta.after.investor_herfindahl >= delta.before.investor_herfindahl - 1e-12
        assert delta.after.micro >= delta.before.micro - 1e-12
        assert delta.after.dependence <= delta.before.dependence + 1e-12


def merged_cells_by_sorting(matrix, a, b):
    """Oracle: the merged book's held cells as merging first summed them, by sorting every cell key.

    Row hi joins row lo and the rows below it move up one; each cell then adds
    its values in row-major order, so lo's value comes before hi's.
    """
    rows, cols, values = held_cells(matrix)
    lo, hi = min(a, b), max(a, b)
    keys = rows.astype(np.int64)
    keys[keys == hi] = lo
    keys[keys > hi] -= 1
    cells, where = np.unique(keys * matrix.m + cols, return_inverse=True)
    return (*np.divmod(cells, matrix.m), np.bincount(where, values, minlength=cells.size))


def merge_book(seed):
    """A seeded 12 x 9 book at about 30% density whose rows 2-10 hold set supports.

    Rows 2 and 3 hold disjoint supports, rows 5 and 6 one support, rows 8
    and 9 one cell each in one stock, and row 10 one cell in another.
    """
    rng = np.random.default_rng(seed)
    raw = rng.random((12, 9)) * (rng.random((12, 9)) < 0.3)
    raw[2:11] = 0.0
    raw[2, :4], raw[3, 4:] = rng.random(4), rng.random(5)
    raw[5, ::2], raw[6, ::2] = rng.random(5), rng.random(5)
    raw[8, 1], raw[9, 1], raw[10, 7] = rng.random(3)
    raw[0, raw.sum(axis=0) == 0] = rng.random()  # every stock held
    raw[raw.sum(axis=1) == 0, 0] = rng.random()  # every investor holds
    return hs.normalize(raw)


# adjacent rows either way round, the first and the last row, disjoint and
# identical supports, one-cell rows in one stock and in two
MERGE_PAIRS = [(3, 4), (4, 3), (0, 11), (11, 0), (2, 3), (5, 6), (8, 9), (10, 8), (7, 1)]


@pytest.mark.parametrize("seed", range(5))
def test_merge_cells_match_the_sorting_route_bit_for_bit(seed):
    matrix = merge_book(seed)
    for a, b in MERGE_PAIRS:
        got = held_cells(hs.merge_investors(matrix, a, b).matrix_after)
        want = merged_cells_by_sorting(matrix, a, b)
        assert [x.tolist() for x in got[:2]] == [x.tolist() for x in want[:2]], (a, b)
        assert got[2].tobytes() == want[2].tobytes(), (a, b)


def test_merge_label_collision_disambiguated():
    matrix = hs.OwnershipMatrix(
        np.array([[0.3, 0.1], [0.2, 0.2], [0.1, 0.1]]), ["a", "b", "a+b"]
    )
    delta = hs.merge_investors(matrix, 0, 1)
    assert delta.matrix_after.investor_labels == ("a+b*", "a+b")


def test_remove_stock_golden(golden):
    delta = hs.remove_stock(golden, 1)
    nptest.assert_allclose(delta.matrix_after.entries[:, 0], [0.6, 0.1, 0.3], atol=1e-12)
    # closed form against the direct recomputation
    assert delta.predicted_after.micro == pytest.approx(0.46, abs=1e-12)
    assert delta.after.micro == pytest.approx(0.46, abs=1e-12)
    assert delta.matrix_after.stock_labels == ("stk1",)
    assert delta.dropped_investors == ()


def test_remove_zero_mass_stock_changes_nothing():
    matrix = hs.OwnershipMatrix(np.array([[0.5, 0.0, 0.2], [0.2, 0.0, 0.1]]))
    delta = hs.remove_stock(matrix, 1)
    assert delta.after.micro == pytest.approx(delta.before.micro, abs=1e-15)
    nptest.assert_array_equal(delta.matrix_after.entries, matrix.entries[:, [0, 2]])


def test_remove_stock_small_mass_expansion():
    # attach a tiny stock and compare against the first-order expansion
    rng = np.random.default_rng(13)
    eps = 1e-4
    base = random_active(rng, 4, 3)
    raw = np.hstack([base.entries * (1 - eps), eps * hs.marginals(base).p[:, None]])
    matrix = hs.OwnershipMatrix(raw)
    micro_before = hs.micro_concentration(matrix)
    delta = hs.remove_stock(matrix, 3)
    expansion = micro_before * (1.0 + 2.0 * eps)
    assert abs(delta.after.micro - expansion) <= 1e-6


def test_remove_stock_drops_empty_investors():
    matrix = hs.OwnershipMatrix(
        np.array([[0.5, 0.0], [0.0, 0.3], [0.1, 0.1]]), ["solo", "gone", "both"]
    )
    delta = hs.remove_stock(matrix, 1)
    assert delta.dropped_investors == ("gone",)
    assert delta.matrix_after.investor_labels == ("solo", "both")


@pytest.mark.parametrize("stock", [-1, 2])
def test_remove_stock_index_out_of_range(golden, stock):
    with pytest.raises(IndexOutOfRange, match=rf"^stock index {stock} outside 0\.\.1$"):
        hs.remove_stock(golden, stock)


@pytest.mark.parametrize("stock", [0.9, 1.0, np.float64(0.0), "1", None], ids=repr)
def test_remove_stock_rejects_a_non_integer_index(golden, stock):
    # int() once truncated 0.9 to stock 0
    message = f"^stock index must be an integer, got {re.escape(repr(stock))}$"
    with pytest.raises(IndexOutOfRange, match=message):
        hs.remove_stock(golden, stock)


def test_remove_stock_accepts_a_numpy_integer(golden):
    assert hs.remove_stock(golden, np.int64(1)).after == hs.remove_stock(golden, 1).after


def test_remove_stock_keeps_a_small_holder_with_a_cell_left():
    # b holds 1e-10 of each stock; it was dropped once its mass after the drop
    # fell below TOL_NORM, though it still held s1
    matrix = hs.normalize(np.array([[1.0, 1.0], [1e-10, 1e-10], [1.0, 0.0]]), ["a", "b", "c"])
    delta = hs.remove_stock(matrix, 1)
    assert delta.dropped_investors == ()
    assert delta.matrix_after.investor_labels == ("a", "b", "c")
    expected = np.array([1.0, 1e-10, 1.0]) / (2 + 1e-10)
    nptest.assert_allclose(delta.matrix_after.entries[:, 0], expected, rtol=1e-15)
    assert delta.after.dependence == 0.0


def test_remove_stock_keeps_every_small_holder_of_a_seeded_book():
    # 30 of 3000 investors hold under 1e-10 each; every drop once lost all of
    # them and failed the sum check of the book it built
    raw = small_holder_book(np.random.default_rng(36))
    matrix = hs.normalize(raw)
    for j in range(matrix.m):
        delta = hs.remove_stock(matrix, j)
        only_j = np.flatnonzero(np.count_nonzero(np.delete(raw, j, axis=1), axis=1) == 0)
        assert delta.dropped_investors == tuple(matrix.investor_labels[i] for i in only_j)
        assert delta.matrix_after.n == matrix.n - only_j.size


def test_remove_everything_rejected():
    matrix = hs.OwnershipMatrix(np.array([[0.4], [0.6]]))
    with pytest.raises(RemovingEverything):
        hs.remove_stock(matrix, 0)


def test_remove_stock_divides_by_the_rest_of_the_book():
    # the book sums to 1 + 6.04e-10, inside TOL_NORM, and the dropped stock
    # holds nearly all of it: divided by 1 - s_j, the rest would sum to
    # 1 + 1.07e-7 and fail normalization
    rest = 0.005632
    matrix = hs.OwnershipMatrix(np.array([[1.0 + 6.04e-10 - rest, rest]]))
    delta = hs.remove_stock(matrix, 0)
    assert delta.matrix_after.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert delta.after.micro == pytest.approx(1.0, abs=1e-12)
    # the closed form subtracts two nearly equal terms before dividing by the rest
    assert delta.predicted_after.micro == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("rest", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("book", ["one-investor", "drops-an-investor"])
def test_remove_stock_holding_nearly_all_the_mass(book, rest):
    # the closed forms for M and H_I subtract terms near one and divide by
    # rest**2; at the parent these raised InternalConsistencyError, and
    # NotNormalized at 1e-8, where the rest's mass was a cancelling difference
    raw = [[1.0 - rest, rest]] if book == "one-investor" else [[0.5, 0.0], [0.5 - rest, rest]]
    delta = hs.remove_stock(hs.OwnershipMatrix(np.array(raw)), 0)
    assert delta.matrix_after.entries.tolist() == [[1.0]]
    assert delta.dropped_investors == (() if book == "one-investor" else ("I1",))
    assert delta.after.micro == delta.after.investor_herfindahl == 1.0


def test_remove_stock_law_checks_stay_tight_on_ordinary_books():
    # dropping a small stock leaves the slack of every law near core._EXACT_TOL
    delta = hs.remove_stock(hs.OwnershipMatrix(np.array([[0.5, 0.3, 0.01], [0.1, 0.09, 0.0]])), 2)
    for law in ("investor_herfindahl", "micro"):
        predicted = getattr(delta.predicted_after, law)
        off = dataclasses.replace(delta.predicted_after, **{law: predicted + 1e-8})
        with pytest.raises(InternalConsistencyError):
            dataclasses.replace(delta, predicted_after=off)

def test_dilute_golden(golden):
    delta = hs.dilute(golden, 0.5)
    assert delta.after.dependence == pytest.approx(7.0 / 60.0, abs=1e-9)
    assert delta.after.stock_herfindahl == pytest.approx(0.50, abs=1e-12)
    assert delta.after.micro == pytest.approx(0.25 * 0.21 + 0.25 * 0.50, abs=1e-12)
    assert delta.matrix_after.n == 4
    assert delta.matrix_after.investor_labels[-1] == "MARKET(0.5)"
    # explicit reconstruction oracle
    marg = hs.marginals(golden)
    rebuilt = np.vstack([0.5 * golden.entries, 0.5 * marg.s])
    recomputed = hs.headline(hs.OwnershipMatrix(rebuilt))
    assert recomputed.dependence == pytest.approx(delta.after.dependence, abs=1e-12)
    assert recomputed.investor_herfindahl == pytest.approx(
        delta.predicted_after.investor_herfindahl, abs=1e-9
    )


def test_dilute_tiny_mass_is_continuous(golden):
    before = hs.headline(golden)
    delta = hs.dilute(golden, 1e-6)
    assert delta.after.investor_herfindahl == pytest.approx(
        before.investor_herfindahl, abs=1e-5
    )
    assert delta.after.micro == pytest.approx(before.micro, abs=1e-5)
    assert delta.after.dependence == pytest.approx(before.dependence, abs=1e-5)


def test_dilute_product_stays_product():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([0.6, 0.4])
    matrix = hs.OwnershipMatrix(np.outer(p, s))
    delta = hs.dilute(matrix, 0.25)
    assert delta.after.dependence == pytest.approx(0.0, abs=1e-12)


def test_dilute_linearity_random():
    rng = np.random.default_rng(19)
    for _ in range(25):
        matrix = random_active(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        before = hs.dependence_index(matrix).index
        if before <= 1e-6:
            continue
        weight = float(rng.uniform(0.05, 0.95))
        delta = hs.dilute(matrix, weight)
        assert delta.after.dependence / before == pytest.approx(1 - weight, abs=1e-9)


def test_dilute_range(golden):
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(OutOfRange):
            hs.dilute(golden, bad)


def test_nonid_family_product_point():
    matrix, micro, dep = hs.nonid_family(0.25)
    nptest.assert_allclose(matrix.entries, np.full((2, 2), 0.25), atol=1e-15)
    assert micro == 0.25
    assert dep == 0.0


def test_nonid_family_endpoint():
    matrix, micro, dep = hs.nonid_family(0.0)
    assert micro == pytest.approx(0.5, abs=1e-15)
    assert dep == pytest.approx(1.0, abs=1e-15)
    assert hs.micro_concentration(matrix) == pytest.approx(0.5, abs=1e-12)


def test_nonid_family_interior_point():
    matrix, micro, dep = hs.nonid_family(0.1)
    assert micro == pytest.approx(0.34, abs=1e-12)
    assert dep == pytest.approx(0.36, abs=1e-12)
    assert hs.micro_concentration(matrix) == pytest.approx(micro, abs=1e-12)
    assert hs.dependence_index(matrix).index == pytest.approx(dep, abs=1e-12)


def test_nonid_family_constant_marginals_varying_indices():
    micros = []
    deps = []
    for t in np.arange(0.0, 0.51, 0.1):
        matrix, micro, dep = hs.nonid_family(float(t))
        marg = hs.marginals(matrix)
        nptest.assert_allclose(marg.p, [0.5, 0.5], atol=1e-15)
        nptest.assert_allclose(marg.s, [0.5, 0.5], atol=1e-15)
        micros.append(micro)
        deps.append(dep)
    assert len(set(np.round(micros, 12))) > 1
    assert len(set(np.round(deps, 12))) > 1


def test_nonid_family_range():
    with pytest.raises(OutOfRange):
        hs.nonid_family(0.6)
    with pytest.raises(OutOfRange):
        hs.nonid_family(-0.01)


def test_operation_matrices_are_valid(golden):
    rng = np.random.default_rng(77)
    for _ in range(10):
        matrix = random_active(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        merge = hs.merge_investors(matrix, 0, 1)
        drop = hs.remove_stock(matrix, 0)
        dil = hs.dilute(matrix, 0.3)
        for out in (merge.matrix_after, drop.matrix_after, dil.matrix_after):
            assert abs(float(out.entries.sum()) - 1.0) <= hs.TOL_NORM
            assert np.all(out.entries >= 0)

import re
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import holdscan as hs
from holdscan.errors import (
    AllZeroMatrix,
    DimensionMismatch,
    DuplicateLabel,
    InvalidPartition,
    NegativeEntry,
    NonFiniteEntry,
    NotNormalized,
    ParseError,
)

from conftest import GOLDEN_RAW, profiles, random_active

positive_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(0.01, 1.0, allow_nan=False),
)


def test_normalize_golden(golden):
    nptest.assert_allclose(
        golden.entries, [[0.30, 0.10], [0.05, 0.25], [0.15, 0.15]], rtol=0, atol=1e-15
    )


def test_normalize_single_cell():
    assert hs.normalize([[1.0]]).entries[0, 0] == 1.0


def test_normalize_uniform():
    nptest.assert_array_equal(hs.normalize([[2, 2], [2, 2]]).entries, np.full((2, 2), 0.25))


def test_normalize_book_whose_total_overflows():
    # every amount is finite, but their sum is not: the shares are those of
    # the same book in smaller units, bit for bit, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        book = hs.normalize([[1e308, 0], [0, 1e308]])
        huge = hs.normalize(np.array(GOLDEN_RAW) * 2.0**1018)
    assert book.entries.tobytes() == hs.normalize([[1.0, 0], [0, 1.0]]).entries.tobytes()
    assert huge.entries.tobytes() == hs.normalize(GOLDEN_RAW).entries.tobytes()


@pytest.mark.parametrize("raw, share", [
    ([[1e300, 0.0], [0.0, 1e-20]], "1e-320"),  # subnormal
    ([[1e200, 1e-100], [1.0, 1e-200]], "1e-400"),  # zero
    ([[1e308, 0.0], [1e308, 0.0], [0.0, 1.0]], "5e-309"),  # subnormal of a total that overflows
    # a total that overflows, and a cell that its division by 2**1024 rounds to zero
    ([[1e308, 0.0], [1e308, 0.0], [0.0, 1e-20]], "5e-329"),
])
def test_normalize_refuses_a_share_that_underflows(raw, share):
    # the share of the last held cell is 0 or subnormal, so it has lost bits
    message = (f"investor 'I{len(raw)}' holds {share} of the total in stock 'S2', below the "
               "smallest normal share 2.22507e-308, which underflow would round or lose")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        hs.normalize(raw)
    # the smallest normal share is kept
    tiny = np.finfo(float).tiny
    book = hs.normalize([[1.0, tiny]])
    assert hs.marginals(book).s[1] == tiny


def test_signed_book_names_the_leg_whose_share_underflows():
    message = "investor 'h2' holds 1e-320 of the total in stock 's2 (short)'"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        hs.signed_from_raw([[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1e-20]],
                           ["h1", "h2"], ["s1", "s2"])
    message = "investor 'h2' holds 5e-329 of the total in stock 's2 (short)'"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        hs.signed_from_raw([[1e308, 1e308], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1e-20]],
                           ["h1", "h2"], ["s1", "s2"])


def test_normalize_rejects_all_zero():
    with pytest.raises(AllZeroMatrix):
        hs.normalize([[0.0, 0.0]])


def test_normalize_rejects_negative():
    with pytest.raises(NegativeEntry):
        hs.normalize([[1.0, -0.5]])


def test_normalize_rejects_label_mismatch():
    with pytest.raises(DimensionMismatch):
        hs.normalize([[1.0, 1.0]], investor_labels=["a", "b"])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        hs.normalize([[1.0], [1.0]], investor_labels=["x", "x"])


def test_matrix_requires_unit_mass():
    with pytest.raises(NotNormalized):
        hs.OwnershipMatrix(np.array([[0.5, 0.6]]))


def test_marginals_golden(golden):
    marg = hs.marginals(golden)
    nptest.assert_allclose(marg.p, [0.40, 0.30, 0.30], rtol=0, atol=1e-15)
    nptest.assert_allclose(marg.s, [0.50, 0.50], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "entries",
    [np.diag([0.5, 0.5]), np.full((2, 2), 0.25)],
)
def test_marginals_symmetric_cases(entries):
    marg = hs.marginals(hs.OwnershipMatrix(entries))
    nptest.assert_array_equal(marg.p, [0.5, 0.5])
    nptest.assert_array_equal(marg.s, [0.5, 0.5])


def test_profiles_golden(golden):
    rows, cols = profiles(golden)
    nptest.assert_allclose(rows[0], [0.75, 0.25], atol=1e-15)
    nptest.assert_allclose(rows[1], [1 / 6, 5 / 6], atol=1e-15)
    nptest.assert_allclose(rows[2], [0.5, 0.5], atol=1e-15)
    # owner shares of the first stock: divide the column by its mass 0.5
    nptest.assert_allclose(cols[:, 0], [0.6, 0.1, 0.3], atol=1e-15)


def test_profiles_of_product_benchmark_repeat_the_market():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([0.6, 0.4])
    rows, _ = profiles(hs.OwnershipMatrix(np.outer(p, s)))
    for row in rows:
        nptest.assert_allclose(row, s, atol=1e-15)


def test_restrict_active_drops_zero_row():
    matrix = hs.OwnershipMatrix(
        np.array([[0.5, 0.2], [0.0, 0.0], [0.1, 0.2]]), ["a", "b", "c"]
    )
    active = hs.restrict_active(matrix)
    assert active.investor_labels == ("a", "c")
    nptest.assert_array_equal(active.entries, [[0.5, 0.2], [0.1, 0.2]])


def test_restrict_active_noop_on_active(golden):
    assert hs.restrict_active(golden) is golden


def test_restrict_active_drops_row_and_column():
    matrix = hs.OwnershipMatrix(np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]))
    active = hs.restrict_active(matrix)
    assert active.shape == (1, 2)
    nptest.assert_array_equal(active.entries, [[0.5, 0.5]])
    assert abs(active.entries.sum() - 1.0) <= hs.TOL_NORM


@given(positive_matrices)
@settings(max_examples=60)
def test_normalize_idempotent(raw):
    first = hs.normalize(raw)
    again = hs.normalize(first.entries)
    nptest.assert_allclose(again.entries, first.entries, rtol=0, atol=hs.TOL_NORM)


@given(positive_matrices, st.floats(0.001, 1e6))
@settings(max_examples=60)
def test_normalize_scale_invariant(raw, scale):
    base = hs.normalize(raw)
    scaled = hs.normalize(raw * scale)
    nptest.assert_allclose(scaled.entries, base.entries, rtol=0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_profile_reconstruction(seed):
    rng = np.random.default_rng(seed)
    matrix = random_active(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    marg = hs.marginals(matrix)
    row_profiles, col_profiles = profiles(matrix)
    nptest.assert_allclose(marg.p[:, None] * row_profiles, matrix.entries, rtol=0, atol=1e-12)
    nptest.assert_allclose(marg.s[None, :] * col_profiles, matrix.entries, rtol=0, atol=1e-12)


def test_label_lookup(golden):
    assert golden.investor_index("inv2") == 1
    assert golden.stock_index("stk2") == 1
    with pytest.raises(hs.errors.LabelNotFound):
        golden.investor_index("nobody")
    with pytest.raises(hs.errors.LabelNotFound, match="^unknown stock label 'nope'$"):
        golden.stock_index("nope")


def test_entries_are_read_only(golden):
    with pytest.raises(ValueError):
        golden.entries[0, 0] = 0.5


def test_book_attributes_cannot_be_assigned_or_deleted(golden):
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'stock_labels'$"):
        golden.stock_labels = ("a", "b")
    with pytest.raises(FrozenInstanceError, match="^cannot delete field '_cells'$"):
        del golden._cells
    assert golden.stock_labels == ("stk1", "stk2")


def off_diagonal(golden, shift):
    """The golden matrix with ``shift`` moved around a 2 x 2 cycle: the same marginals."""
    return golden.entries + np.array([[shift, -shift], [-shift, shift], [0.0, 0.0]])


class NoIndex:
    """A member whose ``__index__`` raises ``TypeError``."""

    def __index__(self):
        raise TypeError("no index")

    def __repr__(self):
        return "NoIndex()"


#: (case, call on the golden book, error, message): checks of public input
#: that no other test reaches
INPUT_CHECK_CASES = [
    ("normalize-nan", lambda g: hs.normalize([[1.0, np.nan]]),
     NonFiniteEntry, "raw holdings must be finite"),
    ("normalize-1d", lambda g: hs.normalize([1.0, 2.0]),
     DimensionMismatch, "raw holdings must be a nonempty 2-d array, got shape (2,)"),
    ("herfindahl-2d", lambda g: hs.herfindahl([[0.5, 0.5]]),
     DimensionMismatch, "weights must be a nonempty 1-d vector"),
    ("herfindahl-nan", lambda g: hs.herfindahl([0.5, np.nan]),
     NonFiniteEntry, "weights must be finite"),
    ("chi2-lengths", lambda g: hs.chi2_divergence([0.5, 0.5], [1.0]),
     DimensionMismatch, "length mismatch: 2 vs 1"),
    ("marginals-2d", lambda g: hs.Marginals([[0.5, 0.5]], [1.0]),
     DimensionMismatch, "p must be a nonempty 1-d vector"),
    ("marginals-sum", lambda g: hs.Marginals([0.6, 0.5], [1.0]),
     NotNormalized, "p sums to 1.1, expected 1 within 1e-09"),
    ("feasible-1d", lambda g: hs.is_feasible([0.5, 0.5], hs.marginals(g)),
     DimensionMismatch, "expected a 2-d matrix, got ndim=1"),
    ("feasible-nan", lambda g: hs.is_feasible(off_diagonal(g, np.nan), hs.marginals(g)),
     NonFiniteEntry, "matrix must be finite"),
    ("partition-negative", lambda g: hs.Partition(((0, -1), (2,))),
     InvalidPartition, "negative investor index"),
    ("partition-group-not-iterable", lambda g: hs.Partition(((0, 1), 2)),
     TypeError, "'int' object is not iterable"),
    # every group is read before any is checked
    ("partition-empty-group-then-one-not-iterable", lambda g: hs.Partition(((), 5)),
     TypeError, "'int' object is not iterable"),
    ("partition-index-raises-type-error", lambda g: hs.Partition(((0, NoIndex()), (1, 2))),
     InvalidPartition, "investor index must be an integer, got NoIndex()"),
    ("partition-numpy-bool", lambda g: hs.Partition(((np.bool_(True), 0), (2,))),
     InvalidPartition, f"investor index must be an integer, got {np.bool_(True)!r}"),
    ("aggregate-index-beyond-int64", lambda g: hs.aggregate(g, hs.Partition(((0, 1, 2**70), (2,)))),
     InvalidPartition, "investor index out of range for n=3"),
    ("fire-sale-nan", lambda g: hs.fire_sale(g, [0.1, np.nan, 0.0]),
     NonFiniteEntry, "shock must be finite"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [case[1:] for case in INPUT_CHECK_CASES],
    ids=[case[0] for case in INPUT_CHECK_CASES],
)
def test_public_input_checks(golden, call, error, message):
    with pytest.raises(error) as caught:
        call(golden)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_is_feasible_rejects_a_negative_entry(golden):
    marg = hs.marginals(golden)
    assert hs.is_feasible(off_diagonal(golden, 0.0), marg)
    assert not hs.is_feasible(off_diagonal(golden, 0.2), marg)  # -0.1 at (0, 1)


def test_each_quantity_is_derived_once_per_book(golden):
    from holdscan.errors import InternalConsistencyError

    twin = hs.normalize(GOLDEN_RAW)
    for derive in (lambda book: book.entries, hs.marginals, hs.micro_decomposition,
                   hs.dependence_index, hs.whiten):
        first = derive(golden)
        assert derive(golden) is first
        assert derive(twin) is not first  # an equal book builds its own
    assert hs.is_active(golden) is True
    assert hs.rho(golden) == hs.whiten(golden).rho
    # a call that raises keeps nothing, so it raises again
    # (the shares of 1e300 and 1e-20, which normalize refuses as underflowing)
    overflow = hs.OwnershipMatrix([[1.0, 0.0], [0.0, 1e-320]])
    for derive in (hs.dependence_index, hs.whiten):
        for _ in range(2):
            with pytest.raises(InternalConsistencyError, match="^dependence forms disagree"):
                derive(overflow)


def test_books_derived_from_a_checked_book_take_its_labels_as_given(golden):
    # every label of these books comes from a book that passed the check
    gap = hs.OwnershipMatrix(
        np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.25, 0.25, 0.0]]), ["a", "b", "c"],
        ["x", "y", "z"],
    )
    derived = {
        "merge": hs.merge_investors(golden, 2, 0).matrix_after,
        "drop-stock": hs.remove_stock(golden, 0).matrix_after,
        "dilute": hs.dilute(golden, 0.25).matrix_after,
        "aggregate": hs.aggregate(golden, hs.Partition(((0, 2), (1,)))).merged,
        "restrict_active": hs.restrict_active(gap),
    }
    assert {name: (book.investor_labels, book.stock_labels) for name, book in derived.items()} == {
        "merge": (("inv3+inv1", "inv2"), ("stk1", "stk2")),
        "drop-stock": (("inv1", "inv2", "inv3"), ("stk2",)),
        "dilute": (("inv1", "inv2", "inv3", "MARKET(0.25)"), ("stk1", "stk2")),
        "aggregate": (("inv1+inv3", "inv2"), ("stk1", "stk2")),
        "restrict_active": (("a", "c"), ("x", "y")),
    }


def test_public_constructors_still_check_labels(tmp_path, monkeypatch):
    entries = np.array([[0.5, 0.0], [0.25, 0.25]])
    for build in (hs.OwnershipMatrix, hs.normalize):
        with pytest.raises(DuplicateLabel, match="duplicate investor label 'a'"):
            build(entries, ["a", "a"])
        with pytest.raises(DimensionMismatch, match="expected 2 stock labels, got 3"):
            build(entries, None, ["x", "y", "z"])
    # a holdings file cannot give a book bad labels, so the reader's labels
    # are made bad on their way to the check: one duplicated, or one dropped
    path = tmp_path / "book.csv"
    path.write_text("investor,stock,amount\na,x,1\nb,x,1\nb,y,2\n", encoding="utf-8")
    check = hs.core._label_tuple
    for bad, error in (
        (lambda labels: [labels[0]] * len(labels), DuplicateLabel),
        (lambda labels: labels[:-1], DimensionMismatch),
    ):
        monkeypatch.setattr(hs.core, "_label_tuple",
                            lambda labels, count, side: check(bad(labels), count, side))
        with pytest.raises(error):
            hs.cli.ingest(path)

import math
from dataclasses import FrozenInstanceError

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan import core, dependence, extensions
from holdscan.errors import (
    AllZeroMatrix,
    AlphaNearOne,
    DimensionMismatch,
    InactiveGrossSupport,
    InternalConsistencyError,
    MarketNeutral,
    NegativeEntry,
    NotNormalized,
    OutOfRange,
)

from conftest import GOLDEN_RAW, assert_same_to_the_printed_digit, outcome, peak_bytes



def test_renyi_order_two_matches_quadratic_indices(golden):
    summary = hs.renyi_summary(golden, 2.0)
    marg = hs.marginals(golden)
    assert abs(summary.investor_power_sum - hs.herfindahl(marg.p)) <= 1e-12
    assert abs(summary.stock_power_sum - hs.herfindahl(marg.s)) <= 1e-12
    assert abs(summary.micro_power_sum - hs.micro_concentration(golden)) <= 1e-12
    assert summary.effective_stocks == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
def test_renyi_product_identity(alpha):
    rng = np.random.default_rng(23)
    for _ in range(20):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        p = rng.random(n) + 0.05
        p /= p.sum()
        s = rng.random(m) + 0.05
        s /= s.sum()
        summary = hs.renyi_summary(hs.OwnershipMatrix(np.outer(p, s)), alpha)
        product = summary.investor_power_sum * summary.stock_power_sum
        assert summary.micro_power_sum == pytest.approx(product, rel=1e-10)
        assert summary.effective_cells == pytest.approx(
            summary.effective_investors * summary.effective_stocks, rel=1e-9
        )


def test_renyi_uniform_third_order():
    summary = hs.renyi_summary(hs.OwnershipMatrix(np.full((2, 2), 0.25)), 3.0)
    assert summary.micro_power_sum == pytest.approx(0.0625, abs=1e-15)
    assert summary.effective_cells == pytest.approx(4.0, abs=1e-12)


def test_renyi_rejects_bad_orders(golden):
    with pytest.raises(AlphaNearOne):
        hs.renyi_summary(golden, 1.0000001)
    with pytest.raises(OutOfRange):
        hs.renyi_summary(golden, 0.0)
    with pytest.raises(OutOfRange):
        hs.renyi_summary(golden, 25.0)


def test_signed_all_long_proportional_book_scores_zero():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([0.6, 0.4])
    book = hs.signed_from_raw(np.outer(p, s), np.zeros((3, 2)))
    assert hs.signed_dependence(book) == pytest.approx(0.0, abs=1e-12)


def test_signed_two_form_agreement_example():
    plus = np.array([[0.4, 0.0], [0.0, 0.4]])
    minus = np.array([[0.0, 0.1], [0.1, 0.0]])
    book = hs.signed_from_raw(plus, minus)
    assert book.net_exposure == pytest.approx(0.6, abs=1e-12)
    # oracle: both closed forms evaluated longhand
    net = book.net
    bench = np.outer(book.net_investor_marginals, book.net_stock_marginals)
    bench /= book.net_exposure
    weights = np.outer(book.gross_investor_marginals, book.gross_stock_marginals)
    sum_form = float(np.sum((net - bench) ** 2 / weights))
    whitened = (net - bench) / np.sqrt(weights)
    frob_form = float(np.sum(whitened * whitened))
    assert abs(sum_form - frob_form) <= 1e-10
    assert hs.signed_dependence(book) == pytest.approx(sum_form, abs=1e-12)


def test_signed_small_net_exposure_matches_fsum_oracle():
    # eta = -1/2001 puts X near 4e6, where the two forms differ by rounding
    # about 1e-9 apart: more than an absolute 1e-10, far below its relative size
    plus = np.array([[1000.0, 0.0], [0.0, 0.0]])
    minus = np.array([[0.0, 1.0], [1.0, 999.0]])
    book = hs.signed_from_raw(plus, minus)
    net, gross = book.net.tolist(), (book.plus + book.minus).tolist()
    eta = math.fsum(map(math.fsum, net))
    net_p, net_s = [math.fsum(row) for row in net], [math.fsum(col) for col in zip(*net)]
    gross_p, gross_s = [math.fsum(row) for row in gross], [math.fsum(col) for col in zip(*gross)]
    oracle = math.fsum(
        (net[i][j] - net_p[i] * net_s[j] / eta) ** 2 / (gross_p[i] * gross_s[j])
        for i in range(2)
        for j in range(2)
    )
    assert eta == pytest.approx(-1 / 2001, rel=1e-12)
    assert oracle > 3e6
    assert hs.signed_dependence(book) == pytest.approx(oracle, rel=1e-9)


def test_signed_gross_scale_invariance():
    rng = np.random.default_rng(27)
    plus = rng.random((3, 3))
    minus = rng.random((3, 3))
    minus[plus >= minus] = 0.0
    plus[(plus > 0) & (minus > 0)] = 0.0
    base = hs.signed_dependence(hs.signed_from_raw(plus, minus))
    for scale in (3.7, 1e-3, 2.0):
        scaled = hs.signed_dependence(hs.signed_from_raw(scale * plus, scale * minus))
        assert scaled == pytest.approx(base, abs=1e-12)


def test_signed_benchmark_shares_net_marginals():
    rng = np.random.default_rng(29)
    plus = rng.random((4, 3)) + 0.2
    minus = np.zeros((4, 3))
    minus[0, 0] = plus[0, 0]
    plus[0, 0] = 0.0
    book = hs.signed_from_raw(plus, minus)
    bench = np.outer(book.net_investor_marginals, book.net_stock_marginals)
    bench /= book.net_exposure
    nptest.assert_allclose(bench.sum(axis=1), book.net_investor_marginals, atol=1e-10)
    nptest.assert_allclose(bench.sum(axis=0), book.net_stock_marginals, atol=1e-10)


def test_signed_market_neutral_rejected():
    plus = np.array([[0.25, 0.0], [0.0, 0.25]])
    minus = np.array([[0.0, 0.25], [0.25, 0.0]])
    with pytest.raises(MarketNeutral):
        hs.signed_dependence(hs.signed_from_raw(plus, minus))


def test_signed_inactive_gross_support_rejected():
    plus = np.array([[0.5, 0.5], [0.0, 0.0]])
    minus = np.zeros((2, 2))
    with pytest.raises(InactiveGrossSupport):
        hs.signed_dependence(hs.signed_from_raw(plus, minus))


def test_signed_complementarity_enforced():
    plus = np.array([[0.5, 0.25]])
    minus = np.array([[0.25, 0.0]])
    with pytest.raises(NegativeEntry):
        hs.signed_from_raw(plus, minus)


#: (case, call, error, message): the shape and mass checks of a signed book
SIGNED_CHECK_CASES = [
    ("raw-shapes", lambda: hs.signed_from_raw(np.ones((2, 2)), np.ones((2, 3))),
     DimensionMismatch, "legs must share a shape, got (2, 2) and (2, 3)"),
    ("raw-all-zero", lambda: hs.signed_from_raw(np.zeros((2, 2)), np.zeros((2, 2))),
     AllZeroMatrix, "gross exposure is zero"),
    ("book-shapes", lambda: hs.SignedOwnership(np.full((2, 2), 0.125), np.full((3, 2), 0.125)),
     DimensionMismatch, "legs must be equal-shape 2-d arrays, got (2, 2) and (3, 2)"),
    ("book-gross-total", lambda: hs.SignedOwnership([[0.5, 0.0]], [[0.0, 0.3]]),
     NotNormalized, "gross exposure sums to 0.8, expected 1 within 1e-09"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [case[1:] for case in SIGNED_CHECK_CASES],
    ids=[case[0] for case in SIGNED_CHECK_CASES],
)
def test_signed_input_checks(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_signed_legs_whose_gross_total_overflows():
    # every exposure is finite, their total is not: the shares are those of
    # the same legs in smaller units, bit for bit
    plus = np.array([[1.5, 0.0], [0.0, 1.0]])
    minus = np.array([[0.0, 1.25], [0.5, 0.0]])
    huge = hs.signed_from_raw(plus * 2.0**1023, minus * 2.0**1023)
    small = hs.signed_from_raw(plus * 2.0**23, minus * 2.0**23)
    assert huge.plus.tobytes() == small.plus.tobytes()
    assert huge.minus.tobytes() == small.minus.tobytes()
    assert huge.net_exposure == small.net_exposure == pytest.approx(0.75 / 4.25, rel=1e-15)


def test_signed_reduces_to_net_matrix_when_all_long():
    # an all-long book's signed index is the unsigned index of its matrix
    for raw in (np.array(GOLDEN_RAW), sum(signed_legs())):
        matrix = hs.normalize(raw)
        book = hs.signed_from_raw(raw, np.zeros(raw.shape))
        nptest.assert_allclose(book.net, matrix.entries, atol=1e-15)
        nptest.assert_allclose(book.gross_investor_marginals, hs.marginals(matrix).p, atol=1e-15)
        expected = hs.dependence_index(matrix).index
        assert hs.signed_dependence(book) == pytest.approx(expected, rel=1e-12, abs=0)


def test_transposed_legs_swap_the_sides_of_a_signed_book():
    plus, minus = signed_legs()
    book, flipped = hs.signed_from_raw(plus, minus), hs.signed_from_raw(plus.T, minus.T)
    assert_same_to_the_printed_digit(hs.signed_dependence(book), hs.signed_dependence(flipped))
    for kind in ("gross", "net"):
        for side, other in (("investor", "stock"), ("stock", "investor")):
            nptest.assert_allclose(getattr(flipped, f"{kind}_{side}_marginals"),
                                   getattr(book, f"{kind}_{other}_marginals"), rtol=1e-12, atol=0)
    assert flipped.net_exposure == pytest.approx(book.net_exposure, rel=1e-12)


def test_both_kinds_of_book_check_the_one_kernel(monkeypatch):
    # one function sums X for unsigned and signed books, and each checks it
    # against forms of its own: a kernel off by one part in a million fails both
    kernel = dependence._chi_square
    calls = []
    monkeypatch.setattr(dependence, "_chi_square",
                        lambda *args: calls.append(args) or kernel(*args) * (1 + 1e-6))
    with pytest.raises(InternalConsistencyError, match="^dependence forms disagree"):
        hs.dependence_index(hs.normalize(GOLDEN_RAW))
    with pytest.raises(InternalConsistencyError, match="^signed dependence forms disagree"):
        hs.signed_dependence(hs.signed_from_raw(*signed_legs()))
    assert len(calls) == 2


def signed_legs(n=400, m=300, held=0.3):
    """Raw legs of a seeded n x m book: a ``held`` share of cells held, a fifth of them short."""
    rng = np.random.default_rng(31)
    raw = rng.lognormal(0.0, 1.0, (n, m)) * (rng.random((n, m)) < held)
    short = rng.random((n, m)) < 0.2
    return np.where(short, 0.0, raw), np.where(short, raw, 0.0)


def test_signed_book_derives_its_values_once():
    book = hs.signed_from_raw(*signed_legs())
    plus, minus = book.plus, book.minus
    assert plus.base is minus.base and not plus.flags.writeable
    # bincount over the held cells in row-major order, as core.marginals sums
    rows, cols = np.nonzero(plus + minus)
    gross, net = (plus + minus)[rows, cols], (plus - minus)[rows, cols]
    expected = {
        "gross_investor_marginals": np.bincount(rows, gross, minlength=plus.shape[0]),
        "gross_stock_marginals": np.bincount(cols, gross, minlength=plus.shape[1]),
        "net_investor_marginals": np.bincount(rows, net, minlength=plus.shape[0]),
        "net_stock_marginals": np.bincount(cols, net, minlength=plus.shape[1]),
    }
    for name, value in expected.items():
        derived = getattr(book, name)
        assert derived is getattr(book, name)
        assert not derived.flags.writeable
        assert derived.tobytes() == value.tobytes()
        with pytest.raises(FrozenInstanceError):
            setattr(book, name, value)
    assert book.net_exposure == float(book.net_investor_marginals.sum())
    with pytest.raises(FrozenInstanceError):
        book.net_exposure = 0.5
    assert book.net.tobytes() == (plus - minus).tobytes()

    # once the book is scored, reading its values forms no n x m temporary
    hs.signed_dependence(book)
    names = [*expected, "net_exposure"]
    reads = peak_bytes(lambda: [getattr(book, name) for _ in range(100) for name in names])
    assert reads < plus.nbytes


def test_signed_book_holds_one_copy_of_its_legs():
    # each leg's held cells are read on their own and merged by key, so the
    # peaks follow the held cells: 1.10 and 1.25 legs when these bounds were
    # set; 1.60 and 1.60 when both legs were first stacked into one n x 2m
    # copy, and 2.0 and 4.0 when the book kept a second copy of its legs
    raw_plus, raw_minus = signed_legs()
    legs = 2 * raw_plus.nbytes
    book = hs.signed_from_raw(raw_plus, raw_minus)
    assert peak_bytes(hs.SignedOwnership, book.plus.copy(), book.minus.copy()) <= 1.15 * legs
    assert peak_bytes(hs.signed_from_raw, raw_plus, raw_minus) <= 1.3 * legs


def test_sparse_signed_legs_cost_their_held_cells_not_a_dense_copy():
    # a 1%-held book peaked at 1.02 legs in signed_from_raw through the
    # stacked copy, and at 0.08 legs when these bounds were set
    raw_plus, raw_minus = signed_legs(held=0.01)
    legs = 2 * raw_plus.nbytes
    book = hs.signed_from_raw(raw_plus, raw_minus)
    assert peak_bytes(hs.SignedOwnership, book.plus.copy(), book.minus.copy()) <= 0.1 * legs
    assert peak_bytes(hs.signed_from_raw, raw_plus, raw_minus) <= 0.1 * legs


def stacked_leg_cells(plus, minus, name):
    """Oracle: the legs' cells read from one n x 2m copy that interleaves them, as they were."""
    plus, minus = (np.asarray(leg, dtype=float) for leg in (plus, minus))
    _, rows, cols, values = core._nonzero_cells(
        np.stack([plus, minus], axis=2).reshape(len(plus), -1), name
    )
    values = core._checked(values, name)
    if extensions._on_both_legs(rows, cols).size:
        raise NegativeEntry("a cell cannot be long and short at once")
    return plus.shape, rows, cols, values


@st.composite
def leg_pairs(draw):
    """Two legs of one shape, each cell long, short or empty; one cell maybe faulty."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    side = np.array(draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n * m, max_size=n * m)))
    size = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n * m, max_size=n * m)))
    plus = np.where(side == 1, size, 0.0).reshape(n, m)
    minus = np.where(side == 2, size, 0.0).reshape(n, m)
    fault = draw(st.sampled_from(["none", "both legs", "nan", "negative"]))
    leg = draw(st.sampled_from([plus, minus]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    if fault == "both legs":
        plus[i, j] = minus[i, j] = 1.0
    elif fault != "none":
        leg[i, j] = np.nan if fault == "nan" else -1.0
    return plus, minus


@given(leg_pairs())
@settings(max_examples=300, deadline=None)
def test_leg_cells_match_the_stacked_legs(legs):
    expected = outcome(stacked_leg_cells, *legs, "legs")
    got = outcome(extensions._leg_cells, *legs, "legs")
    if expected[0] != "returns":
        assert got == expected
        return
    assert got[0] == "returns" and got[1][0] == expected[1][0]
    for have, want in zip(got[1][1:], expected[1][1:]):
        assert have.dtype == want.dtype and have.tobytes() == want.tobytes()

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan.errors import InactiveSupport, NotAProbabilityVector
from holdscan.indices import MicroDecomposition

from conftest import philox, profiles, random_active


def test_herfindahl_golden_marginal():
    assert hs.herfindahl([0.4, 0.3, 0.3]) == pytest.approx(0.34, abs=1e-15)


@pytest.mark.parametrize("q", [1, 2, 5, 17])
def test_herfindahl_uniform(q):
    assert hs.herfindahl(np.full(q, 1.0 / q)) == pytest.approx(1.0 / q, abs=1e-12)


def test_herfindahl_point_mass():
    assert hs.herfindahl([1.0]) == 1.0


@pytest.mark.parametrize("bad", [[0.5, 0.4], [0.7, -0.2, 0.5], [2.0, -1.0]])
def test_herfindahl_rejects_non_probability(bad):
    with pytest.raises(NotAProbabilityVector):
        hs.herfindahl(bad)


def test_micro_concentration_golden(golden):
    assert hs.micro_concentration(golden) == pytest.approx(0.21, abs=1e-15)


def test_micro_concentration_uniform_2x2():
    assert hs.micro_concentration(hs.OwnershipMatrix(np.full((2, 2), 0.25))) == 0.25


def test_micro_concentration_product_benchmark(golden):
    marg = hs.marginals(golden)
    product = hs.OwnershipMatrix(np.outer(marg.p, marg.s))
    assert hs.micro_concentration(product) == pytest.approx(0.17, abs=1e-15)


def test_micro_decomposition_golden(golden):
    # independent oracle: concentrations straight from the profile definition
    row_profiles, col_profiles = profiles(golden)
    marg = hs.marginals(golden)
    c_oracle = np.array([sum(q * q for q in row) for row in row_profiles])
    d_oracle = np.array([sum(r * r for r in col) for col in col_profiles.T])
    dec = hs.micro_decomposition(golden)
    nptest.assert_allclose(dec.portfolio_concentration, c_oracle, atol=1e-15)
    nptest.assert_allclose(dec.owner_concentration, d_oracle, atol=1e-15)
    assert float(np.sum(marg.p**2 * c_oracle)) == pytest.approx(0.21, abs=1e-12)
    assert float(dec.investor_terms.sum()) == pytest.approx(0.21, abs=1e-12)
    assert float(dec.stock_terms.sum()) == pytest.approx(0.21, abs=1e-12)


def test_micro_decomposition_diagonal():
    dec = hs.micro_decomposition(hs.OwnershipMatrix(np.diag([0.5, 0.5])))
    nptest.assert_array_equal(dec.portfolio_concentration, [1.0, 1.0])
    nptest.assert_array_equal(dec.owner_concentration, [1.0, 1.0])
    assert dec.investor_terms.sum() == 0.5
    assert dec.stock_terms.sum() == 0.5


def test_micro_decomposition_uniform():
    dec = hs.micro_decomposition(hs.OwnershipMatrix(np.full((2, 2), 0.25)))
    nptest.assert_array_equal(dec.portfolio_concentration, [0.5, 0.5])
    nptest.assert_array_equal(dec.investor_terms, [0.125, 0.125])


def test_micro_decomposition_requires_active():
    with pytest.raises(InactiveSupport):
        hs.micro_decomposition(hs.OwnershipMatrix(np.array([[0.5, 0.5], [0.0, 0.0]])))


def test_micro_decomposition_is_built_once_per_book(golden, monkeypatch):
    built = []

    def recorded(**fields):
        built.append(MicroDecomposition(**fields))
        return built[-1]

    monkeypatch.setattr(hs.indices, "MicroDecomposition", recorded)
    bounds = hs.support_bounds(golden)
    dec = hs.micro_decomposition(golden)
    assert built == [dec]  # support_bounds built it, and the call after it got it
    assert hs.micro_decomposition(golden) is dec
    assert hs.support_bounds(golden) == bounds and built == [dec]
    for name in ("investor_terms", "stock_terms", "portfolio_concentration",
                 "owner_concentration", "row_support", "col_support"):
        assert not getattr(dec, name).flags.writeable, name


def test_support_bounds_golden(golden):
    lower_row, lower_col, upper = hs.support_bounds(golden)
    assert lower_row == pytest.approx(0.4**2 / 2 + 0.3**2 / 2 + 0.3**2 / 2, abs=1e-15)
    assert lower_row == pytest.approx(0.17, abs=1e-12)
    assert upper == pytest.approx(0.34, abs=1e-15)
    micro = hs.micro_concentration(golden)
    assert lower_row <= micro <= upper
    assert lower_col <= micro <= upper


def test_support_bounds_tight_on_diagonal():
    lower_row, lower_col, upper = hs.support_bounds(hs.OwnershipMatrix(np.diag([0.5, 0.5])))
    assert lower_row == upper == 0.5
    assert lower_col == 0.5


def test_support_bounds_uniform():
    # each of the two rows contributes (1/2)^2 / 2 = 0.125 to the lower bound
    lower_row, _, upper = hs.support_bounds(hs.OwnershipMatrix(np.full((2, 2), 0.25)))
    assert lower_row == pytest.approx(0.25, abs=1e-15)
    assert upper == pytest.approx(0.5, abs=1e-15)
    assert lower_row <= 0.25 <= upper


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_global_sandwich(seed):
    rng = np.random.default_rng(seed)
    matrix = random_active(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)))
    marg = hs.marginals(matrix)
    h_inv = float(marg.p @ marg.p)
    h_stk = float(marg.s @ marg.s)
    micro = hs.micro_concentration(matrix)
    assert max(h_inv / matrix.m, h_stk / matrix.n) <= micro + 1e-12
    assert micro <= min(h_inv, h_stk) + 1e-12


def test_uniform_support_caps():
    # every investor holds exactly two stocks
    rng = np.random.default_rng(5)
    n, m, k = 7, 5, 2
    raw = np.zeros((n, m))
    for i in range(n):
        cols = rng.choice(m, size=k, replace=False)
        raw[i, cols] = rng.random(k) + 0.1
    matrix = hs.normalize(raw)
    marg = hs.marginals(matrix)
    h_inv = float(marg.p @ marg.p)
    micro = hs.micro_concentration(matrix)
    assert h_inv / k <= micro + 1e-12
    assert micro <= h_inv + 1e-12


def test_collision_probability_semantics(golden):
    # two independent cell draws: marginal and joint collision frequencies
    rng = philox(2024)
    draws = 200_000
    flat = golden.entries.ravel()
    first = rng.choice(flat.size, size=draws, p=flat)
    second = rng.choice(flat.size, size=draws, p=flat)
    rows_equal = (first // golden.m) == (second // golden.m)
    cols_equal = (first % golden.m) == (second % golden.m)
    for estimate, target in (
        (rows_equal.mean(), 0.34),
        (cols_equal.mean(), 0.50),
        ((rows_equal & cols_equal).mean(), 0.21),
    ):
        stderr = np.sqrt(target * (1 - target) / draws)
        assert abs(estimate - target) <= 3 * stderr


def test_concentration_summary_effective_numbers(golden):
    summary = hs.concentration_summary(golden)
    assert summary.effective_investors == 1.0 / summary.investor_herfindahl
    assert summary.effective_stocks == 2.0
    assert summary.effective_cells == 1.0 / 0.21


def test_decomposition_sums_match_on_random():
    rng = np.random.default_rng(99)
    for _ in range(50):
        matrix = random_active(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        dec = hs.micro_decomposition(matrix)
        micro = hs.micro_concentration(matrix)
        assert abs(float(dec.investor_terms.sum()) - micro) <= 1e-12
        assert abs(float(dec.stock_terms.sum()) - micro) <= 1e-12


def test_local_support_bounds_on_random():
    rng = np.random.default_rng(17)
    for _ in range(30):
        matrix = random_active(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        dec = hs.micro_decomposition(matrix)
        assert np.all(dec.portfolio_concentration >= 1.0 / dec.row_support - 1e-12)
        assert np.all(dec.portfolio_concentration <= 1.0 + 1e-12)
        assert np.all(dec.owner_concentration >= 1.0 / dec.col_support - 1e-12)
        assert np.all(dec.owner_concentration <= 1.0 + 1e-12)

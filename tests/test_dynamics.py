import warnings

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan.errors import (
    DimensionMismatch,
    NonFiniteResult,
    NotCentered,
    NumericalError,
    OutOfRange,
)

from conftest import philox, random_active
from test_held_cells import sparse_active


def test_fire_sale_golden_shock(golden):
    # direct matrix-arithmetic oracle for the centered golden shock
    shock = np.array([1.0, -1.0, -1.0 / 3.0])
    marg = hs.marginals(golden)
    pressure_oracle = golden.entries.T @ shock
    impact_oracle = pressure_oracle / marg.s
    severity_oracle = float(marg.s @ impact_oracle**2)
    result = hs.fire_sale(golden, shock)
    nptest.assert_allclose(result.impact, [0.4, -0.4], atol=1e-12)
    nptest.assert_allclose(result.impact, impact_oracle, atol=1e-15)
    assert result.severity == pytest.approx(0.16, abs=1e-12)
    assert result.severity == pytest.approx(severity_oracle, abs=1e-15)
    shock_energy = float(marg.p @ shock**2)
    assert shock_energy == pytest.approx(11.0 / 15.0, abs=1e-12)
    assert result.bound == pytest.approx((7.0 / 30.0) * (11.0 / 15.0), abs=1e-9)
    assert result.severity <= result.bound


def test_fire_sale_uniform_shock_is_market_wide(golden):
    scale = 0.37
    result = hs.fire_sale(golden, np.full(3, scale))
    nptest.assert_allclose(result.delta_perp, np.zeros(3), atol=1e-15)
    assert result.severity == pytest.approx(scale**2, abs=1e-12)
    assert result.parallel_term == pytest.approx(scale**2, abs=1e-12)
    assert result.perp_term == pytest.approx(0.0, abs=1e-12)


def test_fire_sale_product_annihilates_centered_shocks():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([0.6, 0.4])
    matrix = hs.OwnershipMatrix(np.outer(p, s))
    shock = np.array([1.0, -1.0, -1.0])
    shock = shock - float(p @ shock)  # center against investor mass
    result = hs.fire_sale(matrix, shock)
    assert result.severity == pytest.approx(0.0, abs=1e-15)


def test_fire_sale_severity_decomposition_random():
    rng = np.random.default_rng(61)
    for _ in range(40):
        matrix = random_active(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        shock = rng.standard_normal(matrix.n) * 2
        result = hs.fire_sale(matrix, shock)
        assert result.severity == pytest.approx(
            result.parallel_term + result.perp_term, abs=1e-9
        )
        assert result.severity <= result.bound + 1e-9


def test_fire_sale_bound_is_sharp(golden):
    # the maximizing centered shock comes from the top singular pair of the
    # residual, computed here with the LAPACK oracle
    res = hs.whiten(golden)
    left, sing, _ = np.linalg.svd(res.residual)
    top = left[:, 0]
    marg = hs.marginals(golden)
    shock = top / np.sqrt(marg.p)
    assert abs(float(marg.p @ shock)) <= 1e-12
    assert float(marg.p @ shock**2) == pytest.approx(1.0, abs=1e-12)
    result = hs.fire_sale(golden, shock)
    assert result.severity == pytest.approx(res.rho**2, abs=1e-6)


def test_spectral_bounds_are_sharp_on_a_sparse_400_by_300_book():
    # larger than any dashboard book of the benchmark, so a rho found by a
    # size-gated iterative kernel would be checked here: the shock along L's
    # top left singular vector and the returns along its top right one attain
    # their bounds, which the operations check within 1e-9
    matrix = hs.normalize(sparse_active(np.random.default_rng(46), 400, 300, 0.05))
    marg = hs.marginals(matrix)
    u, v = np.sqrt(marg.p), np.sqrt(marg.s)
    ell = matrix.entries / np.outer(u, v) - np.outer(u, v)  # L, without the library's whiten
    left, _, right = np.linalg.svd(ell)
    rho = hs.rho(matrix)
    fire = hs.fire_sale(matrix, left[:, 0] / u)
    assert fire.severity <= fire.bound + 1e-12  # equal in real arithmetic
    assert abs(fire.severity - rho**2) <= 1e-9
    active = hs.active_variance(matrix, right[0] / v)
    assert active.variance <= active.worst_case_bound + 1e-12
    assert abs(active.variance - rho**2) <= 1e-9


def test_fire_sale_scale_equivariance(golden):
    shock = np.array([0.25, -0.5, 0.125])
    base = hs.fire_sale(golden, shock)
    doubled = hs.fire_sale(golden, 2.0 * shock)
    assert doubled.severity == 4.0 * base.severity  # powers of two scale exactly
    tripled = hs.fire_sale(golden, 3.0 * shock)
    assert tripled.severity == pytest.approx(9.0 * base.severity, rel=1e-12)


def test_fire_sale_shape_check(golden):
    with pytest.raises(DimensionMismatch):
        hs.fire_sale(golden, np.ones(4))


def test_active_variance_golden(golden):
    returns = np.array([1.0, -1.0])
    # componentwise oracle over portfolio tilts
    marg = hs.marginals(golden)
    q = golden.entries / marg.p[:, None]
    alpha_oracle = np.array([float((q[i] - marg.s) @ returns) for i in range(3)])
    result = hs.active_variance(golden, returns)
    nptest.assert_allclose(result.alpha, [0.5, -2.0 / 3.0, 0.0], atol=1e-12)
    nptest.assert_allclose(result.alpha, alpha_oracle, atol=1e-12)
    assert result.variance == pytest.approx(7.0 / 30.0, abs=1e-9)
    assert result.worst_case_bound == pytest.approx(7.0 / 30.0, abs=1e-9)


def test_active_variance_zero_returns(golden):
    result = hs.active_variance(golden, np.zeros(2))
    nptest.assert_array_equal(result.alpha, np.zeros(3))
    assert result.variance == 0.0


def test_active_variance_product_benchmark():
    p = np.array([0.5, 0.3, 0.2])
    s = np.array([0.6, 0.4])
    matrix = hs.OwnershipMatrix(np.outer(p, s))
    returns = np.array([1.0, -1.5])  # s-weighted mean zero
    result = hs.active_variance(matrix, returns)
    nptest.assert_allclose(result.alpha, np.zeros(3), atol=1e-12)
    assert result.variance == pytest.approx(0.0, abs=1e-15)


def test_active_variance_requires_centering(golden):
    with pytest.raises(NotCentered):
        hs.active_variance(golden, np.array([1.0, 1.0]))
    projected = hs.active_variance(golden, np.array([1.0, 1.0]), project=True)
    assert projected.variance == pytest.approx(0.0, abs=1e-15)


def test_active_variance_bound_random():
    rng = np.random.default_rng(71)
    for _ in range(30):
        matrix = random_active(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        marg = hs.marginals(matrix)
        returns = rng.standard_normal(matrix.m)
        returns -= float(marg.s @ returns)
        result = hs.active_variance(matrix, returns)
        assert result.variance <= result.worst_case_bound + 1e-9


def test_isotropic_capacity_golden(golden):
    assert hs.isotropic_capacity(golden, 1.0) == pytest.approx(7.0 / 30.0, abs=1e-6)
    assert hs.isotropic_capacity(golden, 0.0) == 0.0
    with pytest.raises(OutOfRange):
        hs.isotropic_capacity(golden, -1.0)


def test_isotropic_capacity_overflow_is_a_numerical_error(golden):
    assert issubclass(NonFiniteResult, NumericalError)
    for sigma in (1e200, np.float64(1e200), 1.5e154):
        with pytest.raises(NonFiniteResult):
            hs.isotropic_capacity(golden, sigma)


def test_overflowing_shock_and_returns_are_numerical_errors(golden):
    # finite inputs whose squares overflow: no inf result and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult):
            hs.fire_sale(golden, [1e200, -1e200, 0.0])
        with pytest.raises(NonFiniteResult):
            hs.active_variance(golden, [1e200, -1e200])
        with pytest.raises(NonFiniteResult):
            hs.active_variance(golden, [1e200, -1e200], project=True)


def test_isotropic_capacity_monte_carlo():
    # sample whitened returns with isotropic centered dispersion and
    # average the realized active variance
    rng = philox(314)
    matrix = random_active(np.random.default_rng(6), 6, 4)
    marg = hs.marginals(matrix)
    res = hs.whiten(matrix)
    sigma = 2.0
    draws = 100_000
    z = rng.standard_normal((draws, matrix.m)) * sigma
    v = np.sqrt(marg.s)
    tilde = z - np.outer(z @ v, v)
    realized = np.sum((tilde @ res.residual.T) ** 2, axis=1)
    target = hs.isotropic_capacity(matrix, sigma)
    stderr = realized.std(ddof=1) / np.sqrt(draws)
    assert abs(realized.mean() - target) <= 3 * stderr


def test_expected_variance_general_covariance():
    # random covariance annihilating the market mode: trace formula vs MC
    rng = philox(2719)
    matrix = random_active(np.random.default_rng(9), 5, 4)
    marg = hs.marginals(matrix)
    res = hs.whiten(matrix)
    v = np.sqrt(marg.s)
    w = rng.standard_normal((matrix.m, matrix.m))
    w -= np.outer(v, v @ w)  # columns orthogonal to the market mode
    cov = w @ w.T
    expected = float(np.trace(res.residual @ cov @ res.residual.T))
    draws = 100_000
    z = rng.standard_normal((draws, matrix.m))
    tilde = z @ w.T
    realized = np.sum((tilde @ res.residual.T) ** 2, axis=1)
    stderr = realized.std(ddof=1) / np.sqrt(draws)
    assert abs(realized.mean() - expected) <= 3 * stderr


def test_alpha_result_carries_capacity(golden):
    result = hs.active_variance(golden, np.array([1.0, -1.0]), dispersion=2.0)
    assert result.isotropic_capacity == pytest.approx(4.0 * 7.0 / 30.0, abs=1e-6)


@given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
@settings(max_examples=60, deadline=None)
def test_severity_and_variance_scale_quadratically(seed, c):
    # the identity checks must hold in any units: scaling the shock or the
    # returns by c scales severity and variance by c**2
    rng = np.random.default_rng(seed)
    matrix = random_active(rng, 8, 6)
    marg = hs.marginals(matrix)
    delta = rng.standard_normal(8)
    returns = rng.standard_normal(6)
    returns -= float(marg.s @ returns)
    unit_shock = hs.fire_sale(matrix, delta)
    shock = hs.fire_sale(matrix, c * delta)
    assert shock.severity == pytest.approx(c**2 * unit_shock.severity, rel=1e-9)
    assert shock.bound == pytest.approx(c**2 * unit_shock.bound, rel=1e-9)
    unit_alpha = hs.active_variance(matrix, returns)
    alpha = hs.active_variance(matrix, c * returns)
    assert alpha.variance == pytest.approx(c**2 * unit_alpha.variance, rel=1e-9)
    assert alpha.worst_case_bound == pytest.approx(c**2 * unit_alpha.worst_case_bound, rel=1e-9)

"""Linearized transmission through the ownership network.

Two first-order mechanisms are driven by the same whitened residual
operator. Liquidation shocks on the investor side map to size-normalized
price pressure on the stock side: the market-wide shock component passes
through untouched while the idiosyncratic component is damped by at most
the dominant overlap mode. Centered stock-return dispersion maps to
benchmark-relative investor returns: the worst case is again governed by
the dominant mode, and under isotropic centered dispersion the expected
active variance equals the dependence index times the dispersion scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _EXACT_TOL, OwnershipMatrix, _agree, _at_most, _freeze_fields, _scaled_tol, require_active,
)
from .dependence import dependence_index
from .errors import (
    DimensionMismatch,
    NonFiniteEntry,
    NonFiniteResult,
    NotCentered,
    OutOfRange,
)
from .spectral import whiten

#: Base slack of the capitalization-weighted mean of returns, scaled by their weighted mean size.
_CENTER_TOL = 1e-10


def _finite_vector(values: "np.typing.ArrayLike", name: str, size: int, side: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.shape != (size,):
        raise DimensionMismatch(f"{name} length {vec.shape} does not match {size} {side}")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteEntry(f"{name} must be finite")
    return vec


def _check_dispersion(sigma: float) -> None:
    if not np.isfinite(sigma) or sigma < 0:
        raise OutOfRange(f"dispersion must be a nonnegative scalar, got {sigma!r}")


def _require_finite(what: str, **results: "np.typing.ArrayLike") -> None:
    """Raise NonFiniteResult naming the first result that is not finite."""
    for name, value in results.items():
        if not np.all(np.isfinite(value)):
            raise NonFiniteResult(f"{what}: {name} is not finite")


@dataclass(frozen=True, eq=False)
class FireSaleResult:
    """Decomposed price impact of an investor liquidation shock.

    ``severity`` is the capitalization-weighted squared relative price
    impact. It splits exactly into the market-wide term plus the
    idiosyncratic term, and is bounded by the market-wide term plus the
    squared dominant overlap mode times the idiosyncratic shock energy.
    """

    delta_parallel: np.ndarray
    delta_perp: np.ndarray
    pressure: np.ndarray
    impact: np.ndarray
    severity: float
    parallel_term: float
    perp_term: float
    bound: float

    def __post_init__(self) -> None:
        _freeze_fields(self, "delta_parallel", "delta_perp", "pressure", "impact")


@dataclass(frozen=True, eq=False)
class ActiveVarianceResult:
    """Benchmark-relative active returns and their size-weighted variance."""

    alpha: np.ndarray
    variance: float
    worst_case_bound: float
    isotropic_capacity: float | None = None

    def __post_init__(self) -> None:
        _freeze_fields(self, "alpha")


def fire_sale(matrix: OwnershipMatrix, delta: "np.typing.ArrayLike") -> FireSaleResult:
    """Propagate a liquidation shock and decompose its price impact.

    ``delta[i]`` is investor i's liquidation fraction (any sign). The
    exact severity split and the spectral bound are validated before
    returning.
    """
    marg = require_active(matrix)
    shock = _finite_vector(delta, "shock", matrix.n, "investors")

    p, s = marg.p, marg.s
    res = whiten(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(p @ shock)
        parallel = np.full(matrix.n, mean)
        perp = shock - parallel
        pressure = matrix.entries.T @ shock
        impact = pressure / s
        severity = float(s @ (impact * impact))
        parallel_term = float(p @ (parallel * parallel))
        perp_whitened = res.residual.T @ (np.sqrt(p) * perp)
        perp_term = float(perp_whitened @ perp_whitened)
        bound = parallel_term + res.rho**2 * float(p @ (perp * perp))
    _require_finite(
        "fire sale", impact=impact, severity=severity, parallel_term=parallel_term,
        perp_term=perp_term, bound=bound,
    )

    _agree(float(p @ perp), 0.0, "idiosyncratic component is not mass-centered", 1e-12, mean)
    _agree(severity, parallel_term + perp_term, "severity split violates the exact identity")
    _at_most(severity, bound, "severity exceeds its spectral bound")
    return FireSaleResult(
        delta_parallel=parallel,
        delta_perp=perp,
        pressure=pressure,
        impact=impact,
        severity=severity,
        parallel_term=parallel_term,
        perp_term=perp_term,
        bound=bound,
    )


def active_variance(
    matrix: OwnershipMatrix,
    returns: "np.typing.ArrayLike",
    *,
    project: bool = False,
    dispersion: float | None = None,
) -> ActiveVarianceResult:
    """Size-weighted variance of benchmark-relative investor returns.

    ``returns`` must be capitalization-centered; pass ``project=True`` to
    subtract the weighted mean first. The active return vector is computed
    both from portfolio profiles and through the residual operator, and
    the two must agree. With ``dispersion`` given, the isotropic expected
    capacity is attached.
    """
    if dispersion is not None:
        _check_dispersion(dispersion)
    marg = require_active(matrix)
    r = _finite_vector(returns, "returns", matrix.m, "stocks")
    p, s = marg.p, marg.s
    if project:
        r = r - float(s @ r)
    centered = float(s @ r)
    center_tol = _scaled_tol(_CENTER_TOL, float(s @ np.abs(r)))
    if abs(centered) > center_tol:
        raise NotCentered(
            f"capitalization-weighted mean of returns is {centered!r}, "
            f"expected 0 within {center_tol:g}"
        )

    res = whiten(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        q = matrix.entries / p[:, None]
        alpha_profile = (q - s[None, :]) @ r
        alpha_operator = (matrix.entries - np.outer(p, s)) @ r / p
        variance = float(p @ (alpha_profile * alpha_profile))
        whitened_returns = np.sqrt(s) * r
        operator_variance = float(np.sum((res.residual @ whitened_returns) ** 2))
        bound = res.rho**2 * float(s @ (r * r))
    _require_finite("active variance", alpha=alpha_profile, variance=variance, worst_case_bound=bound)

    _agree(alpha_profile, alpha_operator, "active-return computations disagree", _EXACT_TOL, r)
    _agree(variance, operator_variance, "variance disagrees with its operator form")
    _at_most(variance, bound, "variance exceeds its spectral bound")

    return ActiveVarianceResult(
        alpha=alpha_profile,
        variance=variance,
        worst_case_bound=bound,
        isotropic_capacity=None if dispersion is None else isotropic_capacity(matrix, dispersion),
    )


def isotropic_capacity(matrix: OwnershipMatrix, sigma: float) -> float:
    """Expected active variance under isotropic centered return dispersion.

    Equals the squared dispersion scale times the dependence index;
    cross-checked against the covariance trace formula on the residual
    operator.
    """
    _check_dispersion(sigma)
    res = whiten(matrix)
    try:
        scale = float(sigma) ** 2
    except OverflowError:
        scale = np.inf
    value = scale * dependence_index(matrix).index
    if not np.isfinite(value):
        raise NonFiniteResult(f"isotropic capacity at dispersion {sigma!r} is not finite")
    # tr(L C L^T) for the covariance C = sigma^2 (I - v v^T), v = res.col_unit
    ell = res.residual
    trace = scale * (float(np.sum(ell * ell)) - float(np.sum((ell @ res.col_unit) ** 2)))
    _agree(value, trace, "capacity disagrees with the trace formula")
    return value

"""Quadratic concentration indices and their exact decompositions.

Three scalars summarize an ownership system at the coarsest level: the
Herfindahl concentration of the investor marginal, of the stock marginal,
and of the full cell matrix (the joint collision probability of two
independent ownership draws). The cell-level index decomposes exactly
into size-weighted within-portfolio concentrations, and symmetrically
into size-weighted within-owner concentrations, which yields sharp
support-based bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    OwnershipMatrix, _agree, _at_most, _freeze_fields, _per_book, _probability_vector, held_cells,
    marginals, require_active,
)
from .errors import InternalConsistencyError

#: Base slack of the identities of M, stricter than ``core._EXACT_TOL``.
_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class ConcentrationSummary:
    """Headline quadratic concentrations with their effective numbers.

    ``investor_herfindahl`` and ``stock_herfindahl`` are marginal collision
    probabilities; ``micro`` is the joint one. Effective numbers are the
    reciprocals.
    """

    investor_herfindahl: float
    stock_herfindahl: float
    micro: float
    effective_investors: float
    effective_stocks: float
    effective_cells: float

    def __post_init__(self) -> None:
        for h, n_eff in (
            (self.investor_herfindahl, self.effective_investors),
            (self.stock_herfindahl, self.effective_stocks),
            (self.micro, self.effective_cells),
        ):
            if n_eff != 1.0 / h:
                raise InternalConsistencyError("effective number is not 1/index")


@dataclass(frozen=True, eq=False)
class MicroDecomposition:
    """Both exact splits of the cell-level concentration.

    ``investor_terms[i]`` is (investor mass)^2 times that investor's
    within-portfolio concentration; ``stock_terms[j]`` mirrors it on the
    stock side. Each vector sums to the micro concentration.
    """

    investor_terms: np.ndarray
    stock_terms: np.ndarray
    portfolio_concentration: np.ndarray
    owner_concentration: np.ndarray
    row_support: np.ndarray
    col_support: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(
            self, "investor_terms", "stock_terms", "portfolio_concentration",
            "owner_concentration", "row_support", "col_support",
        )


def herfindahl(weights: "np.typing.ArrayLike") -> float:
    """Sum of squared shares of a probability vector.

    Lies in [1/len(weights), 1]; the reciprocal is the effective count.
    """
    w = _probability_vector(weights, "weights")
    return float(w @ w)


def micro_concentration(matrix: OwnershipMatrix) -> float:
    """Sum of squared cells: probability two independent draws collide.

    Summed over the held cells in row-major order.
    """
    e = held_cells(matrix)[2]
    return float(np.sum(e * e))


def concentration_summary(matrix: OwnershipMatrix) -> ConcentrationSummary:
    """All three quadratic indices plus effective numbers.

    Validates the always-true sandwich
    max(H_inv/m, H_stk/n) <= micro <= min(H_inv, H_stk).
    """
    marg = marginals(matrix)
    p, s = marg.p, marg.s
    h_inv = float(p @ p)
    h_stk = float(s @ s)
    micro = micro_concentration(matrix)
    lo = max(h_inv / matrix.m, h_stk / matrix.n)
    hi = min(h_inv, h_stk)
    _at_most(np.array([lo, micro]), np.array([micro, hi]),
             f"micro concentration {micro!r} escapes its bounds [{lo!r}, {hi!r}]")
    return ConcentrationSummary(
        investor_herfindahl=h_inv,
        stock_herfindahl=h_stk,
        micro=micro,
        effective_investors=1.0 / h_inv,
        effective_stocks=1.0 / h_stk,
        effective_cells=1.0 / micro,
    )


@_per_book
def micro_decomposition(matrix: OwnershipMatrix) -> MicroDecomposition:
    """Split the cell concentration by investors and, independently, by stocks.

    Requires an active matrix. Both term vectors are checked to sum to the
    directly computed micro concentration. Only held cells are visited:
    O(nnz + n + m) time and memory, once per book; later calls on the same
    book return the same read-only result.
    """
    marg = require_active(matrix)
    n, m = matrix.shape
    rows, cols, e = held_cells(matrix)
    c = np.bincount(rows, (e / marg.p[rows]) ** 2, minlength=n)
    d = np.bincount(cols, (e / marg.s[cols]) ** 2, minlength=m)
    k = np.bincount(rows, minlength=n)
    ell = np.bincount(cols, minlength=m)
    investor_terms = marg.p**2 * c
    stock_terms = marg.s**2 * d
    micro = micro_concentration(matrix)
    sums = np.array([investor_terms.sum(), stock_terms.sum()])
    _agree(sums, micro, "micro decomposition sums disagree with direct value", _IDENTITY_TOL)
    return MicroDecomposition(
        investor_terms=investor_terms,
        stock_terms=stock_terms,
        portfolio_concentration=c,
        owner_concentration=d,
        row_support=k,
        col_support=ell,
    )


def support_bounds(matrix: OwnershipMatrix) -> tuple[float, float, float]:
    """Support-aware sandwich for the micro concentration.

    Returns ``(lower_row, lower_col, upper)`` where the lower bounds use
    row/column support counts and the upper bound is the smaller marginal
    Herfindahl. The observed micro concentration always lies between each
    lower bound and the upper bound.
    """
    dec = micro_decomposition(matrix)
    marg = require_active(matrix)
    lower_row = float(np.sum(marg.p**2 / dec.row_support))
    lower_col = float(np.sum(marg.s**2 / dec.col_support))
    upper = min(float(marg.p @ marg.p), float(marg.s @ marg.s))
    micro = micro_concentration(matrix)
    _at_most(np.array([lower_row, lower_col, micro]), np.array([micro, micro, upper]),
             "support bounds fail to sandwich the observed value", _IDENTITY_TOL)
    return lower_row, lower_col, upper

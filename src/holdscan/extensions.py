"""Power-sum sensitivity layer and signed (long/short) dependence.

The quadratic indices generalize to power sums of any positive order
other than one, with effective numbers through the usual exponent; under
proportional ownership the matrix-level power sum factors into the two
marginal ones, for every order. For books with short positions,
normalizing by gross exposure and benchmarking against the net rank-one
matrix gives a gross-whitened dependence measure; it requires nonzero
aggregate net exposure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    TOL_NORM, OwnershipMatrix, _agree, _checked, _label_tuple, _owned, _rescaled, held_cells,
    marginals,
)
from .errors import (
    AllZeroMatrix,
    AlphaNearOne,
    DimensionMismatch,
    InactiveGrossSupport,
    MarketNeutral,
    NegativeEntry,
    NotNormalized,
    OutOfRange,
)

#: Orders closer to one than this are rejected.
_ALPHA_GAP = 1e-6

#: Orders above this make the power sums numerically indistinguishable
#: from their largest term.
_ALPHA_MAX = 20.0


@dataclass(frozen=True)
class RenyiSummary:
    """Marginal and matrix power sums of one order with effective numbers."""

    alpha: float
    investor_power_sum: float
    stock_power_sum: float
    micro_power_sum: float
    effective_investors: float
    effective_stocks: float
    effective_cells: float


@dataclass(frozen=True, eq=False)
class SignedOwnership:
    """Long and short legs of a book, normalized by gross exposure.

    ``plus`` and ``minus`` are nonnegative with no common support, sum
    jointly to one and are the halves of one read-only copy. Gross marginals
    add the legs, net marginals subtract them; ``net_exposure`` is the common
    total of the net marginals. Each is derived once, at construction.
    """

    plus: np.ndarray
    minus: np.ndarray
    investor_labels: tuple[str, ...] = None  # type: ignore[assignment]
    stock_labels: tuple[str, ...] = None  # type: ignore[assignment]
    gross_investor_marginals: np.ndarray = field(init=False, repr=False)
    gross_stock_marginals: np.ndarray = field(init=False, repr=False)
    net_investor_marginals: np.ndarray = field(init=False, repr=False)
    net_stock_marginals: np.ndarray = field(init=False, repr=False)
    net_exposure: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        plus = np.asarray(self.plus, dtype=float)
        minus = np.asarray(self.minus, dtype=float)
        if plus.ndim != 2 or plus.size == 0 or plus.shape != minus.shape:
            raise DimensionMismatch(
                f"legs must be equal-shape 2-d arrays, got {plus.shape} and {minus.shape}"
            )
        plus, minus = _owned(_checked(np.stack([plus, minus]), "legs"), float)
        if np.any((plus > 0) & (minus > 0)):
            raise NegativeEntry("a cell cannot be long and short at once")
        gross_total = float(plus.sum() + minus.sum())
        if abs(gross_total - 1.0) > TOL_NORM:
            raise NotNormalized(
                f"gross exposure sums to {gross_total!r}, expected 1 within {TOL_NORM:g}"
            )
        n, m = plus.shape
        # gross, then net, in one n-by-m buffer beside the legs
        both = plus + minus
        gross_p, gross_s = _owned(both.sum(axis=1), float), _owned(both.sum(axis=0), float)
        np.subtract(plus, minus, out=both)
        net_p, net_s = _owned(both.sum(axis=1), float), _owned(both.sum(axis=0), float)
        eta = float(net_p.sum())
        _agree(eta, float(net_s.sum()), "net exposure differs across sides", 1e-12)
        for name, value in (
            ("plus", plus), ("minus", minus), ("net_exposure", eta),
            ("investor_labels", _label_tuple(self.investor_labels, n, "investor")),
            ("stock_labels", _label_tuple(self.stock_labels, m, "stock")),
            ("gross_investor_marginals", gross_p), ("gross_stock_marginals", gross_s),
            ("net_investor_marginals", net_p), ("net_stock_marginals", net_s),
        ):
            object.__setattr__(self, name, value)

    @property
    def net(self) -> np.ndarray:
        return self.plus - self.minus


def signed_from_raw(
    raw_plus: "np.typing.ArrayLike",
    raw_minus: "np.typing.ArrayLike",
    investor_labels: Sequence[str] | None = None,
    stock_labels: Sequence[str] | None = None,
) -> SignedOwnership:
    """Normalize raw long and short exposures by total gross exposure.

    The legs are checked and divided in place in one stacked copy, whose
    halves the book copies into its own store.
    """
    plus = np.asarray(raw_plus, dtype=float)
    minus = np.asarray(raw_minus, dtype=float)
    if plus.shape != minus.shape:
        raise DimensionMismatch(
            f"legs must share a shape, got {plus.shape} and {minus.shape}"
        )
    plus, minus = legs = _checked(np.stack([plus, minus]), "raw legs")
    with np.errstate(over="ignore"):
        gross = float(plus.sum() + minus.sum())
    if gross == np.inf:  # finite exposures whose total overflows
        plus, minus = legs = _rescaled(legs)
        gross = float(plus.sum() + minus.sum())
    if gross <= 0.0:
        raise AllZeroMatrix("gross exposure is zero")
    legs /= gross
    return SignedOwnership(plus, minus, investor_labels, stock_labels)


def renyi_summary(matrix: OwnershipMatrix, alpha: float) -> RenyiSummary:
    """Marginal and matrix power sums of order ``alpha``.

    Order two recovers the quadratic indices exactly. Orders must lie in
    (0, 20] and keep a minimal distance from one, where the family
    degenerates.
    """
    if not np.isfinite(alpha) or alpha <= 0 or alpha > _ALPHA_MAX:
        raise OutOfRange(f"order must lie in (0, {_ALPHA_MAX:g}], got {alpha!r}")
    if abs(alpha - 1.0) < _ALPHA_GAP:
        raise AlphaNearOne(f"order {alpha!r} is too close to 1")
    marg = marginals(matrix)
    inv_sum = float(np.sum(marg.p**alpha))
    stk_sum = float(np.sum(marg.s**alpha))
    # an empty cell adds 0**alpha = 0
    cell_sum = float(np.sum(held_cells(matrix)[2] ** alpha))
    exponent = 1.0 / (1.0 - alpha)
    return RenyiSummary(
        alpha=float(alpha),
        investor_power_sum=inv_sum,
        stock_power_sum=stk_sum,
        micro_power_sum=cell_sum,
        effective_investors=inv_sum**exponent,
        effective_stocks=stk_sum**exponent,
        effective_cells=cell_sum**exponent,
    )


def signed_dependence(book: SignedOwnership) -> float:
    """Gross-whitened dependence of a signed book from its net benchmark.

    The benchmark is the rank-one matrix built from the net marginals and
    scaled by the inverse aggregate net exposure; it shares the book's net
    marginals. The plain sum form and the whitened Frobenius form are both
    computed and must agree.
    """
    eta = book.net_exposure
    if abs(eta) < 1e-10:
        raise MarketNeutral(
            "aggregate net exposure is zero; the net rank-one benchmark is undefined"
        )
    gross_p = book.gross_investor_marginals
    gross_s = book.gross_stock_marginals
    if np.any(gross_p <= 0) or np.any(gross_s <= 0):
        raise InactiveGrossSupport(
            "every investor and stock needs positive gross exposure"
        )
    net = book.net
    benchmark = np.outer(book.net_investor_marginals, book.net_stock_marginals) / eta
    dev = net - benchmark

    sum_form = float(np.sum(dev * dev / np.outer(gross_p, gross_s)))
    whitened = dev / np.sqrt(np.outer(gross_p, gross_s))
    frob_form = float(np.sum(whitened * whitened))
    _agree(sum_form, frob_form, "signed dependence forms disagree", 1e-10)
    return sum_form

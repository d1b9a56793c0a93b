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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

import holdscan as hs

from .core import (
    TOL_NORM, OwnershipMatrix, _agree, _checked, _label_tuple, _normalized, _owned,
    held_cells, marginals,
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


class SignedOwnership:
    """Long and short legs of a book, normalized by gross exposure.

    The book holds its legs' held cells as one n-by-2m ``OwnershipMatrix``,
    in which column 2j holds the long leg of stock j and column 2j + 1 its
    short leg; no cell is long and short at once. ``plus`` and ``minus`` are
    read-only views of its dense entries, built on first read and then
    kept; ``net`` is formed on each read. Gross marginals add the legs and
    net marginals subtract them, each a ``bincount`` over the held cells in
    row-major order; ``net_exposure`` is the common total of the net
    marginals. Each is derived once, at construction.
    """

    def __init__(
        self,
        plus: "np.typing.ArrayLike",
        minus: "np.typing.ArrayLike",
        investor_labels: Sequence[str] | None = None,
        stock_labels: Sequence[str] | None = None,
    ) -> None:
        (n, m), rows, cols, values = _leg_cells(plus, minus, "legs")
        total = float(values.sum())
        if abs(total - 1.0) > TOL_NORM:
            raise NotNormalized(f"gross exposure sums to {total!r}, expected 1 within {TOL_NORM:g}")
        legs = OwnershipMatrix._from_cells((n, 2 * m), rows, cols, values, investor_labels)
        self._store(legs, stock_labels)

    def _store(self, legs: OwnershipMatrix, stock_labels: Sequence[str] | None) -> None:
        """Keep ``legs``, whose cells no long and short pair shares, and derive the marginals."""
        n, m = legs.n, legs.m // 2
        rows, cols, net = _net_cells(legs)
        gross_p, gross_s, net_p, net_s = (
            _owned(np.bincount(line, values, minlength=size), float)
            for values in (held_cells(legs)[2], net) for line, size in ((rows, n), (cols, m))
        )
        eta = float(net_p.sum())
        _agree(eta, float(net_s.sum()), "net exposure differs across sides", 1e-12)
        self.__dict__.update(
            _legs=legs, investor_labels=legs.investor_labels,
            stock_labels=_label_tuple(stock_labels, m, "stock"),
            gross_investor_marginals=gross_p, gross_stock_marginals=gross_s,
            net_investor_marginals=net_p, net_stock_marginals=net_s, net_exposure=eta,
        )

    @classmethod
    def _from_raw(
        cls, shape, rows, cols, raw, investor_labels, stock_labels, undivided=None
    ) -> "SignedOwnership":
        """The book of raw exposures in the cells of its legs, normalized as ``normalize`` does.

        The gross total is numpy's (pairwise) sum of both legs' held cells
        in row-major order; where it overflows, the exposures are first
        divided by the power of two of the largest one. ``undivided`` is as
        ``_normalized`` takes it.
        """
        book = cls.__new__(cls)
        legs = _normalized(
            (shape[0], 2 * shape[1]), rows, cols, raw, investor_labels, None,
            undivided=undivided, stock_name=lambda c: _leg_name(stock_labels, shape[1], c),
        )
        book._store(legs, stock_labels)
        return book

    __setattr__, __delattr__ = OwnershipMatrix.__setattr__, OwnershipMatrix.__delattr__

    plus = property(lambda self: self._legs.entries[:, 0::2])
    minus = property(lambda self: self._legs.entries[:, 1::2])
    net = property(lambda self: self.plus - self.minus)


def _leg_name(stock_labels: Sequence[str] | None, m: int, c: int) -> str:
    """The name of leg column ``c``: its stock's label and its side."""
    return f"{_label_tuple(stock_labels, m, 'stock')[c >> 1]} ({('long', 'short')[c & 1]})"


def _leg_cells(plus, minus, name: str):
    """The shape of two dense legs and their nonzero cells as ``SignedOwnership`` holds them.

    The values are checked finite and nonnegative; ``name`` words the errors.
    """
    plus, minus = (np.asarray(leg, dtype=float) for leg in (plus, minus))
    if plus.ndim != 2 or plus.size == 0 or plus.shape != minus.shape:
        raise DimensionMismatch(
            f"legs must be equal-shape 2-d arrays, got {plus.shape} and {minus.shape}"
        )
    # leg k's cell (i, j) is column 2j + k of the n x 2m book: key 2(i m + j) + k, row-major
    legs = plus.ravel(), minus.ravel()
    flats = [np.flatnonzero(leg) for leg in legs]
    keys = np.concatenate([2 * flat + k for k, flat in enumerate(flats)])
    values = np.concatenate([leg[flat] for leg, flat in zip(legs, flats)])
    del flats
    order = np.argsort(keys, kind="stable")  # merges the two legs' ascending runs
    rows, cols = np.divmod(keys[order], 2 * plus.shape[1])
    values = _checked(values[order], name)
    if _on_both_legs(rows, cols).size:
        raise NegativeEntry("a cell cannot be long and short at once")
    return plus.shape, rows, cols, values


def _on_both_legs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Where, in cells of both legs in row-major order, the next cell is the other leg's."""
    return np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] >> 1 == cols[:-1] >> 1))


def _net_cells(legs: OwnershipMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and net shares of a signed book's held cells, in row-major order."""
    rows, cols, values = held_cells(legs)
    cols, short = np.divmod(cols, 2)
    return rows, cols, np.where(short == 1, -values, values)


def signed_from_raw(
    raw_plus: "np.typing.ArrayLike",
    raw_minus: "np.typing.ArrayLike",
    investor_labels: Sequence[str] | None = None,
    stock_labels: Sequence[str] | None = None,
) -> SignedOwnership:
    """Normalize raw long and short exposures by total gross exposure (see ``_from_raw``)."""
    plus = np.asarray(raw_plus, dtype=float)
    minus = np.asarray(raw_minus, dtype=float)
    if plus.shape != minus.shape:
        raise DimensionMismatch(
            f"legs must share a shape, got {plus.shape} and {minus.shape}"
        )
    shape, rows, cols, raw = _leg_cells(plus, minus, "raw legs")
    if not raw.size:
        raise AllZeroMatrix("gross exposure is zero")
    return SignedOwnership._from_raw(shape, rows, cols, raw, investor_labels, stock_labels)


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

    The sum over every cell of (N_ij - a_i b_j / eta)**2 / (g_i h_j), with N
    the net book, a and b its net marginals, g and h its gross marginals
    and eta its net exposure: the benchmark a b^T / eta shares the book's
    net marginals. It is summed over the held cells by the kernel of the
    unsigned index and checked against the expanded square, sum of (N/g)
    (N/h) less 2/eta times sum of N (a/g) (b/h), plus (sum of a a/g) (sum
    of b b/h) / eta**2. Time and memory are O(nnz + n + m).
    """
    eta = book.net_exposure
    if abs(eta) < 1e-10:
        raise MarketNeutral(
            "aggregate net exposure is zero; the net rank-one benchmark is undefined"
        )
    g, h = book.gross_investor_marginals, book.gross_stock_marginals
    if np.any(g <= 0) or np.any(h <= 0):
        raise InactiveGrossSupport(
            "every investor and stock needs positive gross exposure"
        )
    a, b = book.net_investor_marginals, book.net_stock_marginals
    rows, cols, net = _net_cells(book._legs)
    g_c, h_c = g[rows], h[cols]
    term = np.empty(net.size)  # scratch: each sum writes its terms here in turn
    square = float(np.multiply(np.divide(net, g_c, out=term), net / h_c, out=term).sum())
    # the kernel's benches (a/g)(b/eta) and (a/eta)(b/h), formed over a/g and b/h;
    # every index is in range, and take's default mode would buffer out
    bench_g, bench_h = (a / g)[rows], (b / h)[cols]
    np.multiply(net, bench_g, out=term)
    cross = 2.0 * float(np.multiply(term, bench_h, out=term).sum()) / eta
    bench_g *= np.take(b / eta, cols, out=term, mode="clip")
    del cols
    bench_h *= (a / eta)[rows]
    bench = float(a @ (a / g)) * float(b @ (b / h)) / eta**2
    index = hs.dependence._chi_square(
        net, (a.size, b.size), (g_c, h_c), (bench_g, bench_h), bench, term
    )
    _agree(index, square - cross + bench, "signed dependence forms disagree", 1e-10,
           square, cross, bench)
    return index

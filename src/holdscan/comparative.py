"""Structural operations with exact predicted index changes.

Merging two investors, removing a stock with renormalization, and adding
a market-weight investor all change the headline indices by closed-form
amounts, which this module computes alongside a direct recomputation and
refuses to return if the two disagree. The equal-marginal family with a
single free cell shows that the marginals pin down neither the cell
concentration nor the dependence index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import compress

import numpy as np

from .core import (
    _EXACT_TOL, OwnershipMatrix, _agree, _dense_row, _index, _summed_cells, _unique_label,
    held_cells, marginals, require_active, restrict_active,
)
from .dependence import dependence_index, merger_delta, _row_pair
from .errors import (
    IndexOutOfRange,
    OutOfRange,
    RemovingEverything,
)
from .indices import micro_concentration


@dataclass(frozen=True)
class HeadlineIndices:
    """The four matrix-level diagnostics moved by structural operations."""

    investor_herfindahl: float
    stock_herfindahl: float
    micro: float
    dependence: float


@dataclass(frozen=True)
class PredictedIndices:
    """Closed-form predictions; None where no law exists."""

    investor_herfindahl: float | None
    stock_herfindahl: float | None
    micro: float | None
    dependence: float | None


@dataclass(frozen=True, eq=False)
class OperationDelta:
    """Before/after diagnostics of a structural operation.

    ``predicted_after`` holds the closed-form values and must match
    ``after`` wherever it is not None; the constructor enforces that.
    ``dropped_investors`` lists labels removed because no wealth remained.
    ``law_terms`` holds, where a closed form subtracts terms larger than its
    result, the size of those terms; that law's slack scales with it.
    """

    before: HeadlineIndices
    after: HeadlineIndices
    predicted_after: PredictedIndices
    matrix_after: OwnershipMatrix
    dropped_investors: tuple[str, ...] = ()
    law_terms: PredictedIndices = PredictedIndices(None, None, None, None)

    def __post_init__(self) -> None:
        for field in fields(HeadlineIndices):
            predicted, actual, terms = (
                getattr(values, field.name)
                for values in (self.predicted_after, self.after, self.law_terms)
            )
            if predicted is None:
                continue
            _agree(predicted, actual, f"closed-form prediction {predicted!r} disagrees with "
                   f"recomputed value {actual!r}", _EXACT_TOL, 0.0 if terms is None else terms)


def headline(matrix: OwnershipMatrix) -> HeadlineIndices:
    """Direct recomputation of the four headline indices.

    Zero-mass investors or stocks contribute nothing to any index, so the
    dependence part is evaluated on the active restriction.
    """
    marg = marginals(matrix)
    return HeadlineIndices(
        investor_herfindahl=float(marg.p @ marg.p),
        stock_herfindahl=float(marg.s @ marg.s),
        micro=micro_concentration(matrix),
        dependence=dependence_index(restrict_active(matrix)).index,
    )


def merge_investors(matrix: OwnershipMatrix, a: int, b: int) -> OperationDelta:
    """Sum two investor rows and report the exact index changes.

    Investor concentration rises by twice the product of the merged
    masses, stock concentration is unchanged, cell concentration rises by
    twice the overlap of the merged rows, and dependence falls by the
    merger amount.
    """
    marg = require_active(matrix)
    a, b = _row_pair(matrix.n, a, b)
    before = headline(matrix)

    n, m = matrix.shape
    lo, hi = min(a, b), max(a, b)
    rows, cols, values = held_cells(matrix)
    # the cells are in row-major order, so rows lo and hi are runs of cells:
    # only their columns merge, lo's value first where both hold one, and the
    # rows below hi move up one
    lo_start, lo_stop, hi_start, hi_stop = np.searchsorted(rows, (lo, lo + 1, hi, hi + 1))
    pair = np.r_[lo_start:lo_stop, hi_start:hi_stop]
    _, union, summed, _ = _summed_cells(cols[pair], values[pair], (1, m))

    def spliced(column: np.ndarray, merged: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [column[:lo_start], merged, column[lo_stop:hi_start], column[hi_stop:]]
        )

    rows, cols = spliced(rows, np.full(union.size, lo)), spliced(cols, union)
    values = spliced(values, summed)
    rows[lo_start + union.size + hi_start - lo_stop :] -= 1
    labels = matrix.investor_labels
    rest = labels[:lo] + labels[lo + 1 : hi] + labels[hi + 1 :]
    label = _unique_label(labels[a] + "+" + labels[b], rest)
    merged = OwnershipMatrix._from_cells(
        (n - 1, m), rows, cols, values, rest[:lo] + (label,) + rest[lo:], matrix.stock_labels
    )

    predicted = PredictedIndices(
        investor_herfindahl=before.investor_herfindahl + 2.0 * marg.p[a] * marg.p[b],
        stock_herfindahl=before.stock_herfindahl,
        micro=before.micro + 2.0 * float(_dense_row(matrix, a) @ _dense_row(matrix, b)),
        dependence=before.dependence - merger_delta(matrix, a, b),
    )
    return OperationDelta(
        before=before,
        after=headline(merged),
        predicted_after=predicted,
        matrix_after=merged,
    )


def remove_stock(matrix: OwnershipMatrix, stock: int) -> OperationDelta:
    """Drop one stock column and renormalize the remaining book by its own mass.

    The new cell concentration follows the closed form
    (old value minus the dropped column's squared cells) divided by the
    squared remaining mass. Investors left with no held cell are dropped and
    reported; one with a held cell left stays, however small its mass. When
    the dropped stock holds nearly all the mass, the forms for cell and
    investor concentration subtract nearly equal terms, and their checks
    allow for the rounding of those terms over the squared remaining mass.
    """
    marg = marginals(matrix)
    j0 = _index(stock, IndexOutOfRange, "stock index")
    if j0 < 0 or j0 >= matrix.m:
        raise IndexOutOfRange(f"stock index {j0} outside 0..{matrix.m - 1}")
    n, m = matrix.shape
    rows, cols, values = held_cells(matrix)
    rest = cols != j0
    if not rest.any():
        raise RemovingEverything(
            f"stock {matrix.stock_labels[j0]!r} carries all remaining mass"
        )
    # the rest's own mass, summed rather than found by a difference that cancels
    weight = float(np.delete(marg.s, j0).sum())
    before = headline(matrix)

    column = np.zeros(n)
    column[rows[~rest]] = values[~rest]
    rows, cols, values = rows[rest], cols[rest], values[rest]
    del rest
    cols -= cols > j0
    values /= weight
    keep_rows = np.bincount(rows, minlength=n) > 0
    dropped = tuple(compress(matrix.investor_labels, ~keep_rows))
    if dropped:  # a dropped investor has no cell left: renumber the rows
        rows = (np.cumsum(keep_rows) - 1)[rows]
    after_matrix = OwnershipMatrix._from_cells(
        (int(keep_rows.sum()), m - 1),
        rows,
        cols,
        values,
        tuple(compress(matrix.investor_labels, keep_rows)),
        matrix.stock_labels[:j0] + matrix.stock_labels[j0 + 1 :],
    )

    new_s = np.delete(marg.s, j0) / weight
    kept_p = (marg.p - column)[keep_rows] / weight
    predicted = PredictedIndices(
        investor_herfindahl=float(kept_p @ kept_p),
        stock_herfindahl=float(new_s @ new_s),
        micro=(before.micro - float(column @ column)) / weight**2,
        dependence=None,
    )
    return OperationDelta(
        before=before,
        after=headline(after_matrix),
        predicted_after=predicted,
        matrix_after=after_matrix,
        dropped_investors=dropped,
        law_terms=PredictedIndices(
            investor_herfindahl=before.investor_herfindahl / weight**2,
            stock_herfindahl=None,
            micro=before.micro / weight**2,
            dependence=None,
        ),
    )


def dilute(matrix: OwnershipMatrix, weight: float) -> OperationDelta:
    """Add a market-weight investor holding the given share of wealth.

    All four indices obey closed forms; in particular dependence shrinks
    linearly in the added mass, since the new investor adds none.
    """
    if not np.isfinite(weight) or not 0.0 < weight < 1.0:
        raise OutOfRange(f"dilution weight must lie strictly in (0, 1), got {weight!r}")
    marg = require_active(matrix)
    before = headline(matrix)

    n, m = matrix.shape
    rows, cols, values = held_cells(matrix)
    label = _unique_label(f"MARKET({weight:g})", matrix.investor_labels)
    # the new investor is the last row and holds every stock
    scaled = np.empty(values.size + m)
    np.multiply(values, 1.0 - weight, out=scaled[: values.size])
    np.multiply(marg.s, weight, out=scaled[values.size :])
    diluted = OwnershipMatrix._from_cells(
        (n + 1, m),
        np.concatenate([rows, np.full(m, n)]),
        np.concatenate([cols, np.arange(m)]),
        scaled,
        matrix.investor_labels + (label,),
        matrix.stock_labels,
    )
    shrink = (1.0 - weight) ** 2
    predicted = PredictedIndices(
        investor_herfindahl=shrink * before.investor_herfindahl + weight**2,
        stock_herfindahl=before.stock_herfindahl,
        micro=shrink * before.micro + weight**2 * before.stock_herfindahl,
        dependence=(1.0 - weight) * before.dependence,
    )
    return OperationDelta(
        before=before,
        after=headline(diluted),
        predicted_after=predicted,
        matrix_after=diluted,
    )


def nonid_family(t: float) -> tuple[OwnershipMatrix, float, float]:
    """Equal-marginal 2x2 family showing marginals identify neither index.

    Every member has uniform marginals, yet the cell concentration and the
    dependence index vary quadratically in the free cell. Returns the
    matrix together with both formula values, after checking them against
    direct recomputation.
    """
    if not np.isfinite(t) or not 0.0 <= t <= 0.5:
        raise OutOfRange(f"family parameter must lie in [0, 0.5], got {t!r}")
    entries = np.array([[t, 0.5 - t], [0.5 - t, t]])
    matrix = OwnershipMatrix(entries)
    micro_formula = 0.25 + 4.0 * (t - 0.25) ** 2
    dependence_formula = 16.0 * (t - 0.25) ** 2
    _agree(micro_concentration(matrix), micro_formula, "family concentration formula failed", 1e-12)
    _agree(dependence_index(matrix).index, dependence_formula,
           "family dependence formula failed", 1e-12)
    return matrix, micro_formula, dependence_formula


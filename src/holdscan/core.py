"""Normalized ownership matrices, their marginals, and holding profiles.

The primitive object is a nonnegative investor-by-stock matrix of wealth
shares summing to one. Row sums give the investor-size distribution,
column sums the stock-size distribution; dividing rows (columns) by their
sums gives within-portfolio weights (within-stock owner shares).

All types are frozen and hold read-only arrays; operations are pure
functions, safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AllZeroMatrix,
    DimensionMismatch,
    DuplicateLabel,
    InactiveSupport,
    LabelNotFound,
    NegativeEntry,
    NonFiniteEntry,
    NotAProbabilityVector,
    NotNormalized,
)

#: Absolute tolerance on every total-mass check.
TOL_NORM = 1e-9

#: Support threshold on normalized entries: a cell is held iff entry > EPS_SUPPORT.
#: Normalization preserves exact zeros, so no positive threshold is used.
EPS_SUPPORT = 0.0


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _scaled_tol(base: float, *terms: "np.typing.ArrayLike") -> float:
    """``base`` times the largest magnitude among the terms once that exceeds one.

    The slack of an identity exact in real arithmetic: absolute while the
    compared terms are below one, relative above, so that rounding in large
    terms never trips a check.
    """
    return base * max(1.0, *(float(np.max(np.abs(t))) for t in terms))


def _label_tuple(labels: Sequence[str] | None, count: int, side: str) -> tuple[str, ...]:
    if labels is None:
        prefix = side[0].upper()
        return tuple(f"{prefix}{k + 1}" for k in range(count))
    out = tuple(str(lab) for lab in labels)
    if len(out) != count:
        raise DimensionMismatch(
            f"expected {count} {side} labels, got {len(out)}"
        )
    if len(set(out)) != len(out):
        seen: set[str] = set()
        dup = next(lab for lab in out if lab in seen or seen.add(lab))
        raise DuplicateLabel(f"duplicate {side} label {dup!r}")
    return out


def _unique_label(candidate: str, taken: Sequence[str]) -> str:
    """``candidate`` with ``*`` appended until it is not in ``taken``."""
    while candidate in taken:
        candidate += "*"
    return candidate


def _probability_vector(values: "np.typing.ArrayLike", name: str) -> np.ndarray:
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteEntry(f"{name} must be finite")
    if np.any(vec < 0):
        raise NotAProbabilityVector(f"{name} must be nonnegative")
    if abs(float(vec.sum()) - 1.0) > TOL_NORM:
        raise NotAProbabilityVector(
            f"{name} sums to {float(vec.sum())!r}, expected 1 within {TOL_NORM:g}"
        )
    return vec


@dataclass(frozen=True, eq=False)
class OwnershipMatrix:
    """Nonnegative share matrix summing to one, with labeled axes.

    ``entries[i, j]`` is the fraction of total represented wealth that
    investor ``i`` holds in stock ``j``. Zero rows and columns are legal
    at construction; dependence and spectral operations require them to
    be removed first (see :func:`restrict_active`).
    """

    entries: np.ndarray
    investor_labels: tuple[str, ...] = None  # type: ignore[assignment]
    stock_labels: tuple[str, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionMismatch(
                f"entries must be a nonempty 2-d array, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteEntry("entries must be finite")
        if np.any(arr < 0):
            raise NegativeEntry("entries must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > TOL_NORM:
            raise NotNormalized(
                f"entries sum to {total!r}, expected 1 within {TOL_NORM:g}"
            )
        n, m = arr.shape
        object.__setattr__(self, "entries", _freeze(arr))
        object.__setattr__(
            self, "investor_labels", _label_tuple(self.investor_labels, n, "investor")
        )
        object.__setattr__(
            self, "stock_labels", _label_tuple(self.stock_labels, m, "stock")
        )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def investor_index(self, label: str) -> int:
        try:
            return self.investor_labels.index(label)
        except ValueError:
            raise LabelNotFound(f"unknown investor label {label!r}") from None

    def stock_index(self, label: str) -> int:
        try:
            return self.stock_labels.index(label)
        except ValueError:
            raise LabelNotFound(f"unknown stock label {label!r}") from None


@dataclass(frozen=True, eq=False)
class Marginals:
    """Investor-size vector ``p`` and stock-size vector ``s``."""

    p: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p", "s"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.ndim != 1 or vec.size == 0:
                raise DimensionMismatch(f"{name} must be a nonempty 1-d vector")
            if not np.all(np.isfinite(vec)):
                raise NonFiniteEntry(f"{name} must be finite")
            if np.any(vec < 0):
                raise NegativeEntry(f"{name} must be nonnegative")
            if abs(float(vec.sum()) - 1.0) > TOL_NORM:
                raise NotNormalized(
                    f"{name} sums to {float(vec.sum())!r}, expected 1 within {TOL_NORM:g}"
                )
            object.__setattr__(self, name, _freeze(vec))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def m(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True, eq=False)
class Profiles:
    """Row profiles (portfolio weights) and column profiles (owner shares).

    ``row_profiles[i]`` is investor ``i``'s portfolio as a probability
    vector over stocks; ``col_profiles[:, j]`` is stock ``j``'s ownership
    as a probability vector over investors.
    """

    row_profiles: np.ndarray
    col_profiles: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_profiles", _freeze(self.row_profiles))
        object.__setattr__(self, "col_profiles", _freeze(self.col_profiles))


def normalize(
    raw: "np.typing.ArrayLike",
    investor_labels: Sequence[str] | None = None,
    stock_labels: Sequence[str] | None = None,
) -> OwnershipMatrix:
    """Divide a raw nonnegative holdings matrix by its total mass.

    Raises AllZeroMatrix when the total is zero, NegativeEntry on any
    negative cell, and DimensionMismatch when labels disagree with the
    matrix shape.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatch(
            f"raw holdings must be a nonempty 2-d array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntry("raw holdings must be finite")
    if np.any(arr < 0):
        raise NegativeEntry("raw holdings must be nonnegative")
    total = float(arr.sum())
    if total <= 0.0:
        raise AllZeroMatrix("raw holdings sum to zero")
    return OwnershipMatrix(arr / total, investor_labels, stock_labels)


def marginals(matrix: OwnershipMatrix) -> Marginals:
    """Row and column sums of the share matrix."""
    return Marginals(matrix.entries.sum(axis=1), matrix.entries.sum(axis=0))


def is_active(matrix: OwnershipMatrix) -> bool:
    """True iff every investor and every stock carries positive mass."""
    return bool(
        np.all(matrix.entries.sum(axis=1) > 0) and np.all(matrix.entries.sum(axis=0) > 0)
    )


def require_active(matrix: OwnershipMatrix) -> Marginals:
    """Marginals of an active matrix; reject zero rows or columns."""
    marg = marginals(matrix)
    if np.any(marg.p <= 0) or np.any(marg.s <= 0):
        raise InactiveSupport(
            "matrix has zero-mass investors or stocks; apply restrict_active first"
        )
    return marg


def held_cells(matrix: OwnershipMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and values of the held cells, in row-major order.

    A cell is held iff its entry exceeds ``EPS_SUPPORT``, which is zero, so
    the held cells are the nonzero ones; no n-by-m temporary is built.
    """
    flat = np.flatnonzero(matrix.entries)
    rows, cols = np.divmod(flat, matrix.m)
    return rows, cols, matrix.entries.ravel()[flat]


def profiles(matrix: OwnershipMatrix) -> Profiles:
    """Within-portfolio weights and within-stock owner shares.

    Requires an active matrix: rows of ``row_profiles`` and columns of
    ``col_profiles`` are then exact probability vectors.
    """
    marg = require_active(matrix)
    q = matrix.entries / marg.p[:, None]
    r = matrix.entries / marg.s[None, :]
    return Profiles(q, r)


def restrict_active(matrix: OwnershipMatrix) -> OwnershipMatrix:
    """Drop zero-mass investors and stocks, keeping entries untouched."""
    p = matrix.entries.sum(axis=1)
    s = matrix.entries.sum(axis=0)
    rows = p > 0
    cols = s > 0
    if rows.all() and cols.all():
        return matrix
    sub = matrix.entries[np.ix_(rows, cols)]
    inv = tuple(lab for lab, keep in zip(matrix.investor_labels, rows) if keep)
    stk = tuple(lab for lab, keep in zip(matrix.stock_labels, cols) if keep)
    return OwnershipMatrix(sub, inv, stk)

"""Normalized ownership matrices and their marginals.

The primitive object is a nonnegative investor-by-stock matrix of wealth
shares summing to one. Row sums give the investor-size distribution,
column sums the stock-size distribution; dividing rows (columns) by their
sums gives within-portfolio weights (within-stock owner shares).

All types are frozen and hold read-only arrays; operations are pure
functions, safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import wraps
from itertools import compress
from typing import Callable, Collection, Sequence, TypeVar

import numpy as np

from .errors import (
    AllZeroMatrix,
    DimensionMismatch,
    DuplicateLabel,
    InactiveSupport,
    InternalConsistencyError,
    LabelNotFound,
    NegativeEntry,
    NonFiniteEntry,
    NotAProbabilityVector,
    NotNormalized,
    OutOfRange,
    ParseError,
)

#: Absolute tolerance on every total-mass check.
TOL_NORM = 1e-9

#: The smallest positive normal float; a share below it has lost bits, or is zero.
_TINY = float(np.finfo(float).tiny)


def _freeze(arr: np.ndarray, dtype: "np.typing.DTypeLike" = float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _owned(arr: np.ndarray, dtype: "np.typing.DTypeLike") -> np.ndarray:
    """``arr`` itself, made read-only, if it is an array of ``dtype`` that owns its memory.

    Anything else is frozen as a copy: a view, whose memory another array
    may still write, and an array of another dtype.
    """
    if not isinstance(arr, np.ndarray) or arr.base is not None or arr.dtype != dtype:
        return _freeze(arr, dtype)
    arr.setflags(write=False)
    return arr


def _freeze_fields(obj: object, *names: str) -> None:
    """Keep each named array field of a frozen dataclass as ``_owned(field, float)``."""
    for name in names:
        object.__setattr__(obj, name, _owned(getattr(obj, name), float))


#: The default base slack of an identity check (see ``_scaled_tol``), and what it compares.
_EXACT_TOL = 1e-9
_Value = float | np.ndarray


def _largest(value: _Value) -> float:  # NaN if any entry is; numpy only for arrays
    return value.max() if isinstance(value, np.ndarray) else value


def _scaled_tol(base: float, *terms: _Value) -> float:
    """``base`` times the largest magnitude among the terms once that exceeds one.

    The slack of an identity exact in real arithmetic: absolute while the
    compared terms are below one, relative above, so that rounding in large
    terms never trips a check. A NaN or infinite term makes the slack NaN.
    """
    scale = 1.0
    for size in (_largest(abs(t)) for t in terms):
        if size > scale or size != size:  # larger, or NaN (which then stays)
            scale = size
    return base * float(scale) if scale < np.inf else np.nan


def _agree(a: _Value, b: _Value, message: str, base: float = _EXACT_TOL, *terms: _Value) -> None:
    """Raise InternalConsistencyError(message) unless |a - b| <= _scaled_tol(base, a, b, *terms).

    Arrays agree entry by entry; ``not gap <= slack`` fails on a NaN anywhere.
    """
    if not _largest(abs(a - b)) <= _scaled_tol(base, a, b, *terms):
        raise InternalConsistencyError(message)


def _at_most(a: _Value, b: _Value, message: str, base: float = _EXACT_TOL, *terms: _Value) -> None:
    """``_agree`` for the one-sided a <= b."""
    if not _largest(a - b) <= _scaled_tol(base, a, b, *terms):
        raise InternalConsistencyError(message)


def _checked(values: "np.typing.ArrayLike", name: str) -> np.ndarray:
    """``values`` as a float array, checked finite, then nonnegative; the errors name ``name``."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntry(f"{name} must be finite")
    if np.any(arr < 0):
        raise NegativeEntry(f"{name} must be nonnegative")
    return arr


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


def _unique_label(candidate: str, taken: Collection[str]) -> str:
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


def _index(value: int, error: type[Exception], name: str) -> int:
    """``value`` as an int; anything but an integer (numpy's pass) raises ``error`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def _check_search(budget: int, seed: int) -> None:
    """Reject a restart budget or seed that the maximum search cannot use."""
    for name, value in (("budget", budget), ("seed", seed)):
        _index(value, OutOfRange, name)
    if budget < 1:
        raise OutOfRange(f"budget must be positive, got {budget}")
    if seed < 0:
        raise OutOfRange(f"seed must be nonnegative, got {seed}")


_Derive = TypeVar("_Derive", bound=Callable)


def _per_book(derive: _Derive) -> _Derive:
    """``derive`` run once per matrix, its result kept in the matrix's ``_derived`` dict.

    Later calls on the same matrix return the same object; ``derive`` never
    returns None, and a call that raises keeps nothing, so it raises again.
    The results are read-only, so sharing them is safe, and threads that
    race build equal results, so the dict needs no lock.
    """

    @wraps(derive)
    def once(matrix: OwnershipMatrix):
        result = matrix._derived.get(derive)
        if result is None:
            result = matrix._derived[derive] = derive(matrix)
        return result

    return once


class OwnershipMatrix:
    """Nonnegative share matrix summing to one, with labeled axes.

    ``entries[i, j]`` is the fraction of total represented wealth that
    investor ``i`` holds in stock ``j``. Zero rows and columns are legal
    at construction; dependence and spectral operations require them to
    be removed first (see :func:`restrict_active`).

    The held (nonzero) cells are the canonical store: their row indices,
    column indices and values in row-major order (see :func:`held_cells`).
    ``entries`` is a read-only n-by-m view built from them on first use
    and then kept, as is every other quantity derived under :func:`_per_book`.
    """

    def __init__(
        self,
        entries: "np.typing.ArrayLike",
        investor_labels: Sequence[str] | None = None,
        stock_labels: Sequence[str] | None = None,
    ) -> None:
        shape, rows, cols, values = _nonzero_cells(entries, "entries")
        self._store(shape, rows, cols, _checked(values, "entries"), investor_labels, stock_labels)

    @classmethod
    def _from_cells(
        cls, shape, rows, cols, values, investor_labels=None, stock_labels=None
    ) -> "OwnershipMatrix":
        """A matrix from its finite, nonnegative cells in row-major order; zero cells are dropped.

        The matrix takes ownership of the arrays it is handed (see ``_store``):
        pass fresh arrays, or the read-only store of another matrix. The
        labels are checked as the public constructor checks them.
        """
        matrix = cls.__new__(cls)
        matrix._store(shape, rows, cols, values, investor_labels, stock_labels)
        return matrix

    def _store(self, shape, rows, cols, values, investor_labels, stock_labels) -> None:
        """Check the values' sum in O(nnz) and the labels, keep both; ``entries`` is left unbuilt.

        Each array is kept as it is, made read-only, when it already has the
        store's dtype (``intp`` indices, ``float`` values) and owns its memory;
        only a view or an array of another dtype is copied. So a book holds
        24 bytes per held cell and is built without a second copy. The
        public constructors pass arrays of their own making, so a caller's
        array is never frozen in place.
        """
        n, m = (int(k) for k in shape)
        if n == 0 or m == 0:
            raise DimensionMismatch(f"entries must be a nonempty 2-d array, got shape {(n, m)}")
        total = float(values.sum())
        if abs(total - 1.0) > TOL_NORM:
            raise NotNormalized(
                f"entries sum to {total!r}, expected 1 within {TOL_NORM:g}"
            )
        held = values > 0
        if not held.all():
            rows, cols, values = rows[held], cols[held], values[held]
        for name, value in (
            ("_shape", (n, m)),
            ("_cells", (_owned(rows, np.intp), _owned(cols, np.intp), _owned(values, float))),
            ("_derived", {}),
            ("investor_labels", _label_tuple(investor_labels, n, "investor")),
            ("stock_labels", _label_tuple(stock_labels, m, "stock")),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    @_per_book
    def entries(self) -> np.ndarray:
        """The n-by-m share matrix, scattered from the held cells on first use."""
        dense = _scattered(self._cells, self._shape)
        dense.setflags(write=False)
        return dense

    @property
    def n(self) -> int:
        return self._shape[0]

    @property
    def m(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

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
            vec = _checked(vec, name)
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


def normalize(
    raw: "np.typing.ArrayLike",
    investor_labels: Sequence[str] | None = None,
    stock_labels: Sequence[str] | None = None,
) -> OwnershipMatrix:
    """Divide a raw nonnegative holdings matrix by its total mass.

    Raises AllZeroMatrix when the total is zero, NegativeEntry on any
    negative cell, ParseError when a held cell's share underflows (see
    ``_normalized``), and DimensionMismatch when labels disagree with the
    matrix shape. Beyond one scan for the nonzero cells, only those are
    visited.
    """
    return _normalized(*_nonzero_cells(raw, "raw holdings"), investor_labels, stock_labels)


def _nonzero_cells(
    values: "np.typing.ArrayLike", name: str
) -> tuple[tuple[int, int], np.ndarray, np.ndarray, np.ndarray]:
    """The shape of a nonempty 2-d array and the rows, columns and values of its nonzero cells.

    The cells are in row-major order; ``name`` words the error.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    flat = np.flatnonzero(arr)
    rows, cols = np.divmod(flat, arr.shape[1])
    return arr.shape, rows, cols, arr.ravel()[flat]


def _normalized(
    shape, rows, cols, raw, investor_labels, stock_labels, *, undivided=None, stock_name=None
) -> OwnershipMatrix:
    """The share matrix of raw holdings given by their nonzero cells in row-major order.

    The total mass is numpy's (pairwise) sum of ``raw`` in that order. A
    held cell whose share is zero or subnormal has lost its value to
    underflow, so such a book is refused with a ``ParseError`` naming the
    first such cell and its ratio to the total. That ratio is taken from the
    cell's holdings before any division by a power of two, which may have
    rounded them to zero: ``undivided`` gives them and the exponent when the
    caller has divided ``raw`` already, as ``cli.ingest`` divides lots whose
    cell sums overflow. ``stock_name(j)`` names column j in the refusal; by
    default its label does.
    """
    raw = _checked(raw, "raw holdings")
    held, power = (raw, 0) if undivided is None else undivided
    with np.errstate(over="ignore"):
        total = float(raw.sum())
    if total == np.inf:  # finite amounts whose total overflows
        raw, exponent = _rescaled(raw)
        power += exponent
        total = float(raw.sum())
    if total <= 0.0:
        raise AllZeroMatrix("raw holdings sum to zero")
    shares = raw / total
    if shares.min() < _TINY:  # every held cell is positive, so one has underflowed
        k = int(np.argmax(shares < _TINY))
        investor = _label_tuple(investor_labels, shape[0], "investor")[rows[k]]
        if stock_name is None:
            stock_name = _label_tuple(stock_labels, shape[1], "stock").__getitem__
        raise ParseError(
            f"investor {investor!r} holds {_ratio(held[k], total, power)} of the total in "
            f"stock {stock_name(cols[k])!r}, below the smallest normal share {_TINY:g}, "
            "which underflow would round or lose"
        )
    return OwnershipMatrix._from_cells(shape, rows, cols, shares, investor_labels, stock_labels)


def _ratio(part: float, whole: float, power: int) -> str:
    """``part / (whole * 2**power)`` to three digits, as ``1e-400``.

    Worked out from logarithms, so it cannot underflow.
    """
    log = float(np.log10(part) - np.log10(whole) - power * np.log10(2.0))
    exponent = int(np.floor(log))
    digits = f"{10 ** (log - exponent):.3g}"
    if digits == "10":  # the mantissa rounded up to the next power
        digits, exponent = "1", exponent + 1
    return f"{digits}e{exponent}"


def _rescaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` over the power of two of their largest, and its exponent.

    Exact where the quotients stay normal, so shares keep every bit.
    """
    exponent = int(np.frexp(values.max())[1])
    return np.ldexp(values, -exponent), exponent


def _summed_cells(
    keys: np.ndarray, values: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Add up ``values`` by cell of a ``shape`` book, where ``keys`` numbers cell (i, j) as ``i * m + j``.

    Returns the rows, columns and sums of the cells some value falls in (a
    zero value too), in row-major order, and for each value the position of
    its cell. Each cell adds its values one by one in the order given.
    ``keys`` must be a fresh int64 array: it is overwritten with the
    positions and returned. A book of at most twice as many cells as values
    marks the cells its keys fall in and ranks them by one ``cumsum``, in
    O(values) time and 8 bytes a cell; otherwise the keys are sorted in place, and beside them
    only the sort order and the narrow ranks are held, never a copy. Both
    give the same arrays, bit for bit.
    """
    size, m = shape
    if size * m <= 2 * keys.size:
        ranks = np.zeros(size * m, np.intp)
        ranks[keys] = 1
        cells = np.flatnonzero(ranks)
        np.cumsum(ranks, out=ranks)
        ranks -= 1
        ranks.take(keys, out=keys, mode="clip")  # unbuffered, so in place
    else:  # np.unique(keys, return_inverse=True), in the keys' own buffer
        order = keys.argsort()
        keys.sort()
        first = np.empty(keys.size, bool)  # where a new cell starts, in key order
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        cells = keys[first]
        ranks = first.astype(np.min_scalar_type(keys.size))
        del first
        np.cumsum(ranks, out=ranks)  # in place: cumsum to a dtype would buffer int64
        ranks -= 1
        keys[order] = ranks
        del order
    del ranks
    rows, cols = np.divmod(cells, m)
    return rows, cols, np.bincount(keys, values, minlength=cells.size), keys


@_per_book
def marginals(matrix: OwnershipMatrix) -> Marginals:
    """Row and column sums of the share matrix, over its held cells in row-major order."""
    rows, cols, values = held_cells(matrix)
    return Marginals(
        np.bincount(rows, values, minlength=matrix.n),
        np.bincount(cols, values, minlength=matrix.m),
    )


@_per_book
def is_active(matrix: OwnershipMatrix) -> bool:
    """True iff every investor and every stock carries positive mass."""
    marg = marginals(matrix)
    return bool(np.all(marg.p > 0) and np.all(marg.s > 0))


def require_active(matrix: OwnershipMatrix) -> Marginals:
    """Marginals of an active matrix; reject zero rows or columns."""
    if not is_active(matrix):
        raise InactiveSupport(
            "matrix has zero-mass investors or stocks; apply restrict_active first"
        )
    return marginals(matrix)


def held_cells(matrix: OwnershipMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and values of the held cells, in row-major order.

    A cell is held iff its entry is positive, so the held cells are the
    nonzero ones. They are the matrix's own read-only store; nothing is
    computed.
    """
    return matrix._cells


def _scattered(cells: tuple[np.ndarray, ...], shape: tuple[int, int]) -> np.ndarray:
    """The array of ``shape`` that is zero but at the cells, where it holds their values."""
    rows, cols, values = cells
    dense = np.zeros(shape)
    dense[rows, cols] = values
    return dense


def _dense_row(matrix: OwnershipMatrix, i: int) -> np.ndarray:
    """Row ``i`` of the share matrix as a length-m array."""
    rows, cols, values = held_cells(matrix)
    lo, hi = np.searchsorted(rows, (i, i + 1))
    row = np.zeros(matrix.m)
    row[cols[lo:hi]] = values[lo:hi]
    return row


def restrict_active(matrix: OwnershipMatrix) -> OwnershipMatrix:
    """Drop zero-mass investors and stocks, keeping entries untouched."""
    marg = marginals(matrix)
    keep_rows, keep_cols = marg.p > 0, marg.s > 0
    if keep_rows.all() and keep_cols.all():
        return matrix
    # every held cell lies on a kept row and column; renumber them in order
    rows, cols, values = held_cells(matrix)
    return OwnershipMatrix._from_cells(
        (int(keep_rows.sum()), int(keep_cols.sum())),
        (np.cumsum(keep_rows) - 1)[rows],
        (np.cumsum(keep_cols) - 1)[cols],
        values,
        tuple(compress(matrix.investor_labels, keep_rows)),
        tuple(compress(matrix.stock_labels, keep_cols)),
    )

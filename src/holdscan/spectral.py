"""Whitened spectral analysis of ownership overlap.

Scaling rows by inverse square-root investor mass and columns by inverse
square-root stock mass turns the share matrix into a contraction whose
top singular value is exactly one, with the square-root marginal vectors
as the fixed singular pair. Subtracting that rank-one mode leaves a
residual operator carrying every nonproportional feature: its squared
singular values sum to the dependence index, and its largest singular
value is the dominant overlap mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _EXACT_TOL, OwnershipMatrix, _agree, _at_most, _freeze_fields, _owned, _per_book, _scattered,
    held_cells, require_active,
)
from .dependence import dependence_index


@dataclass(frozen=True, eq=False)
class SpectralResidual:
    """Whitened matrix, rank-one market mode, residual operator, and spectrum.

    ``cells`` holds the book's held rows and columns and the rescaled share
    matrix K's value there, w = e / (u_i v_j); ``row_unit``/``col_unit``
    are the square-root marginal unit vectors u, v forming K's top singular
    pair. The residual operator L = K - u v^T applies to vectors from them.
    ``whitened`` (K), ``residual`` (L), ``singular_values`` and ``rho`` are
    each built on first read and then kept; no operation reads the dense K or
    L. The spectrum checks itself when built, and ``whiten`` reads ``rho``.
    """

    cells: tuple[np.ndarray, np.ndarray, np.ndarray]
    row_unit: np.ndarray
    col_unit: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, "row_unit", "col_unit")
        object.__setattr__(self, "cells", tuple(map(_owned, self.cells, (np.intp, np.intp, float))))

    @cached_property
    def whitened(self) -> np.ndarray:
        """K as a dense read-only array, scattered from the cells on first read and then kept."""
        return _owned(_scattered(self.cells, (self.row_unit.size, self.col_unit.size)), float)

    @cached_property
    def residual(self) -> np.ndarray:
        """L = K - u v^T as a dense read-only array, built on first read and then kept."""
        return _owned(self.whitened - np.outer(self.row_unit, self.col_unit), float)

    @cached_property
    def singular_values(self) -> tuple[float, ...]:
        """K's singular values, descending, by dense SVD on first read; checked, then kept."""
        w = self.cells[2]
        sigma = np.linalg.svd(_scattered(self.cells, (self.row_unit.size, self.col_unit.size)),
                              compute_uv=False)
        _agree(sigma[0], 1.0, f"top singular value {sigma[0]!r} is not 1 within {_EXACT_TOL:g}")
        _at_most(-sigma[-1], 0.0, "singular values escape [0, 1]")
        _agree(float(np.sum(np.square(sigma[1:]))), float(w @ w) - 1.0,
               "spectrum tail disagrees with the residual norm ||L||_F^2")
        return tuple(sigma.tolist())

    @cached_property
    def rho(self) -> float:
        """The second singular value of K, L's top one; zero with a single row or column."""
        return self.singular_values[1] if len(self.singular_values) > 1 else 0.0


def _apply_residual(res: SpectralResidual, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """L x, or L^T x with ``adjoint``, from the held cells: K x less u (v . x)."""
    rows, cols, w = res.cells
    u, v = res.row_unit, res.col_unit
    if adjoint:
        rows, cols, u, v = cols, rows, v, u
    return np.bincount(rows, w * x[cols], minlength=u.size) - u * (v @ x)


@_per_book
def whiten(matrix: OwnershipMatrix) -> SpectralResidual:
    """Whiten an active share matrix and find its dominant overlap mode.

    Validates the defining identities before returning: the square-root
    marginals are unit vectors that the residual annihilates on both sides
    (so they are a singular pair of K at value one), the dependence index
    is ||L||_F^2, and ``rho``, read here so the spectrum is built and
    checked, lies in [0, 1] with rho^2 <= ||L||_F^2. Computed once per matrix.
    """
    marg = require_active(matrix)
    u, v = np.sqrt(marg.p), np.sqrt(marg.s)
    rows, cols, e = held_cells(matrix)
    w = e / (u[rows] * v[cols])  # the products np.outer(u, v) holds there
    res = SpectralResidual((rows, cols, w), u, v)

    _agree(np.array([u @ u, v @ v]), 1.0, "square-root marginals are not unit vectors", 2e-12)
    _agree(np.concatenate([_apply_residual(res, v), _apply_residual(res, u, adjoint=True)]), 0.0,
           "residual does not annihilate the square-root marginals")
    # ||L||_F^2 = ||K||_F^2 - 2 u.K v + |u|^2 |v|^2 = sum w^2 - 1, since u.K v = sum e = 1
    frobenius = float(w @ w) - 1.0
    _agree(dependence_index(matrix).index, frobenius,
           "dependence index disagrees with spectrum tail ||L||_F^2")
    _at_most(np.array([-res.rho, res.rho, res.rho**2]), np.array([0.0, 1.0, frobenius]),
             f"rho {res.rho!r} escapes [0, 1] or exceeds ||L||_F")
    return res


def rho(matrix: OwnershipMatrix) -> float:
    """Dominant overlap mode: second singular value of the whitened matrix."""
    return whiten(matrix).rho

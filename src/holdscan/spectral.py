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

import numpy as np

from .core import (
    _EXACT_TOL, OwnershipMatrix, _agree, _at_most, _freeze_fields, _per_book, held_cells,
    require_active,
)
from .dependence import dependence_index


@dataclass(frozen=True, eq=False)
class SpectralResidual:
    """Whitened matrix, rank-one market mode, residual, and spectrum.

    ``whitened`` is the rescaled share matrix; ``row_unit``/``col_unit``
    are the square-root marginal unit vectors forming its top singular
    pair; ``residual`` is the whitened matrix minus that rank-one mode.
    ``singular_values`` lists all singular values of the whitened matrix
    in descending order, and ``rho`` is the second one (zero when the
    matrix has a single row or column).
    """

    whitened: np.ndarray
    residual: np.ndarray
    row_unit: np.ndarray
    col_unit: np.ndarray
    singular_values: tuple[float, ...]
    rho: float

    def __post_init__(self) -> None:
        _freeze_fields(self, "whitened", "residual", "row_unit", "col_unit")


@_per_book
def whiten(matrix: OwnershipMatrix) -> SpectralResidual:
    """Whiten an active share matrix and extract its singular structure.

    Validates the defining identities before returning: the square-root
    marginals are a unit singular pair at value one, the residual
    annihilates them, and both the residual's squared Frobenius norm and
    the dependence index match the tail of the squared spectrum. Computed
    once per matrix.
    """
    marg = require_active(matrix)
    u, v = np.sqrt(marg.p), np.sqrt(marg.s)
    rows, cols, e = held_cells(matrix)
    k = np.zeros(matrix.shape)
    k[rows, cols] = e / (u[rows] * v[cols])  # the products np.outer(u, v) holds there
    ell = np.outer(u, v)
    np.subtract(k, ell, out=ell)
    sigma = np.linalg.svd(k, compute_uv=False)

    _agree(np.array([u @ u, v @ v]), 1.0, "square-root marginals are not unit vectors", 2e-12)
    _agree(sigma[0], 1.0, f"top singular value {sigma[0]!r} is not 1 within {_EXACT_TOL:g}")
    _at_most(-sigma[-1], 0.0, "singular values escape [0, 1]")
    for image, unit in ((k @ v, u), (k.T @ u, v)):
        _agree(image, unit, "square-root marginals are not a singular pair")
    _agree(np.concatenate([ell @ v, u @ ell]), 0.0, "residual does not annihilate the market mode")
    tail = float(np.sum(np.square(sigma[1:])))
    _agree(np.array([np.vdot(ell, ell), dependence_index(matrix).index]), tail,
           "residual norm or dependence index disagrees with spectrum tail")

    return SpectralResidual(
        whitened=k,
        residual=ell,
        row_unit=u,
        col_unit=v,
        singular_values=tuple(sigma.tolist()),
        rho=float(sigma[1]) if len(sigma) > 1 else 0.0,
    )


def rho(matrix: OwnershipMatrix) -> float:
    """Dominant overlap mode: second singular value of the whitened matrix."""
    return whiten(matrix).rho
